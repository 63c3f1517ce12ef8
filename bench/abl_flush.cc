/**
 * Ablation — interrupt flush cost (Sec. IV-D): the QST flush "is not
 * instantaneous and can take a few cycles, depending on the number of
 * non-blocking queries in the QST", with abort-code stores to the
 * same cacheline coalescing. This sweep measures flush latency versus
 * non-blocking occupancy, with scattered and line-shared result slots.
 */

#include <cstdio>

#include "bench_util.hh"
#include "ds/linked_list.hh"

using namespace qei;
using namespace qei::bench;

namespace {

/** Fill the accelerator with @p nb in-flight NB queries and flush. */
Cycles
flushWith(World& world, SimLinkedList& list,
          const std::vector<Key>& keys, int nb, bool shared_line)
{
    world.resetTiming();
    world.warmLlc();
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware,
                     SchemeConfig::coreIntegrated(),
                     &world.traceSink);

    // Result slots: either one per line (scattered) or packed 4/line.
    const Addr slab = world.vm.alloc(
        static_cast<std::uint64_t>(nb + 1) * kCacheLineBytes,
        kCacheLineBytes);
    Accelerator& accel = system.accelerator(0);
    for (int i = 0; i < nb; ++i) {
        const Addr slot =
            shared_line ? slab + static_cast<Addr>(i) * 16
                        : slab + static_cast<Addr>(i) * kCacheLineBytes;
        accel.enqueue(list.headerAddr(),
                      list.stageKey(keys[static_cast<std::size_t>(
                          i % static_cast<int>(keys.size()))]),
                      slot, QueryMode::NonBlocking,
                      static_cast<std::uint64_t>(i),
                      [](const QstEntry&) {});
    }
    // Interrupt arrives while the queries are mid-flight.
    world.events.run(30);
    return system.flushAll();
}

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the flush-cost ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — interrupt flush latency";
    suite.preamble =
        "Reproduces the Sec. IV-D flush-cost claims: an empty QST "
        "flushes for free, cost grows with the number of in-flight "
        "non-blocking queries, and abort-code stores that share a "
        "cacheline coalesce into far fewer writebacks.";
    suite.expectations.push_back(Expectation::exact(
        "empty-flush-free", "Sec. IV-D",
        "flushing with no non-blocking queries costs nothing",
        "sweep.[nb_queries=0].flush_cycles_scattered", "cyc", 0.0));
    suite.expectations.push_back(Expectation::ordering(
        "cost-grows-with-occupancy", "Sec. IV-D",
        "a full QST flushes slower than a nearly empty one",
        "sweep.[nb_queries=10].flush_cycles_scattered", Relation::Gt,
        "sweep.[nb_queries=2].flush_cycles_scattered"));
    suite.expectations.push_back(Expectation::ordering(
        "line-sharing-coalesces", "Sec. IV-D",
        "packed result slots coalesce abort stores",
        "sweep.[nb_queries=10].flush_cycles_packed", Relation::Lt,
        "sweep.[nb_queries=10].flush_cycles_scattered"));
    suite.expectations.push_back(Expectation::near(
        "full-flush-scattered", "Sec. IV-D",
        "full-QST flush cost with scattered result slots",
        "sweep.[nb_queries=10].flush_cycles_scattered", "cyc", 90.0,
        0.15, 0.25,
        "'a few cycles per query' — 10 queries x 9-cycle abort "
        "stores in this model"));
    suite.expectations.push_back(Expectation::near(
        "full-flush-packed", "Sec. IV-D",
        "full-QST flush cost with 4 slots per line",
        "sweep.[nb_queries=10].flush_cycles_packed", "cyc", 27.0,
        0.15, 0.25));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    // The flush sweep reuses one world serially (each flushWith call
    // resets timing in place), so it stays single-threaded; --threads
    // is still accepted for a uniform harness CLI.
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_flush", options);
    std::printf("=== Ablation: interrupt flush latency (Sec. IV-D) "
                "===\n");

    World world(55, options.chip);
    Rng rng(4);
    std::vector<std::pair<Key, std::uint64_t>> items;
    std::vector<Key> keys;
    for (int i = 0; i < 64; ++i) {
        Key k = randomKey(rng, 16);
        items.emplace_back(k, i);
        keys.push_back(std::move(k));
    }
    SimLinkedList list(world.vm, items);

    TablePrinter table;
    table.header({"NB queries in QST", "flush cycles (scattered)",
                  "flush cycles (4 slots/line)"});
    // Each run drains the World's sink into its own trace process.
    const bool tracing = !options.tracePath.empty();
    std::vector<std::string> labels;
    std::vector<trace::TraceBuffer> traces;
    auto flushTraced = [&](int nb, bool shared_line) {
        if (tracing)
            world.traceSink.enable();
        const Cycles cycles = flushWith(world, list, keys, nb, shared_line);
        if (tracing) {
            labels.push_back(fmt("flush/{}-{}", nb,
                                 shared_line ? "packed" : "scattered"));
            traces.push_back(world.traceSink.drain());
        }
        return cycles;
    };
    Json points = Json::array();
    for (int nb : {0, 2, 4, 8, 10}) {
        const Cycles scattered = flushTraced(nb, /*shared_line=*/false);
        const Cycles packed = flushTraced(nb, /*shared_line=*/true);
        table.row({std::to_string(nb),
                   std::to_string(scattered),
                   std::to_string(packed)});

        Json p = Json::object();
        p["nb_queries"] = nb;
        p["flush_cycles_scattered"] = scattered;
        p["flush_cycles_packed"] = packed;
        points.push_back(std::move(p));
    }
    table.print();
    std::printf("expectation: cost grows with non-blocking occupancy; "
                "stores to the same line coalesce (packed < "
                "scattered); blocking-only flushes are free\n");

    report.data()["sweep"] = std::move(points);
    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk =
        writeSweepTrace(options.tracePath, labels, traces);
    return report.finish() && traceOk ? 0 : 1;
}
