/**
 * Fig. 8 — Latency sensitivity of the Device-indirect scheme: sweep
 * the device interface's per-access latency from 50 to 2000 cycles
 * and report the ROI speedup per workload.
 *
 * Paper shape: a nontrivial performance drop for all workloads as the
 * interface latency grows; short-query workloads (hash tables) fall
 * off hardest.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the Fig. 8 latency sweep. */
validate::Suite
paperExpectations(bool all_monotonic, double dpdk_retention,
                  double flann_retention)
{
    validate::Suite suite;
    suite.title = "Fig. 8 — Device-indirect interface-latency "
                  "sensitivity";
    suite.preamble =
        "Every workload loses speedup monotonically as the device "
        "interface latency grows from 50 to 2000 cycles, and the "
        "short-query hash workload (dpdk) retains the smallest "
        "fraction of its 50-cycle speedup — both exactly the "
        "paper's argument for keeping the queue-state table off "
        "the device.";
    for (const char* w : {"dpdk", "rocksdb", "flann"}) {
        const std::string name = w;
        const std::string base = "workloads.[workload=" + name + "]";
        suite.expectations.push_back(Expectation::ordering(
            "latency-hurts-" + name, "Fig. 8",
            "a 2000-cycle interface is far slower than 50 cycles on "
            + name,
            base + ".sweep.[interface_latency=2000].speedup",
            Relation::Lt,
            base + ".sweep.[interface_latency=50].speedup"));
    }
    suite.expectations.push_back(Expectation::range(
        "dpdk-50cyc", "Fig. 8",
        "dpdk speedup with a 50-cycle interface",
        "workloads.[workload=dpdk].sweep.[interface_latency=50]"
        ".speedup",
        "x", 3.0, 5.0, 0.15));
    suite.expectations.push_back(Expectation::range(
        "dpdk-2000cyc", "Fig. 8",
        "dpdk collapses below break-even at 2000 cycles",
        "workloads.[workload=dpdk].sweep.[interface_latency=2000]"
        ".speedup",
        "x", 0.05, 0.35, 0.25));
    suite.expectations.push_back(Expectation::range(
        "flann-50cyc", "Fig. 8",
        "flann speedup with a 50-cycle interface",
        "workloads.[workload=flann].sweep.[interface_latency=50]"
        ".speedup",
        "x", 3.5, 5.5, 0.15));
    suite.expectations.push_back(Expectation::shape(
        "monotonic-decline", "Fig. 8",
        "speedup declines monotonically with interface latency for "
        "every workload",
        all_monotonic, all_monotonic ? "monotonic" : "non-monotonic"));
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "dpdk retains %.1f%%, flann retains %.1f%%",
                  dpdk_retention * 100.0, flann_retention * 100.0);
    suite.expectations.push_back(Expectation::shape(
        "hash-falls-hardest", "Fig. 8",
        "the hash workload keeps a smaller share of its 50-cycle "
        "speedup than the tree workload",
        dpdk_retention < flann_retention, buf));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("fig08_latency_sweep", options);
    std::printf("=== Fig. 8: Device-indirect interface-latency sweep "
                "===\n");

    const std::vector<Cycles> sweep{50, 100, 200, 300, 500, 1000, 2000};

    TablePrinter table;
    std::vector<std::string> header{"workload"};
    for (Cycles c : sweep)
        header.push_back(std::to_string(c) + " cyc");
    table.header(header);

    // One row per workload, the baseline as its prologue, one cell per
    // interface latency.
    Sweep<QeiRunStats, CoreRunResult> runner;
    runner.prologue([](World& world, const PreparedRow& row) {
        return runBaseline(world, row.prepared);
    });
    std::vector<std::string> names;
    for (const WorkloadFactory& factory : makeWorkloadFactories()) {
        names.push_back(factory()->name());
        const std::size_t row =
            runner.row(workloadRow(factory, 0, 42, options.chip));
        for (const Cycles c : sweep) {
            runner.cell(row, names.back() + "/dev-" + std::to_string(c),
                        DriverConfig(SchemeConfig::deviceIndirect(c)));
        }
    }
    const std::vector<QeiRunStats> results =
        runner.run(options.threads, !options.tracePath.empty());

    Json workloads = Json::array();
    bool allMonotonic = true;
    double dpdkRetention = 0.0;
    double flannRetention = 0.0;
    for (std::size_t w = 0; w < names.size(); ++w) {
        const CoreRunResult& baseline = runner.prologueOf(w);
        Json points = Json::array();
        std::vector<std::string> row{names[w]};
        double first = 0.0;
        double prev = 0.0;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const QeiRunStats& stats = results[w * sweep.size() + i];
            const double speedup = speedupOf(baseline, stats);
            if (i == 0)
                first = speedup;
            else if (speedup > prev)
                allMonotonic = false;
            prev = speedup;
            row.push_back(TablePrinter::speedup(speedup));
            Json p = Json::object();
            p["interface_latency"] = sweep[i];
            p["speedup"] = speedup;
            p["qei"] = toJson(stats);
            points.push_back(std::move(p));
        }
        table.row(row);

        Json wj = Json::object();
        wj["workload"] = names[w];
        wj["baseline"] = toJson(baseline);
        wj["sweep"] = std::move(points);
        workloads.push_back(std::move(wj));
        // speedup@2000 / speedup@50
        const double retention = first > 0.0 ? prev / first : 0.0;
        if (names[w] == "dpdk")
            dpdkRetention = retention;
        else if (names[w] == "flann")
            flannRetention = retention;
    }
    table.print();
    std::printf("paper reference: monotonic drop with latency; device "
                "interfaces quoted at ~300 ns (~750 cycles) round "
                "trip\n");

    report.data()["workloads"] = std::move(workloads);
    report.setTable(table);
    report.setValidation(paperExpectations(allMonotonic, dpdkRetention,
                                           flannRetention));
    const bool traceOk = runner.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
