/**
 * Ablation — multi-core scalability: the Tab. I "scalability" column
 * made quantitative. The same total query load is issued from 1, 4,
 * 8, and 16 cores concurrently; distributed schemes (per-core or
 * per-CHA accelerators) keep scaling, while the single device stop
 * saturates — its QST, its DPU, and the NoC links around it become
 * the shared bottleneck.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the multi-core scalability ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — multi-core issue scalability";
    suite.preamble =
        "The Tab. I scalability column made quantitative: the "
        "distributed schemes (per-core and per-CHA accelerators) "
        "approach linear 16-core scaling on the same total query "
        "load, while the single device stop saturates on its "
        "shared QST, DPU, and surrounding NoC links.";
    suite.expectations.push_back(Expectation::range(
        "core-int-scaling", "Tab. I",
        "Core-integrated 16-core scaling",
        "schemes.[scheme=Core-integrated].scaling_16_core", "x", 9.0,
        14.0, 0.15));
    suite.expectations.push_back(Expectation::range(
        "cha-tlb-scaling", "Tab. I", "CHA-TLB 16-core scaling",
        "schemes.[scheme=CHA-TLB].scaling_16_core", "x", 8.0, 13.0,
        0.15));
    suite.expectations.push_back(Expectation::range(
        "device-direct-scaling", "Tab. I",
        "Device-direct saturates well below linear scaling",
        "schemes.[scheme=Device-direct].scaling_16_core", "x", 2.0,
        4.5, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "device-saturates", "Tab. I",
        "the shared device stop scales far worse than the "
        "distributed CHA scheme",
        "schemes.[scheme=Device-direct].scaling_16_core",
        Relation::Lt, "schemes.[scheme=CHA-TLB].scaling_16_core"));
    suite.expectations.push_back(Expectation::ordering(
        "per-core-scales-best", "Tab. I",
        "per-core accelerators scale at least as well as per-CHA "
        "ones",
        "schemes.[scheme=Core-integrated].scaling_16_core",
        Relation::Ge, "schemes.[scheme=CHA-TLB].scaling_16_core",
        0.05));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_multicore", options);
    std::printf("=== Ablation: multi-core issue scalability ===\n");

    TablePrinter table;
    table.header({"scheme", "1 core (cyc/q)", "4 cores", "8 cores",
                  "16 cores", "16-core scaling"});

    std::vector<SchemeConfig> schemesToRun;
    for (const auto& scheme : SchemeConfig::allSchemes()) {
        if (scheme.scheme == IntegrationScheme::DeviceIndirect)
            continue; // dominated by interface latency, not sharing
        schemesToRun.push_back(scheme);
    }

    // One jvm row; one cell per (scheme, core count), each issuing the
    // same prepared stream from that many cores.
    const std::vector<int> coreCounts{1, 4, 8, 16};
    Sweep<QeiRunStats> sweep;
    const std::size_t jvm =
        sweep.row(workloadRow(makeWorkloadFactories()[1], 2400, 42,
                              options.chip));
    for (const SchemeConfig& scheme : schemesToRun) {
        for (const int cores : coreCounts) {
            const std::string label =
                scheme.name() + "/" + std::to_string(cores) + "-cores";
            sweep.cell(jvm, label,
                       DriverConfig(scheme).withCores(cores).withLabel(
                           "jvm/" + label));
        }
    }
    const std::vector<QeiRunStats> results =
        report.run(sweep, !options.tracePath.empty());

    Json schemes = Json::array();
    for (std::size_t i = 0; i < schemesToRun.size(); ++i) {
        std::vector<std::string> row{schemesToRun[i].name()};
        Json points = Json::array();
        for (std::size_t k = 0; k < coreCounts.size(); ++k) {
            const QeiRunStats& stats = results[i * coreCounts.size() + k];
            simAssert(stats.mismatches == 0, "mismatches on {}",
                      schemesToRun[i].name());
            row.push_back(TablePrinter::num(stats.cyclesPerQuery(), 1));
            Json p = Json::object();
            p["cores"] = coreCounts[k];
            p["cycles_per_query"] = stats.cyclesPerQuery();
            p["qei"] = toJson(stats);
            points.push_back(std::move(p));
        }
        const double scaling =
            results[i * coreCounts.size()].cyclesPerQuery() /
            results[(i + 1) * coreCounts.size() - 1].cyclesPerQuery();
        row.push_back(TablePrinter::speedup(scaling));
        table.row(row);

        Json s = Json::object();
        s["scheme"] = schemesToRun[i].name();
        s["points"] = std::move(points);
        s["scaling_16_core"] = scaling;
        schemes.push_back(std::move(s));
    }
    table.print();
    std::printf("expectation: per-core / per-CHA schemes approach "
                "linear scaling; the single device stop saturates "
                "(Tab. I scalability column)\n");

    report.data()["schemes"] = std::move(schemes);
    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
