/**
 * Ablation — fault injection and software-fallback recovery
 * (Sec. IV-D): queries that trip an accelerator-side page fault,
 * corrupted StructHeader, or firmware fault are re-executed by
 * software, and an injected interrupt flush aborts in-flight work
 * that software then redoes. The invariant this harness enforces is
 * the recovery contract: under *any* fault mix, every query's final
 * result is bit-identical to the fault-free outcome — only timing
 * (and the fault/fallback accounting) moves.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fault/fault_config.hh"

using namespace qei;
using namespace qei::bench;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kQueries = 300;

/** One fault mix to run the workload under. */
struct Mix
{
    const char* label;
    /** fault_config.hh grammar; "" = the fault-free reference. */
    const char* spec;
    QueryMode mode;
};

/** The sweep: each fault kind alone, an injected-flush cadence, a
 *  fault-shrunken QST under non-blocking pressure, and everything at
 *  once. */
const std::vector<Mix>&
mixes()
{
    static const std::vector<Mix> kMixes = {
        {"none", "", QueryMode::Blocking},
        {"pf", "pf=0.08,seed=11", QueryMode::Blocking},
        {"bh", "bh=0.08,seed=11", QueryMode::Blocking},
        {"fw", "fw=0.08,seed=11", QueryMode::Blocking},
        {"flush", "flush=4000", QueryMode::Blocking},
        {"qst", "qst=3", QueryMode::NonBlocking},
        {"combined", "pf=0.04,bh=0.02,fw=0.02,flush=6000,seed=11",
         QueryMode::NonBlocking},
    };
    return kMixes;
}

/** @p mix's machine: Tab. II with only the mix's own faults, so the
 *  reference run is fault-free and `--faults`, which reaches the other
 *  harnesses through BenchOptions::chip, changes no mix. */
ChipConfig
mixChip(const Mix& mix)
{
    ChipConfig chip;
    // The "none" mix's empty spec parses to no faults.
    chip.faults = parseFaultSpec(mix.spec);
    return chip;
}

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the fault-injection ablation. */
validate::Suite
paperExpectations(const QeiRunStats& none, const QeiRunStats& pf,
                  const QeiRunStats& combined)
{
    validate::Suite suite;
    suite.title = "Ablation — fault injection and recovery";
    suite.preamble =
        "Reproduces the Sec. IV-D exception story: accelerator-side "
        "faults are delivered to software, which re-executes the "
        "query; an interrupt flush aborts in-flight queries for "
        "software to redo. Functional results must not change — only "
        "timing and the fault accounting may move.";

    suite.expectations.push_back(Expectation::exact(
        "results-bit-identical", "Sec. IV-D",
        "every fault mix reproduces the fault-free result checksum",
        "checksum_matches_all", "", 1.0,
        "order-independent digest over (queryId, found, value)"));
    suite.expectations.push_back(Expectation::exact(
        "no-mismatches", "Sec. IV-D",
        "no query disagrees with the software reference, any mix",
        "total_mismatches", "", 0.0));
    suite.expectations.push_back(Expectation::range(
        "faults-injected", "Sec. IV-D",
        "the combined mix actually plants faults",
        "mixes.[label=combined].faults_injected", "faults", 1.0,
        static_cast<double>(kQueries)));
    suite.expectations.push_back(Expectation::shape(
        "every-fault-recovered", "Sec. IV-D",
        "each injected fault triggers exactly one software fallback",
        pf.swFallbacks == pf.faultsInjected && pf.faultsInjected > 0,
        fmt("{} fallbacks for {} injected faults", pf.swFallbacks,
            pf.faultsInjected)));
    suite.expectations.push_back(Expectation::ordering(
        "fallback-costs-time", "Sec. IV-D",
        "software re-execution slows the faulted run down",
        "mixes.[label=pf].cycles", Relation::Gt,
        "mixes.[label=none].cycles"));
    suite.expectations.push_back(Expectation::ordering(
        "flush-costs-time", "Sec. IV-D",
        "periodic injected flushes slow the run down",
        "mixes.[label=flush].cycles", Relation::Gt,
        "mixes.[label=none].cycles"));
    suite.expectations.push_back(Expectation::range(
        "flushes-delivered", "Sec. IV-D",
        "the flush cadence fired mid-run",
        "mixes.[label=flush].fault_flushes", "flushes", 1.0, 1e6));
    suite.expectations.push_back(Expectation::range(
        "qst-pressure-backoffs", "Sec. IV-A",
        "a fault-shrunken QST forces QUERY_NB retries",
        "mixes.[label=qst].qst_backoffs", "retries", 1.0, 1e9));
    suite.expectations.push_back(Expectation::shape(
        "fallback-cycles-accounted", "Sec. IV-D",
        "recovery time shows up in the SwFallback latency component",
        combined.swFallbackCycles > 0 &&
            combined.breakdownCycles.count("sw_fallback") > 0 &&
            combined.breakdownCycles.at("sw_fallback") > 0,
        fmt("{} sw-fallback cycles, component total {}",
            combined.swFallbackCycles,
            combined.breakdownCycles.count("sw_fallback")
                ? combined.breakdownCycles.at("sw_fallback")
                : 0)));
    suite.expectations.push_back(Expectation::near(
        "pf-fallback-overhead", "Sec. IV-D",
        "8% page-fault rate costs a small constant factor end to end",
        "fallback_overhead_x", "x", 1.06, 0.08, 0.15,
        "model-anchored: ~7% of queries re-run in software (trap + "
        "core re-execution) on top of their accelerated attempt"));
    suite.expectations.push_back(Expectation::near(
        "flush-overhead", "Sec. IV-D",
        "a 4k-cycle flush cadence stays a bounded tax",
        "flush_overhead_x", "x", 1.03, 0.08, 0.15,
        "model-anchored: one mid-run flush redoes the in-flight "
        "window (8 queries) in software"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_fault", options);
    std::printf("=== Ablation: fault injection + software fallback "
                "(Sec. IV-D) ===\n");

    // One row per mix, since each mix is its own ChipConfig.
    const std::vector<Mix>& all = mixes();
    Sweep<QeiRunStats> sweep;
    for (const Mix& mix : all) {
        const std::size_t row = sweep.row(workloadRow(
            makeWorkloadFactories()[0], kQueries, kSeed, mixChip(mix)));
        sweep.cell(row, mix.label,
                   DriverConfig(SchemeConfig::coreIntegrated())
                       .withMode(mix.mode));
    }
    const std::vector<QeiRunStats> results = report.run(sweep);

    const QeiRunStats& none = results[0];
    TablePrinter table;
    table.header({"mix", "mode", "cycles", "slowdown", "injected",
                  "fallbacks", "flushes", "backoffs", "checksum ok"});
    Json points = Json::array();
    std::uint64_t totalMismatches = 0;
    bool allMatch = true;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Mix& mix = all[i];
        const QeiRunStats& r = results[i];
        const bool match = r.resultChecksum == none.resultChecksum;
        allMatch = allMatch && match;
        totalMismatches += r.mismatches;
        const double slowdown =
            none.cycles ? static_cast<double>(r.cycles) /
                              static_cast<double>(none.cycles)
                        : 0.0;
        table.row({mix.label,
                   mix.mode == QueryMode::Blocking ? "B" : "NB",
                   std::to_string(r.cycles), fmt("{:.2f}x", slowdown),
                   std::to_string(r.faultsInjected),
                   std::to_string(r.swFallbacks),
                   std::to_string(r.faultFlushes),
                   std::to_string(r.qstBackoffs),
                   match ? "yes" : "NO"});

        Json p = toJson(r);
        p["label"] = mix.label;
        p["spec"] = mix.spec;
        p["mode"] = mix.mode == QueryMode::Blocking ? "blocking"
                                                    : "non_blocking";
        p["slowdown"] = slowdown;
        p["checksum_matches"] = match ? 1 : 0;
        points.push_back(std::move(p));
    }
    table.print();

    // The recovery contract, asserted hard: a fault mix may only move
    // timing, never results.
    if (!allMatch || totalMismatches != 0) {
        std::fprintf(stderr,
                     "FATAL: fault recovery changed query results "
                     "(checksums %s, %llu mismatches)\n",
                     allMatch ? "match" : "DIFFER",
                     static_cast<unsigned long long>(totalMismatches));
        return 1;
    }
    std::printf("recovery invariant holds: every mix reproduced the "
                "fault-free checksum (%llu queries/mix)\n",
                static_cast<unsigned long long>(kQueries));

    const QeiRunStats& pf = results[1];
    const QeiRunStats& flush = results[4];
    const QeiRunStats& combined = results.back();
    report.data()["mixes"] = std::move(points);
    report.data()["checksum_matches_all"] = allMatch ? 1 : 0;
    report.data()["total_mismatches"] = totalMismatches;
    report.data()["fallback_overhead_x"] =
        none.cycles ? static_cast<double>(pf.cycles) /
                          static_cast<double>(none.cycles)
                    : 0.0;
    report.data()["flush_overhead_x"] =
        none.cycles ? static_cast<double>(flush.cycles) /
                          static_cast<double>(none.cycles)
                    : 0.0;
    report.setTable(table);
    report.setValidation(paperExpectations(none, pf, combined));
    return report.finish() ? 0 : 1;
}
