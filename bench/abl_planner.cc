/**
 * Ablation — cost-model-driven offload planner. The paper picks one
 * integration scheme per deployment and sticks with it; this harness
 * asks what a submit-time planner buys when it can consult the
 * calibrated cost model (CostModel::builtin()) and choose per query.
 *
 * Three sections:
 *  (a) per-workload: every canonical static scheme vs. the planner's
 *      cost-mode deployment. The planner must match the best static
 *      scheme on every workload — it deploys that scheme's canonical
 *      topology, so the run is cycle-identical, and the gate pins
 *      exactly that (ratio 1.0 within tolerance, checksums equal).
 *  (b) mixed trace: dpdk (cuckoo FIB, best on CHA-TLB) and flann
 *      (probe tables, best on Core-integrated) interleaved 1:1 in one
 *      World. A static deployment serves both classes with one
 *      scheme; the planner's heterogeneous union routes each class to
 *      its own best family, so it must beat *every* static scheme —
 *      the case where per-query planning is strictly better.
 *  (c) sharding: the planner's key-space-sharded deployments (1 and 8
 *      shards, work stealing on/off, plus a QUERY_BATCH cell) must be
 *      result-identical to the canonical single deployment
 *      (order-independent result_checksum).
 *
 * Usage: abl_planner [queries] — the optional positional argument
 * caps queries per workload (CI smoke runs use a reduced count).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

const std::vector<std::string> kWorkloads{"dpdk", "jvm", "rocksdb",
                                          "snort", "flann"};

/** Paper-style expectations; bands calibrated on the default query
 *  counts (seed in main). */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — cost-model-driven offload planner";
    suite.preamble =
        "No paper counterpart: QEI deploys one integration scheme and "
        "keeps it, so these gates are self-anchored. They assert what "
        "a submit-time planner must deliver to earn its place: never "
        "lose to the best static scheme on any single workload (its "
        "cost-mode deployment is that scheme, cycle-identical), beat "
        "every static scheme on a mixed dpdk+flann trace where no "
        "single scheme is best for both classes, and keep sharded "
        "deployments result-identical to the single deployment "
        "(order-independent result_checksum).";
    const std::string kSelfAnchored =
        "self-anchored: asserts planner shape, no paper band";

    // (a) Planner >= best static on every workload. The deployment is
    // the best family's canonical topology, so the ratio is exactly
    // 1.0 — the band is tight on purpose.
    for (const std::string& w : kWorkloads) {
        suite.expectations.push_back(Expectation::range(
            w + "-planner-matches-best", "Sec. IV (ext.)",
            w + " planner cost-mode matches the best static scheme",
            w + "_summary.planner_vs_best_static", "x", 0.995, 1.05,
            0.004, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-planner-checksum", "Sec. IV (ext.)",
            w + " planner results bit-identical to the static run",
            w + "_summary.planner_checksum_matches", "bool", 1.0,
            kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-no-mismatches", "Sec. IV",
            w + " functional correctness across every deployment",
            w + "_summary.mismatches", "queries", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + "-planner-consulted", "Sec. IV (ext.)",
            w + " planner consulted once per query, kept none on core",
            w + "_summary.planner_consulted", "bool", 1.0,
            kSelfAnchored));
    }

    // (b) Mixed trace: strictly better than every static scheme. The
    // win is structural but small — flann's Core-integrated edge over
    // CHA-TLB is a few percent of the blended cycles/query — so the
    // lo edge sits just above parity and the gate is the strictness
    // bit, not the magnitude.
    suite.expectations.push_back(Expectation::range(
        "mixed-planner-gain", "Sec. IV (ext.)",
        "mixed dpdk+flann: planner union vs best static scheme",
        "mixed_summary.planner_vs_best_static", "x", 1.0005, 1.5, 0.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::exact(
        "mixed-planner-beats-every-static", "Sec. IV (ext.)",
        "mixed trace: planner union beats all five static schemes",
        "mixed_summary.planner_beats_all", "bool", 1.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::exact(
        "mixed-checksums", "Sec. IV",
        "mixed trace: identical results across every deployment",
        "mixed_summary.checksum_matches_all", "bool", 1.0,
        kSelfAnchored));

    // (c) Sharding is a routing change, not a semantic one.
    suite.expectations.push_back(Expectation::exact(
        "shard-checksum-identity", "Sec. IV (ext.)",
        "sharded deployments (1/8 shards, +-steal, batched) "
        "result-identical to the single canonical deployment",
        "shard_summary.checksum_matches_all", "bool", 1.0,
        kSelfAnchored));
    suite.expectations.push_back(Expectation::range(
        "shard8-vs-shard1", "Sec. IV (ext.)",
        "8 shards vs 1 shard under non-blocking issue (routing "
        "overhead stays bounded)",
        "shard_summary.shard8_vs_shard1", "x", 0.8, 3.0, 0.10,
        kSelfAnchored));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    const std::size_t cap = parseQueryCap(options, argv[0]);
    BenchReport report("abl_planner", options);
    std::printf(
        "=== Ablation: cost-model-driven offload planner ===\n");

    const std::vector<std::size_t> queryCounts{1536, 1024, 512, 256,
                                               512};
    const std::vector<Topology> schemes = Topology::allPaper();

    // Six rows: one per workload, plus the mixed dpdk+flann trace.
    // Cells: (a) workload x (5 static + planner), (b) mixed x (5
    // static + planner union), (c) dpdk shard variants, on dpdk's row.
    Sweep<QeiRunStats> runner;
    auto addCell = [&](std::size_t row, const std::string& label,
                       DriverConfig config) {
        runner.cell(row, label, config.withLabel(label));
    };
    auto plannerConfig = [](const PlannerConfig& cfg) {
        return DriverConfig(plannerTopology(cfg)).withPlanner(cfg);
    };
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        const std::size_t row = runner.row(
            workloadRow(makeWorkloadFactories()[w],
                        capQueries(queryCounts[w], cap), 42, options.chip));
        for (const Topology& topo : schemes)
            addCell(row, kWorkloads[w] + "/" + topo.name(), topo);
        addCell(row, kWorkloads[w] + "/planner-cost",
                plannerConfig(PlannerConfig::cost(kWorkloads[w])));
    }
    const std::size_t mixedFirst = runner.cells();
    const std::size_t mixedRow =
        runner.row(mixedTraceRow(capQueries(512, cap), options.chip));
    for (const Topology& topo : schemes)
        addCell(mixedRow, "mixed/" + topo.name(), topo);
    // The union routes on the class ranges of this World's own keys.
    runner.cell(mixedRow, "mixed/planner-mix",
                [&](World& world, const PreparedRow& row, const auto&) {
                    const PlannerConfig cfg = PlannerConfig::mixed(
                        row.kept<MixedTrace>().classes);
                    return runQei(world, row.prepared,
                                  plannerConfig(cfg).withLabel(
                                      "mixed/planner-mix"));
                });

    struct Shard
    {
        int shards;
        bool steal;
        int batch; ///< QUERY_BATCH size (1 = scalar)
    };
    const std::vector<Shard> shards{
        {1, true, 1}, {8, true, 1}, {8, false, 1}, {8, true, 8}};
    const std::size_t shardFirst = runner.cells();
    for (const Shard& shard : shards) {
        DriverConfig config =
            plannerConfig(PlannerConfig::shard("dpdk", shard.shards,
                                               shard.steal))
                .withMode(QueryMode::NonBlocking);
        if (shard.batch > 1) {
            config.withBatch(BatchConfig{
                shard.batch, BatchReorder::ByKeyLocality, true});
        }
        addCell(0, "dpdk/" + config.topology.name() +
                       (shard.batch > 1 ? "+batch8" : ""),
                config); // dpdk's row
    }

    const std::vector<QeiRunStats> sweep =
        report.run(runner, !options.tracePath.empty());

    TablePrinter table;
    table.header({"section", "cell", "cyc/query", "vs best static",
                  "decisions", "checksum"});

    // Sections (a) and (b) are five static cells then the planner's,
    // starting at cell @p first; the best static is the fewest cycles.
    auto bestStatic = [&](std::size_t first) {
        std::size_t best = first;
        for (std::size_t c = first + 1; c < first + schemes.size(); ++c) {
            if (sweep[c].cycles < sweep[best].cycles)
                best = c;
        }
        return best;
    };
    auto vsBest = [](const QeiRunStats& best, const QeiRunStats& st) {
        return st.cycles ? static_cast<double>(best.cycles) /
                               static_cast<double>(st.cycles)
                         : 0.0;
    };
    // Table rows and JSON points for one section; checksums are
    // compared against @p reference.
    auto sectionPoints = [&](const std::string& section,
                             std::size_t first, std::size_t best,
                             const std::string& plannerName,
                             const QeiRunStats& reference,
                             bool coreExecutes) {
        Json points = Json::array();
        for (std::size_t s = 0; s <= schemes.size(); ++s) {
            const QeiRunStats& st = sweep[first + s];
            const std::string name =
                s < schemes.size() ? schemes[s].name() : plannerName;
            table.row({section, name,
                       TablePrinter::num(st.cyclesPerQuery()),
                       TablePrinter::num(vsBest(sweep[best], st)),
                       std::to_string(st.plannerDecisions),
                       st.resultChecksum == reference.resultChecksum
                           ? "ok"
                           : "MISMATCH"});
            Json p = Json::object();
            p["scheme"] = name;
            p["cycles"] = st.cycles;
            p["cycles_per_query"] = st.cyclesPerQuery();
            p["planner_decisions"] = st.plannerDecisions;
            if (coreExecutes)
                p["planner_core_executes"] = st.plannerCoreExecutes;
            points.push_back(std::move(p));
        }
        return points;
    };

    // -- (a) per-workload static vs planner --
    const std::size_t perWorkload = schemes.size() + 1;
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        const std::size_t base = w * perWorkload;
        const std::size_t best = bestStatic(base);
        const QeiRunStats& bestRun = sweep[best];
        const QeiRunStats& planner = sweep[base + schemes.size()];
        std::uint64_t mismatches = 0;
        for (std::size_t s = 0; s <= schemes.size(); ++s)
            mismatches += sweep[base + s].mismatches;
        const bool consulted =
            planner.plannerDecisions == planner.queries &&
            planner.plannerCoreExecutes == 0;

        report.data()[kWorkloads[w]] = sectionPoints(
            kWorkloads[w], base, best, "planner-cost", bestRun, true);
        Json summary = Json::object();
        summary["best_static"] = schemes[best - base].name();
        summary["best_static_cycles_per_query"] =
            bestRun.cyclesPerQuery();
        summary["planner_vs_best_static"] = vsBest(bestRun, planner);
        summary["planner_checksum_matches"] =
            planner.resultChecksum == bestRun.resultChecksum ? 1 : 0;
        summary["planner_consulted"] = consulted ? 1 : 0;
        summary["mismatches"] = mismatches;
        report.data()[kWorkloads[w] + "_summary"] = std::move(summary);
    }

    // -- (b) mixed dpdk+flann trace --
    {
        const std::size_t best = bestStatic(mixedFirst);
        const QeiRunStats& planner = sweep[mixedFirst + schemes.size()];
        bool beatsAll = true;
        bool checksumsMatch = true;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const QeiRunStats& st = sweep[mixedFirst + s];
            beatsAll = beatsAll && planner.cycles < st.cycles;
            checksumsMatch = checksumsMatch &&
                             st.resultChecksum == planner.resultChecksum;
        }
        report.data()["mixed"] = sectionPoints(
            "mixed", mixedFirst, best, "planner-mix", planner, false);
        Json summary = Json::object();
        summary["best_static"] = schemes[best - mixedFirst].name();
        summary["planner_vs_best_static"] = vsBest(sweep[best], planner);
        summary["planner_beats_all"] = beatsAll ? 1 : 0;
        summary["checksum_matches_all"] = checksumsMatch ? 1 : 0;
        report.data()["mixed_summary"] = std::move(summary);
    }

    // -- (c) sharded deployments --
    {
        // Reference results: section (a)'s dpdk CHA-TLB cell (same
        // seed and query count, canonical single-family deployment).
        const QeiRunStats& canonical = sweep[0];
        bool checksumsMatch = true;
        Json points = Json::array();
        for (std::size_t i = shardFirst; i < sweep.size(); ++i) {
            const Shard& shard = shards[i - shardFirst];
            const QeiRunStats& st = sweep[i];
            const bool ok =
                st.resultChecksum == canonical.resultChecksum;
            checksumsMatch = checksumsMatch && ok;
            table.row({"shard", runner.label(i),
                       TablePrinter::num(st.cyclesPerQuery()), "-",
                       std::to_string(st.plannerDecisions),
                       ok ? "ok" : "MISMATCH"});
            Json p = Json::object();
            p["cell"] = runner.label(i);
            p["shards"] = shard.shards;
            p["steal"] = shard.steal ? 1 : 0;
            p["batch"] = shard.batch;
            p["cycles"] = st.cycles;
            p["cycles_per_query"] = st.cyclesPerQuery();
            p["qst_backoffs"] = st.qstBackoffs;
            p["checksum_matches_canonical"] = ok ? 1 : 0;
            points.push_back(std::move(p));
        }
        report.data()["shard"] = std::move(points);
        const QeiRunStats& shard1 = sweep[shardFirst];
        const QeiRunStats& shard8 = sweep[shardFirst + 1];
        Json summary = Json::object();
        summary["checksum_matches_all"] = checksumsMatch ? 1 : 0;
        summary["shard8_vs_shard1"] =
            shard8.cycles ? static_cast<double>(shard1.cycles) /
                                static_cast<double>(shard8.cycles)
                          : 0.0;
        report.data()["shard_summary"] = std::move(summary);
    }

    table.print();
    std::printf(
        "planner: on a homogeneous trace the cost model picks the "
        "best static scheme (the planner can only tie); on the mixed "
        "trace the heterogeneous union routes each class to its own "
        "best family, which no static scheme can match — and sharding "
        "never changes answers, only placement\n");

    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = runner.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
