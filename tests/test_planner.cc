// Offload-planner subsystem tests: the committed calibration
// (CostModel::builtin()), planner-vs-static cycle and checksum identity
// on every workload, the synthetic-model core-execute path, sharded
// deployments under fault injection and flush recovery, and
// host-thread-count invariance of a planner-enabled sweep.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fault/fault_config.hh"
#include "qei/driver.hh"
#include "qei/planner.hh"
#include "workloads/workload.hh"

using namespace qei;
using namespace qei::bench;

namespace {

// ---------------------------------------------------------------
// CostModel: the committed calibration
// ---------------------------------------------------------------

TEST(CostModel, BestSchemeFollowsCalibration)
{
    const CostModel& m = CostModel::builtin();
    // CHA-TLB is the calibrated best on four workloads; flann's probe
    // tables are the one case where core-integration wins.
    for (const char* w : {"dpdk", "jvm", "rocksdb", "snort"})
        EXPECT_EQ(m.bestScheme(w), "CHA-TLB") << w;
    EXPECT_EQ(m.bestScheme("flann"), "Core-integrated");
    // The software walk never beats the best accelerator — the reason
    // the calibrated planner can only tie the best static scheme on a
    // homogeneous trace.
    for (const auto& [name, costs] : m.workloads()) {
        (void)costs;
        EXPECT_GT(m.coreCost(name), m.bestSchemeCost(name)) << name;
    }
}

TEST(CostModel, UnknownWorkloadIsHarmless)
{
    const CostModel& m = CostModel::builtin();
    EXPECT_FALSE(m.knows("memcached"));
    EXPECT_EQ(m.coreCost("memcached"), 0.0);
    EXPECT_EQ(m.bestScheme("memcached"), "");
    EXPECT_EQ(m.schemeCost("dpdk", "no-such-scheme"), 0.0);
}

// ---------------------------------------------------------------
// plannerTopology: the deployments the planner proposes
// ---------------------------------------------------------------

TEST(PlannerTopology, SingleClassDeploysBestFamily)
{
    const Topology dpdk = plannerTopology(PlannerConfig::cost("dpdk"));
    EXPECT_EQ(dpdk.name(), "planner-cost");
    EXPECT_EQ(dpdk.params().name(), "CHA-TLB");
    EXPECT_FALSE(dpdk.heterogeneous());

    const Topology flann =
        plannerTopology(PlannerConfig::cost("flann"));
    EXPECT_EQ(flann.params().name(), "Core-integrated");

    // Unknown workloads fall back to the paper's headline scheme.
    const Topology unknown =
        plannerTopology(PlannerConfig::cost("memcached"));
    EXPECT_EQ(unknown.params().name(), "CHA-TLB");
}

TEST(PlannerTopology, ShardModeBuildsShardedDeployment)
{
    const Topology topo =
        plannerTopology(PlannerConfig::shard("dpdk", 8, true));
    EXPECT_EQ(topo.name(), "CHA-TLB-shard8+steal");
    EXPECT_EQ(topo.placements().size(), 8u);
}

TEST(PlannerTopology, MixedClassesBuildHeterogeneousUnion)
{
    const std::vector<ClassRange> classes{
        {0x1000, 0x2000, "dpdk"},
        {0x8000, 0x9000, "flann"},
    };
    const Topology topo =
        plannerTopology(PlannerConfig::mixed(classes));
    EXPECT_EQ(topo.name(), "planner-mix");
    EXPECT_TRUE(topo.heterogeneous());
    // 24 CHA-TLB slices for dpdk plus one core-integrated instance
    // for flann.
    EXPECT_EQ(topo.placements().size(), 25u);

    OffloadPlanner planner(PlannerConfig::mixed(classes));
    EXPECT_EQ(planner.classify(0x1800), "dpdk");
    EXPECT_EQ(planner.classify(0x8800), "flann");
    // Out-of-range keys fall back to the single-class name (empty
    // here), never a crash.
    EXPECT_EQ(planner.classify(0x5000), "");
}

// ---------------------------------------------------------------
// End-to-end: planner vs static, core-execute, shards, faults
// ---------------------------------------------------------------

struct PreparedWorkload
{
    std::unique_ptr<World> world;
    std::unique_ptr<Workload> workload;
    Prepared prep;
};

PreparedWorkload
prepareOne(std::size_t idx, std::size_t queries, std::uint64_t seed = 7,
           const ChipConfig& chip = ChipConfig{})
{
    PreparedWorkload out;
    out.world = std::make_unique<World>(seed, chip);
    out.workload = makeWorkloadFactories()[idx]();
    out.workload->build(*out.world);
    out.prep = out.workload->prepare(*out.world, queries);
    return out;
}

TEST(PlannerRun, CostModeIsCycleIdenticalToBestStatic)
{
    const std::vector<std::string> names{"dpdk", "jvm", "rocksdb",
                                         "snort", "flann"};
    const std::vector<std::size_t> queries{192, 96, 48, 12, 32};
    for (std::size_t w = 0; w < names.size(); ++w) {
        PreparedWorkload pw = prepareOne(w, queries[w]);
        const PlannerConfig cfg = PlannerConfig::cost(names[w]);
        const Topology best(plannerTopology(cfg).params());

        const QeiRunStats staticRun =
            runQei(*pw.world, pw.prep, DriverConfig(best));
        const QeiRunStats plannerRun = runQei(
            *pw.world, pw.prep,
            DriverConfig(plannerTopology(cfg)).withPlanner(cfg));

        // The calibrated planner deploys the best family's canonical
        // topology and keeps nothing on the core, so the run is
        // cycle-identical — not merely close.
        EXPECT_EQ(plannerRun.cycles, staticRun.cycles) << names[w];
        EXPECT_EQ(plannerRun.resultChecksum, staticRun.resultChecksum)
            << names[w];
        EXPECT_EQ(plannerRun.mismatches, 0u) << names[w];
        EXPECT_EQ(plannerRun.plannerDecisions,
                  plannerRun.queries)
            << names[w];
        EXPECT_EQ(plannerRun.plannerCoreExecutes, 0u) << names[w];
        // The static run carries no planner, so its counters are 0.
        EXPECT_EQ(staticRun.plannerDecisions, 0u) << names[w];
    }
}

TEST(PlannerRun, SyntheticModelKeepsQueriesOnCore)
{
    // A model that prices the software walk below the deployed
    // accelerator forces the core-execute path; answers must not
    // change (the core runs the same reference walk).
    auto model = std::make_shared<CostModel>();
    model->set("dpdk", {1.0, {{"CHA-TLB", 100.0}}});

    PreparedWorkload pw = prepareOne(0, 192);
    const QeiRunStats accel =
        runQei(*pw.world, pw.prep, DriverConfig(Topology::chaTlb()));

    PlannerConfig cfg = PlannerConfig::cost("dpdk");
    cfg.model = model;
    const QeiRunStats onCore =
        runQei(*pw.world, pw.prep,
               DriverConfig(Topology::chaTlb()).withPlanner(cfg));

    EXPECT_EQ(onCore.plannerCoreExecutes, onCore.queries);
    EXPECT_EQ(onCore.mismatches, 0u);
    EXPECT_EQ(onCore.resultChecksum, accel.resultChecksum);
    EXPECT_GT(onCore.cycles, 0u);
    // Core execution is planned, not a fault: the software-fallback
    // recovery counter must stay untouched.
    EXPECT_EQ(onCore.swFallbacks, 0u);
}

TEST(PlannerRun, SyntheticModelKeepsOpenLoopQueriesOnCore)
{
    // The open-loop path honours the core-execute verdict too: every
    // arrival runs on the core, with the static run's answers.
    auto model = std::make_shared<CostModel>();
    model->set("dpdk", {1.0, {{"CHA-TLB", 100.0}}});

    PreparedWorkload pw = prepareOne(0, 192);
    const QeiRunStats accel =
        runQei(*pw.world, pw.prep, DriverConfig(Topology::chaTlb()));

    PlannerConfig cfg = PlannerConfig::cost("dpdk");
    cfg.model = model;
    const QeiRunStats onCore = runQei(
        *pw.world, pw.prep,
        DriverConfig(Topology::chaTlb())
            .withPlanner(cfg)
            .withTraffic(std::make_shared<traffic::PoissonOpenLoop>(
                accel.cyclesPerQuery(), 5)));

    EXPECT_EQ(onCore.plannerCoreExecutes, onCore.queries);
    EXPECT_EQ(onCore.mismatches, 0u);
    EXPECT_EQ(onCore.resultChecksum, accel.resultChecksum);
    EXPECT_EQ(onCore.swFallbacks, 0u);
    // Arrivals queue behind the core-executed walks.
    EXPECT_EQ(onCore.queueWait.count, onCore.queries);
    EXPECT_GT(onCore.queueWait.max, 0.0);
}

TEST(PlannerRun, ShardedDeploymentSurvivesFaultsAndFlushes)
{
    // Clean single-deployment reference.
    PreparedWorkload clean = prepareOne(0, 192);
    const QeiRunStats reference = runQei(
        *clean.world, clean.prep, DriverConfig(Topology::chaTlb()));

    // Sharded deployment under page faults, bad headers, and periodic
    // interrupt flushes: recovery must reconstruct identical results.
    ChipConfig chip;
    chip.faults = parseFaultSpec("pf=0.05,bh=0.02,flush=20000");
    PreparedWorkload faulty = prepareOne(0, 192, 7, chip);
    const PlannerConfig cfg = PlannerConfig::shard("dpdk", 4, true);
    const QeiRunStats sharded =
        runQei(*faulty.world, faulty.prep,
               DriverConfig(plannerTopology(cfg)).withPlanner(cfg));

    EXPECT_GT(sharded.faultsInjected, 0u);
    EXPECT_GT(sharded.swFallbacks, 0u);
    EXPECT_EQ(sharded.mismatches, 0u);
    EXPECT_EQ(sharded.resultChecksum, reference.resultChecksum);
}

TEST(PlannerRun, ShardCountsAndBatchingPreserveResults)
{
    PreparedWorkload pw = prepareOne(0, 192);
    const QeiRunStats reference =
        runQei(*pw.world, pw.prep, DriverConfig(Topology::chaTlb()));

    for (int shards : {1, 8}) {
        const PlannerConfig cfg =
            PlannerConfig::shard("dpdk", shards, true);
        const QeiRunStats run =
            runQei(*pw.world, pw.prep,
                   DriverConfig(plannerTopology(cfg))
                       .withPlanner(cfg)
                       .withMode(QueryMode::NonBlocking));
        EXPECT_EQ(run.resultChecksum, reference.resultChecksum)
            << shards << " shards";
        EXPECT_EQ(run.mismatches, 0u);
    }

    // QUERY_BATCH over a sharded deployment.
    const PlannerConfig cfg = PlannerConfig::shard("dpdk", 8, true);
    const QeiRunStats batched =
        runQei(*pw.world, pw.prep,
               DriverConfig(plannerTopology(cfg))
                   .withPlanner(cfg)
                   .withBatch(BatchConfig{
                       8, BatchReorder::ByKeyLocality, true}));
    EXPECT_GT(batched.batches, 0u);
    EXPECT_EQ(batched.resultChecksum, reference.resultChecksum);
    EXPECT_EQ(batched.mismatches, 0u);
}

// ---------------------------------------------------------------
// Sweep determinism with the cost-model planner engaged
// ---------------------------------------------------------------

/** Every workload at 48 queries on CHA-TLB and Device-indirect, each
 *  cell under its workload's cost-model planner, at @p threads; keyed
 *  by the cell's "workload/topology" label. */
std::map<std::string, QeiRunStats>
costModeSweep(int threads)
{
    const std::vector<Topology> topologies{Topology::chaTlb(),
                                           Topology::deviceIndirect()};
    Sweep<QeiRunStats> sweep;
    for (const WorkloadFactory& factory : makeWorkloadFactories()) {
        const std::string name = factory()->name();
        const std::size_t row =
            sweep.row(workloadRow(factory, 48, 7, ChipConfig{}));
        for (const Topology& topo : topologies) {
            sweep.cell(row, name + "/" + topo.name(),
                       DriverConfig(topo).withPlanner(
                           PlannerConfig::cost(name)));
        }
    }
    const std::vector<QeiRunStats> runs = sweep.run(threads);
    std::map<std::string, QeiRunStats> cells;
    for (std::size_t c = 0; c < runs.size(); ++c)
        cells.emplace(sweep.label(c), runs[c]);
    return cells;
}

TEST(PlannerMatrix, ThreadCountInvariantUnderCostMode)
{
    // Device-indirect prices above the software walk on rocksdb and
    // snort, so those cells core-execute — the decision hash must be
    // a pure function of the query, never of host scheduling.
    const std::map<std::string, QeiRunStats> serial = costModeSweep(1);
    const std::map<std::string, QeiRunStats> parallel = costModeSweep(8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto& [label, run] : serial) {
        const QeiRunStats& other = parallel.at(label);
        EXPECT_EQ(run.cycles, other.cycles) << label;
        EXPECT_EQ(run.resultChecksum, other.resultChecksum) << label;
        EXPECT_EQ(run.plannerCoreExecutes, other.plannerCoreExecutes)
            << label;
        EXPECT_EQ(run.mismatches, 0u) << label;
        // The cost model keeps a query on the core exactly where the
        // deployed family is mispriced.
        const bool mispriced = label == "rocksdb/Device-indirect" ||
                               label == "snort/Device-indirect";
        EXPECT_EQ(run.plannerCoreExecutes > 0, mispriced) << label;
    }
}

} // namespace
