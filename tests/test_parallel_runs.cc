/**
 * Determinism contract of the sweep runner: running the (workload x
 * scheme) matrix, or any Sweep, at --threads 8 must produce exactly
 * the same simulated numbers as --threads 1, because every World of a
 * row is built from the same seed. And reusing a World for several
 * cells must produce exactly what a fresh World per cell does, for
 * every kind of cell the harnesses run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "bench_util.hh"
#include "fault/fault_config.hh"
#include "qei/admission.hh"
#include "traffic/traffic.hh"

using namespace qei;
using namespace qei::bench;

namespace {

void
expectSameBaseline(const CoreRunResult& a, const CoreRunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_DOUBLE_EQ(a.backendStallCycles, b.backendStallCycles);
    EXPECT_DOUBLE_EQ(a.frontendStallCycles, b.frontendStallCycles);
}

void
expectSameStats(const QeiRunStats& a, const QeiRunStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.coreInstructions, b.coreInstructions);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.exceptions, b.exceptions);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.microOps, b.microOps);
    EXPECT_EQ(a.remoteCompares, b.remoteCompares);
    EXPECT_DOUBLE_EQ(a.avgQstOccupancy, b.avgQstOccupancy);
    EXPECT_DOUBLE_EQ(a.maxInFlightObserved, b.maxInFlightObserved);
    // The latency breakdown is integer-total based, so it must also be
    // bit-identical across thread counts.
    EXPECT_EQ(a.breakdownQueries, b.breakdownQueries);
    EXPECT_EQ(a.breakdownEndToEnd, b.breakdownEndToEnd);
    ASSERT_EQ(a.breakdownCycles.size(), b.breakdownCycles.size());
    for (const auto& [component, cycles] : a.breakdownCycles) {
        ASSERT_TRUE(b.breakdownCycles.count(component)) << component;
        EXPECT_EQ(cycles, b.breakdownCycles.at(component))
            << component;
    }
}

/** Two workloads keep the test fast while still crossing workloads. */
std::vector<WorkloadFactory>
testFactories()
{
    auto all = makeWorkloadFactories();
    return {all[0], all[1]};
}

MatrixOptions
testMatrix(int threads)
{
    MatrixOptions matrix;
    matrix.queries = 300; // small but enough to exercise all schemes
    matrix.threads = threads;
    return matrix;
}

} // namespace

TEST(ParallelRuns, EightThreadsMatchesSerial)
{
    const auto serial =
        runWorkloadMatrix(testFactories(), testMatrix(1));
    const auto parallel =
        runWorkloadMatrix(testFactories(), testMatrix(8));

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 2u);
    for (std::size_t w = 0; w < serial.size(); ++w) {
        const WorkloadRun& s = serial[w];
        const WorkloadRun& p = parallel[w];
        EXPECT_EQ(s.name, p.name);
        expectSameBaseline(s.baseline, p.baseline);
        ASSERT_EQ(s.schemes.size(), p.schemes.size());
        for (const auto& [scheme, stats] : s.schemes) {
            ASSERT_TRUE(p.schemes.count(scheme))
                << "scheme missing in parallel run: " << scheme;
            expectSameStats(stats, p.schemes.at(scheme));
        }
    }
}

TEST(ParallelRuns, MatrixCoversAllSchemes)
{
    const auto runs = runWorkloadMatrix(testFactories(), testMatrix(4));
    ASSERT_EQ(runs.size(), 2u);
    for (const WorkloadRun& run : runs) {
        EXPECT_EQ(run.schemes.size(), SchemeConfig::allSchemes().size());
        EXPECT_GT(run.baseline.queries, 0u);
        for (const auto& [scheme, stats] : run.schemes) {
            EXPECT_EQ(stats.mismatches, 0u)
                << run.name << " / " << scheme;
            EXPECT_GT(run.speedup(stats), 0.0);
        }
    }
}

TEST(ParallelRuns, TraceEventCountsMatchAcrossThreadCounts)
{
    // Timeline capture must not perturb determinism: every per-cell
    // trace at --threads 8 carries exactly the events of --threads 1.
    MatrixOptions serial = testMatrix(1);
    serial.captureTrace = true;
    MatrixOptions parallel = testMatrix(8);
    parallel.captureTrace = true;

    const auto a = runWorkloadMatrix(testFactories(), serial);
    const auto b = runWorkloadMatrix(testFactories(), parallel);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w].traces.size(), b[w].traces.size());
        // Baseline + one per scheme, all armed.
        EXPECT_EQ(a[w].traces.size(),
                  1 + SchemeConfig::allSchemes().size());
        for (const auto& [cell, buf] : a[w].traces) {
            ASSERT_TRUE(b[w].traces.count(cell))
                << a[w].name << " / " << cell;
            const trace::TraceBuffer& other = b[w].traces.at(cell);
            EXPECT_EQ(buf.emitted, other.emitted)
                << a[w].name << " / " << cell;
            EXPECT_EQ(buf.events.size(), other.events.size())
                << a[w].name << " / " << cell;
            // With QEI_TRACING=OFF the sinks legitimately stay empty;
            // the equality checks above still hold (0 == 0).
            if (trace::kCompiledIn) {
                EXPECT_GT(buf.emitted, 0u)
                    << a[w].name << " / " << cell;
            }
        }
    }
}

namespace {

/** What one cell produces, as runWorkloadMatrix captures it. */
struct Cell
{
    CoreRunResult baseline;
    QeiRunStats stats;
    ChipActivity activity;
    std::string statsJson;
    trace::TraceBuffer trace;
};

/**
 * The reference a matrix row must reproduce: cell @p cell of
 * @p factory's row (0 = baseline, else topology cell - 1) on a World
 * built, prepared and armed for that cell alone.
 */
Cell
freshWorldCell(const WorkloadFactory& factory,
               const MatrixOptions& options, std::size_t cell)
{
    std::unique_ptr<Workload> workload = factory();
    World world(options.seed, options.chip);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, options.queries);
    world.traceSink.enable(options.traceCapacity);

    Cell out;
    if (cell == 0) {
        out.baseline = runBaseline(world, prepared);
    } else {
        out.stats = runQei(
            world, prepared,
            DriverConfig(options.topologies[cell - 1])
                .withMode(options.mode)
                .withBatch(options.batch)
                .captureStats(&out.statsJson));
    }
    out.activity = ChipActivity::capture(world.hierarchy);
    out.trace = world.traceSink.drain();
    return out;
}

void
expectSameDigest(const LatencyDigest& a, const LatencyDigest& b,
                 const std::string& what)
{
    EXPECT_EQ(a.count, b.count) << what;
    EXPECT_DOUBLE_EQ(a.mean, b.mean) << what;
    EXPECT_DOUBLE_EQ(a.max, b.max) << what;
    EXPECT_DOUBLE_EQ(a.p50, b.p50) << what;
    EXPECT_DOUBLE_EQ(a.p99, b.p99) << what;
    EXPECT_DOUBLE_EQ(a.p999, b.p999) << what;
}

/** Every QeiRunStats field: toJson() carries all but the digests. */
void
expectSameRun(const QeiRunStats& a, const QeiRunStats& b,
              const std::string& cell)
{
    EXPECT_EQ(toJson(a).dump(), toJson(b).dump()) << cell;
    expectSameDigest(a.sojourn, b.sojourn, cell + " sojourn");
    expectSameDigest(a.queueWait, b.queueWait, cell + " queue wait");
    expectSameDigest(a.service, b.service, cell + " service");
}

void
expectSameActivity(const ChipActivity& a, const ChipActivity& b,
                   const std::string& cell)
{
    EXPECT_EQ(a.l1Accesses, b.l1Accesses) << cell;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << cell;
    EXPECT_EQ(a.llcAccesses, b.llcAccesses) << cell;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << cell;
    EXPECT_EQ(a.nocBytes, b.nocBytes) << cell;
}

void
expectSameTrace(const trace::TraceBuffer& a, const trace::TraceBuffer& b,
                const std::string& cell)
{
    EXPECT_EQ(a.components, b.components) << cell;
    EXPECT_EQ(a.names, b.names) << cell;
    EXPECT_EQ(a.emitted, b.emitted) << cell;
    EXPECT_EQ(a.dropped, b.dropped) << cell;
    ASSERT_EQ(a.events.size(), b.events.size()) << cell;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const trace::TraceEvent& x = a.events[i];
        const trace::TraceEvent& y = b.events[i];
        const bool same = x.tick == y.tick && x.duration == y.duration &&
                          x.queryId == y.queryId && x.value == y.value &&
                          x.nameId == y.nameId &&
                          x.componentId == y.componentId &&
                          x.category == y.category;
        ASSERT_TRUE(same) << cell << ": first differing event " << i;
    }
}

/**
 * Run every paper workload's row through runWorkloadMatrix and check
 * each cell against freshWorldCell(): results, activity, stats dump
 * and trace buffer must all be identical.
 */
void
expectReuseMatchesFreshWorlds(MatrixOptions options)
{
    constexpr int kThreads = 4;
    options.captureStats = true;
    options.captureTrace = true;
    // A small ring keeps the comparison cheap; it wraps, so the
    // retained tail and the drop counts are compared too.
    options.traceCapacity = 4096;

    // One single-row matrix per workload at 300 queries, or fewer
    // where the default is lower: a snort job scans a whole buffer, so
    // its 24 default jobs are already a full run.
    const auto factories = makeWorkloadFactories();
    std::vector<MatrixOptions> perWorkload(factories.size(), options);
    for (std::size_t w = 0; w < factories.size(); ++w) {
        perWorkload[w].queries =
            std::min<std::size_t>(300, factories[w]()->defaultQueries());
    }
    const std::vector<WorkloadRun> runs =
        parallelMap(kThreads, factories.size(), [&](std::size_t w) {
            return runWorkloadMatrix({factories[w]}, perWorkload[w])
                .front();
        });
    const std::size_t stride = 1 + options.topologies.size();
    const std::vector<Cell> reference = parallelMap(
        kThreads, factories.size() * stride, [&](std::size_t i) {
            return freshWorldCell(factories[i / stride],
                                  perWorkload[i / stride], i % stride);
        });

    for (std::size_t w = 0; w < runs.size(); ++w) {
        const WorkloadRun& run = runs[w];
        const Cell& base = reference[w * stride];
        expectSameBaseline(run.baseline, base.baseline);
        expectSameActivity(run.activity.at("baseline"), base.activity,
                           run.name + "/baseline");
        expectSameTrace(run.traces.at("baseline"), base.trace,
                        run.name + "/baseline");
        for (std::size_t s = 0; s < options.topologies.size(); ++s) {
            const std::string name = options.topologies[s].name();
            const std::string cell = run.name + "/" + name;
            const Cell& ref = reference[w * stride + 1 + s];
            expectSameRun(run.schemes.at(name), ref.stats, cell);
            expectSameActivity(run.activity.at(name), ref.activity,
                               cell);
            EXPECT_EQ(run.statsJson.at(name), ref.statsJson) << cell;
            expectSameTrace(run.traces.at(name), ref.trace, cell);
        }
    }
}

} // namespace

TEST(ParallelRuns, ReusedWorldMatchesFreshWorlds)
{
    expectReuseMatchesFreshWorlds(MatrixOptions());
}

TEST(ParallelRuns, ReusedWorldMatchesFreshWorldsUnderFaults)
{
    MatrixOptions options;
    options.chip.faults = parseFaultSpec("pf=0.01,bh=0.005,seed=7");
    expectReuseMatchesFreshWorlds(options);
}

TEST(ParallelRuns, ReusedWorldMatchesFreshWorldsNonBlocking)
{
    MatrixOptions options;
    options.mode = QueryMode::NonBlocking;
    expectReuseMatchesFreshWorlds(options);
}

TEST(ParallelRuns, ReusedWorldMatchesFreshWorldsBatched)
{
    MatrixOptions options;
    options.batch.size = 8;
    expectReuseMatchesFreshWorlds(options);
}

namespace {

/**
 * The property fig07_speedup's figure views rely on: a matrix run on a
 * subset of the topologies gives the baseline and every shared cell
 * exactly as the full five-scheme matrix does, though the shared
 * cells run at other positions in the row.
 */
void
expectSubsetMatchesFullMatrix(MatrixOptions options)
{
    options.captureTrace = true;
    options.traceCapacity = 4096;
    const std::vector<WorkloadFactory> snort{
        makeWorkloadFactories()[3]};
    const WorkloadRun full = runWorkloadMatrix(snort, options).front();
    options.topologies = {Topology(SchemeConfig::chaTlb()),
                          Topology(SchemeConfig::coreIntegrated())};
    const WorkloadRun subset = runWorkloadMatrix(snort, options).front();
    ASSERT_EQ(subset.name, "snort");
    ASSERT_EQ(full.schemes.size(), 5u);
    ASSERT_EQ(subset.schemes.size(), 2u);

    expectSameBaseline(subset.baseline, full.baseline);
    expectSameActivity(subset.activity.at("baseline"),
                       full.activity.at("baseline"), "baseline");
    expectSameTrace(subset.traces.at("baseline"),
                    full.traces.at("baseline"), "baseline");
    for (const auto& [name, stats] : subset.schemes) {
        expectSameRun(stats, full.schemes.at(name), name);
        expectSameActivity(subset.activity.at(name),
                           full.activity.at(name), name);
        expectSameTrace(subset.traces.at(name), full.traces.at(name),
                        name);
    }
}

} // namespace

TEST(ParallelRuns, SubsetMatrixMatchesFullMatrix)
{
    expectSubsetMatchesFullMatrix(MatrixOptions());
}

TEST(ParallelRuns, SubsetMatrixMatchesFullMatrixUnderFaults)
{
    MatrixOptions options;
    options.chip.faults =
        parseFaultSpec("pf=0.03,bh=0.01,fw=0.01,flush=20000");
    expectSubsetMatchesFullMatrix(options);
}

TEST(ParallelRuns, HostPerfFieldsPopulated)
{
    const auto runs = runWorkloadMatrix(testFactories(), testMatrix(2));
    for (const WorkloadRun& run : runs) {
        EXPECT_GE(run.hostWallMs, 0.0);
        // One wall-time sample for the baseline plus one per scheme.
        EXPECT_EQ(run.cellWallMs.size(),
                  1 + SchemeConfig::allSchemes().size());
        EXPECT_TRUE(run.cellWallMs.count("baseline"));
    }
}

namespace {

/** What a runner cell leaves behind besides its trace. */
struct Outcome
{
    QeiRunStats stats;
    ChipActivity activity;
    double peakLink = 0.0;
    double meanLink = 0.0;
    std::string statsJson;
};

/**
 * One cell's experiment; @p gap is the row's calibrated service gap,
 * and a body that passes @p statsJson to DriverConfig::captureStats
 * has its stats dump compared too.
 */
using Body = std::function<QeiRunStats(World&, const PreparedRow&,
                                       double gap, std::string* statsJson)>;

Outcome
runBody(const Body& body, World& world, const PreparedRow& row,
        double gap)
{
    Outcome out;
    out.stats = body(world, row, gap, &out.statsJson);
    out.activity = ChipActivity::capture(world.hierarchy);
    out.peakLink = world.hierarchy.mesh().peakLinkUtilisation();
    out.meanLink = world.hierarchy.mesh().meanLinkUtilisation();
    return out;
}

/**
 * Run @p cells on one @p row through a serial Sweep — so every cell
 * runs on a World that already ran the prologue (a baseline and a
 * closed-loop calibration, as abl_qst_size and abl_open_loop do) and
 * the cells before it — and check each against the same cell on a
 * fresh World: run stats, activity, mesh utilisation, stats dump and
 * the trace buffer must all be identical. Returns the reused cells'
 * outcomes.
 */
std::vector<Outcome>
expectSweepMatchesFreshWorlds(
    const SweepRow& row,
    const std::vector<std::pair<std::string, Body>>& cells)
{
    constexpr std::size_t kCapacity = 4096; // wraps: tails compared
    Sweep<Outcome, double> sweep;
    sweep.prologue([](World& world, const PreparedRow& prepared) {
        (void)runBaseline(world, prepared.prepared);
        return calibrateServiceGap(world, prepared);
    });
    const std::size_t r = sweep.row(row);
    for (const auto& [label, body] : cells) {
        sweep.cell(r, label,
                   [body = body](World& world, const PreparedRow& prepared,
                                 const double& gap) {
                       return runBody(body, world, prepared, gap);
                   });
    }
    const std::vector<Outcome> reused = sweep.run(1, true, kCapacity);

    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::string& label = cells[c].first;
        World world(row.seed, row.chip);
        const PreparedRow prepared = row.make(world);
        world.traceSink.enable(kCapacity);
        const Outcome fresh = runBody(cells[c].second, world, prepared,
                                      sweep.prologueOf(r));
        expectSameRun(reused[c].stats, fresh.stats, label);
        expectSameActivity(reused[c].activity, fresh.activity, label);
        EXPECT_DOUBLE_EQ(reused[c].peakLink, fresh.peakLink) << label;
        EXPECT_DOUBLE_EQ(reused[c].meanLink, fresh.meanLink) << label;
        EXPECT_EQ(reused[c].statsJson, fresh.statsJson) << label;
        expectSameTrace(sweep.trace(c), world.traceSink.drain(), label);
    }
    return reused;
}

SweepRow
smallRow(std::size_t workload, std::size_t queries)
{
    return workloadRow(makeWorkloadFactories()[workload], queries, 42,
                       ChipConfig{});
}

Body
configBody(DriverConfig config)
{
    return [config](World& world, const PreparedRow& row, double,
                    std::string* statsJson) {
        return runQei(world, row.prepared,
                      DriverConfig(config).captureStats(statsJson));
    };
}

} // namespace

TEST(SweepReuse, PoissonOpenLoopMatchesFreshWorlds)
{
    std::vector<std::pair<std::string, Body>> cells;
    for (const int load : {30, 90}) {
        cells.emplace_back(
            "load-" + std::to_string(load),
            [load](World& world, const PreparedRow& row, double gap,
                   std::string* statsJson) {
                return runQei(
                    world, row.prepared,
                    DriverConfig(SchemeConfig::coreIntegrated())
                        .withTraffic(
                            std::make_shared<traffic::PoissonOpenLoop>(
                                gap * 100.0 / load, 1000 + load))
                        .captureStats(statsJson));
            });
    }
    expectSweepMatchesFreshWorlds(smallRow(0, 200), cells);
}

TEST(SweepReuse, AdaptiveAdmissionWithDegradationMatchesFreshWorlds)
{
    // abl_overload's shape: four Poisson tenants at 2x the service
    // rate under Adaptive shedding that degrades to the core.
    const Body overload = [](World& world, const PreparedRow& row,
                             double gap, std::string* statsJson) {
        std::vector<traffic::TenantMix::Stream> streams;
        for (std::uint64_t t = 0; t < 4; ++t) {
            streams.push_back(
                {std::make_shared<traffic::PoissonOpenLoop>(gap * 2.0,
                                                            100 + t),
                 1.0});
        }
        AdmissionConfig adm;
        adm.policy = AdmissionPolicy::Adaptive;
        adm.degradeToCore = true;
        adm.sloP99 = 4.0 * gap;
        adm.window = 32;
        adm.minSamples = 8;
        SchemeConfig scheme = SchemeConfig::coreIntegrated();
        scheme.tenantQuota.share = TenantShare::Weighted;
        return runQei(
            world, row.prepared,
            DriverConfig(scheme)
                .withTraffic(std::make_shared<traffic::TenantMix>(
                    std::move(streams)))
                .withAdmission(adm)
                .captureStats(statsJson));
    };
    expectSweepMatchesFreshWorlds(smallRow(0, 240),
                                  {{"adaptive-a", overload},
                                   {"adaptive-b", overload}});
}

TEST(SweepReuse, MultiCoreMatchesFreshWorlds)
{
    std::vector<std::pair<std::string, Body>> cells;
    for (const SchemeConfig& scheme :
         {SchemeConfig::chaTlb(), SchemeConfig::deviceDirect()}) {
        cells.emplace_back(scheme.name() + "/4-cores",
                           configBody(DriverConfig(scheme).withCores(4)));
    }
    expectSweepMatchesFreshWorlds(smallRow(1, 200), cells);
}

TEST(SweepReuse, NonBlockingFloodMatchesFreshWorldsMeshIncluded)
{
    // abl_noc_hotspot's cell; its peak/mean link utilisation is only
    // right if resetTiming() clears the previous cell's NoC traffic.
    std::vector<std::pair<std::string, Body>> cells;
    for (const SchemeConfig& scheme :
         {SchemeConfig::deviceDirect(), SchemeConfig::chaTlb()}) {
        cells.emplace_back(scheme.name(),
                           configBody(DriverConfig(scheme)
                                          .withMode(QueryMode::NonBlocking)
                                          .withPollBatch(120)));
    }
    expectSweepMatchesFreshWorlds(smallRow(1, 300), cells);
}

TEST(SweepReuse, PlannerUnionAndShardedBatchMatchFreshWorlds)
{
    const Body plannerMix = [](World& world, const PreparedRow& row,
                               double, std::string* statsJson) {
        const PlannerConfig cfg =
            PlannerConfig::mixed(row.kept<MixedTrace>().classes);
        return runQei(world, row.prepared,
                      DriverConfig(plannerTopology(cfg))
                          .withPlanner(cfg)
                          .captureStats(statsJson));
    };
    expectSweepMatchesFreshWorlds(
        mixedTraceRow(100, ChipConfig{}),
        {{"mixed/CHA-TLB", configBody(SchemeConfig::chaTlb())},
         {"mixed/planner-mix", plannerMix}});

    const PlannerConfig shard = PlannerConfig::shard("dpdk", 8, true);
    expectSweepMatchesFreshWorlds(
        smallRow(0, 200),
        {{"dpdk/shard8+batch8",
          configBody(DriverConfig(plannerTopology(shard))
                         .withPlanner(shard)
                         .withMode(QueryMode::NonBlocking)
                         .withBatch(BatchConfig{
                             8, BatchReorder::ByKeyLocality, true}))}});
}

TEST(ParallelRuns, ReusedWorldMatchesFreshWorldsUnderCostPlanner)
{
    // Every paper topology under each workload's cost-model planner,
    // which core-executes where the deployed family prices above the
    // software walk (Device-indirect on rocksdb and snort).
    const auto factories = makeWorkloadFactories();
    std::uint64_t coreExecutes = 0;
    for (std::size_t w = 0; w < factories.size(); ++w) {
        const std::unique_ptr<Workload> workload = factories[w]();
        std::vector<std::pair<std::string, Body>> cells;
        for (const Topology& topo : Topology::allPaper()) {
            cells.emplace_back(
                workload->name() + "/" + topo.name(),
                configBody(DriverConfig(topo).withPlanner(
                    PlannerConfig::cost(workload->name()))));
        }
        const std::size_t queries =
            std::min<std::size_t>(300, workload->defaultQueries());
        for (const Outcome& cell :
             expectSweepMatchesFreshWorlds(smallRow(w, queries), cells)) {
            // The dump compared above holds the planner's counters.
            EXPECT_NE(cell.statsJson.find("system.planner.core_executes"),
                      std::string::npos);
            coreExecutes += cell.stats.plannerCoreExecutes;
        }
    }
    // The cost model really kept some queries on the core.
    EXPECT_GT(coreExecutes, 0u);
}

TEST(SweepReuse, SmallQstMatchesFreshWorlds)
{
    SchemeConfig scheme = SchemeConfig::coreIntegrated();
    scheme.qstEntries = 2;
    expectSweepMatchesFreshWorlds(smallRow(1, 200),
                                  {{"qst-2", configBody(scheme)}});
}

TEST(SweepScheduling, ResultsAndBuildCountsIndependentOfThreads)
{
    // Three rows of 1, 3 and 6 cells, so workers must switch rows.
    const std::vector<std::size_t> cellsPerRow{1, 3, 6};
    struct Tagged
    {
        std::size_t row;
        std::shared_ptr<const void> workload;
    };
    struct Counts
    {
        std::vector<std::atomic<int>> builds, prologues;
        explicit Counts(std::size_t n) : builds(n), prologues(n) {}
    };
    const std::vector<Topology> topologies = Topology::allPaper();

    auto runAt = [&](int threads, Counts& counts) {
        Sweep<QeiRunStats, std::uint64_t> sweep;
        sweep.prologue([&](World&, const PreparedRow& row) {
            ++counts.prologues[row.kept<Tagged>().row];
            return std::uint64_t{row.prepared.jobs.size()};
        });
        for (std::size_t r = 0; r < cellsPerRow.size(); ++r) {
            const SweepRow base = smallRow(r % 2, 60);
            SweepRow row = base;
            row.seed = 42 + r;
            row.make = [&, r, base](World& world) {
                ++counts.builds[r];
                PreparedRow prepared = base.make(world);
                prepared.keep = std::make_shared<Tagged>(
                    Tagged{r, std::move(prepared.keep)});
                return prepared;
            };
            const std::size_t id = sweep.row(row);
            for (std::size_t c = 0; c < cellsPerRow[r]; ++c) {
                sweep.cell(id, std::to_string(r) + "/" + std::to_string(c),
                           DriverConfig(topologies[c % topologies.size()])
                               .withMode(c >= topologies.size()
                                             ? QueryMode::NonBlocking
                                             : QueryMode::Blocking));
            }
        }
        return sweep.run(threads);
    };

    Counts serialCounts(cellsPerRow.size());
    const std::vector<QeiRunStats> serial = runAt(1, serialCounts);
    for (std::size_t r = 0; r < cellsPerRow.size(); ++r) {
        EXPECT_EQ(serialCounts.builds[r], 1) << "row " << r;
        EXPECT_EQ(serialCounts.prologues[r], 1) << "row " << r;
    }
    for (const int threads : {3, 8}) {
        Counts counts(cellsPerRow.size());
        const std::vector<QeiRunStats> parallel = runAt(threads, counts);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t c = 0; c < serial.size(); ++c) {
            expectSameRun(parallel[c], serial[c],
                          fmt("cell {} at {} threads", c, threads));
        }
        for (std::size_t r = 0; r < cellsPerRow.size(); ++r) {
            EXPECT_GE(counts.builds[r], 1) << "row " << r;
            EXPECT_LE(counts.builds[r],
                      std::min<int>(threads,
                                    static_cast<int>(cellsPerRow[r])))
                << "row " << r << " at " << threads << " threads";
            EXPECT_EQ(counts.prologues[r], 1)
                << "row " << r << " at " << threads << " threads";
        }
    }
}
