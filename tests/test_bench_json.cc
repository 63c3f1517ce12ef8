/**
 * Golden test for the benchmark `--json` path: run a small workload
 * through the same runWorkloadMatrix -> toJson pipeline fig07_speedup
 * uses and validate the artifact schema against the in-memory results;
 * plus the co-produced view reports (BenchReport::view) a harness
 * writes next to its own artifact, and the harness command line: every
 * setting is a flag, and the environment changes nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "bench_util.hh"
#include "metrics/metrics.hh"

using namespace qei;
using namespace qei::bench;

namespace {

/** One small run shared by every test in this file. */
const WorkloadRun&
goldenRun()
{
    static const WorkloadRun run = [] {
        MatrixOptions options;
        options.queries = 400;
        options.captureStats = true;
        return runWorkloadMatrix({makeWorkloadFactories().front()},
                                 options)
            .front();
    }();
    return run;
}

/** A one-expectation suite whose verdict is PASS or FAIL. */
validate::Suite
oneCheck(const std::string& title, bool holds)
{
    validate::Suite suite;
    suite.title = title;
    suite.expectations.push_back(validate::Expectation::shape(
        "holds", "unit", "the unit check holds", holds,
        holds ? "holds" : "broken"));
    return suite;
}

Json
readArtifact(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return Json::parse(text.str());
}

/**
 * What a harness that co-produces a view does: finish its own report,
 * then the view's, and fail if either fails. @return that result.
 */
bool
finishWithView(const BenchOptions& options, bool own_holds,
               bool view_holds)
{
    BenchReport report("unit_producer", options);
    report.setValidation(oneCheck("producer", own_holds));
    const bool ok = report.finish();
    BenchReport view = report.view("unit_view");
    view.setValidation(oneCheck("view", view_holds));
    return view.finish() && ok;
}

/** parseBenchArgs over "harness" followed by @p args. */
BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "harness");
    std::vector<char*> argv;
    for (std::string& arg : args)
        argv.push_back(arg.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

/**
 * Every environment variable the harnesses once read, each set to a
 * value that would change the run (or the parsed options) if anything
 * still read it.
 */
const std::vector<std::pair<const char*, const char*>> kHostileEnv = {
    {"QEI_FAULTS", "pf=0.5,bh=0.2,flush=3000,seed=3"},
    {"QEI_PLANNER", "cost"},
    {"QEI_BENCH_THREADS", "7"},
    {"QEI_METRICS_INTERVAL", "64"},
    {"QEI_METRICS_WINDOW", "8"},
    {"QEI_METRICS_SLO", "1"},
};

void
setHostileEnvironment(bool hostile)
{
    for (const auto& [name, value] : kHostileEnv) {
        if (hostile)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
}

/**
 * A small CHA-TLB run on a World built with the default chip, sampled
 * the way `--metrics` arms it, with @p hostile variables set or unset.
 */
QeiRunStats
runUnderEnvironment(bool hostile)
{
    setHostileEnvironment(hostile);
    (void)parseArgs({"--metrics", "unused.csv"});
    auto workload = makeWorkloadFactories()[0]();
    World world(11);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, 200);
    QeiRunStats stats = runQei(
        world, prepared,
        DriverConfig(SchemeConfig::chaTlb()).withLabel("unit/env"));
    setHostileEnvironment(false);
    metrics::runtimeConfig().enabled = false;
    metrics::Recorder::global().clear();
    return stats;
}

} // namespace

TEST(BenchArgs, ThreadCountIsAutoZeroOrAPositiveCount)
{
    EXPECT_EQ(parseArgs({}).threads, 1);
    EXPECT_EQ(parseArgs({"--threads", "3"}).threads, 3);
    EXPECT_EQ(parseArgs({"--threads=12"}).threads, 12);
    EXPECT_EQ(parseArgs({"--threads", "auto"}).threads,
              ThreadPool::hardwareThreads());
    EXPECT_EQ(parseArgs({"--threads=0"}).threads,
              ThreadPool::hardwareThreads());
}

TEST(BenchArgsDeathTest, MalformedThreadCountIsAUsageError)
{
    for (const char* text : {"2x", "abc", "", "-1", "+2", " 2", "1.5",
                             "00", "99999999999", "auto2"}) {
        EXPECT_EXIT(parseArgs({"--threads", text}),
                    ::testing::ExitedWithCode(2), "usage")
            << "'" << text << "'";
        EXPECT_EXIT(parseArgs({std::string("--threads=") + text}),
                    ::testing::ExitedWithCode(2), "usage")
            << "'" << text << "'";
    }
}

TEST(BenchArgs, FaultsFlagSetsTheChip)
{
    EXPECT_EQ(parseArgs({}).chip.faults, FaultConfig{});
    const std::string spec = "pf=0.05,bh=0.01,flush=20000,seed=7";
    const FaultConfig want = parseFaultSpec(spec);
    ASSERT_TRUE(want.any());
    EXPECT_EQ(parseArgs({"--faults", spec}).chip.faults, want);
    EXPECT_EQ(parseArgs({"--faults=" + spec}).chip.faults, want);
}

TEST(BenchArgs, EnvironmentIsIgnored)
{
    setHostileEnvironment(true);
    const BenchOptions options = parseArgs({});
    setHostileEnvironment(false);
    EXPECT_EQ(options.threads, 1);
    EXPECT_FALSE(options.chip.faults.any());
    EXPECT_EQ(options.chip.faults, FaultConfig{});

    const QeiRunStats clean = runUnderEnvironment(false);
    const QeiRunStats hostile = runUnderEnvironment(true);
    EXPECT_EQ(hostile.cycles, clean.cycles);
    EXPECT_EQ(hostile.resultChecksum, clean.resultChecksum);
    EXPECT_EQ(toJson(hostile).dump(), toJson(clean).dump());
    for (const QeiRunStats* run : {&clean, &hostile}) {
        EXPECT_EQ(run->faultsInjected, 0u);
        EXPECT_EQ(run->swFallbacks, 0u);
        EXPECT_EQ(run->faultFlushes, 0u);
        EXPECT_EQ(run->plannerDecisions, 0u);
        EXPECT_EQ(run->mismatches, 0u);
    }
    if (metrics::kCompiledIn) {
        ASSERT_NE(clean.metrics, nullptr);
        ASSERT_NE(hostile.metrics, nullptr);
        EXPECT_EQ(hostile.metrics->intervalCycles,
                  metrics::SamplerConfig{}.intervalCycles);
        EXPECT_EQ(hostile.metrics->sloThresholdP99, 0.0);
        EXPECT_TRUE(hostile.metrics->sloEvents.empty());
        EXPECT_EQ(hostile.metrics->toJson().dump(),
                  clean.metrics->toJson().dump());
    }
}

TEST(BenchJson, ParseBenchArgsRecognisesJsonFlag)
{
    char prog[] = "bench";
    char flag[] = "--json";
    char path[] = "out.json";
    char* argv1[] = {prog, flag, path};
    EXPECT_EQ(parseBenchArgs(3, argv1).jsonPath, "out.json");

    char combined[] = "--json=other.json";
    char* argv2[] = {prog, combined};
    EXPECT_EQ(parseBenchArgs(2, argv2).jsonPath, "other.json");

    char* argv3[] = {prog};
    EXPECT_TRUE(parseBenchArgs(1, argv3).jsonPath.empty());
}

TEST(BenchJson, RunIsSane)
{
    const WorkloadRun& run = goldenRun();
    EXPECT_GT(run.baseline.cycles, 0u);
    EXPECT_EQ(run.baseline.queries, 400u);
    for (const auto& name : schemeNames()) {
        ASSERT_TRUE(run.schemes.count(name)) << name;
        const QeiRunStats& s = run.schemes.at(name);
        EXPECT_EQ(s.mismatches, 0u) << name;
        EXPECT_EQ(s.queries, 400u) << name;
        EXPECT_GT(run.speedup(s), 0.0) << name;
    }
}

TEST(BenchJson, WorkloadRunSchema)
{
    const Json doc = toJson(goldenRun());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("workload").asString(), goldenRun().name);

    const Json& baseline = doc.at("baseline");
    for (const char* key :
         {"cycles", "instructions", "loads", "stores", "queries",
          "backend_stall_cycles", "frontend_stall_cycles", "ipc",
          "cycles_per_query"})
        EXPECT_TRUE(baseline.contains(key)) << key;

    const Json& schemes = doc.at("schemes");
    for (const auto& name : schemeNames()) {
        const Json& s = schemes.at(name);
        for (const char* key :
             {"cycles", "queries", "core_instructions", "mismatches",
              "exceptions", "mem_accesses", "micro_ops",
              "remote_compares", "avg_qst_occupancy",
              "max_inflight_observed", "cycles_per_query", "speedup"})
            EXPECT_TRUE(s.contains(key)) << name << "." << key;
        EXPECT_EQ(s.at("mismatches").asUint(), 0u) << name;
        EXPECT_GT(s.at("speedup").asDouble(), 0.0) << name;
    }
}

TEST(BenchJson, SpeedupsMatchTableToThreeDecimals)
{
    // The printed table rounds speedups to two or three decimals; the
    // JSON carries the raw double, so it must agree with speedupOf()
    // well past that precision.
    const WorkloadRun& run = goldenRun();
    const Json doc = toJson(run);
    for (const auto& name : schemeNames()) {
        const double json =
            doc.at("schemes").at(name).at("speedup").asDouble();
        const double expected =
            speedupOf(run.baseline, run.schemes.at(name));
        EXPECT_NEAR(json, expected, 0.0005) << name;
        EXPECT_DOUBLE_EQ(json, expected) << name;
    }
}

TEST(BenchJson, CapturedStatsAreValidDottedDumps)
{
    const WorkloadRun& run = goldenRun();
    ASSERT_EQ(run.statsJson.size(), schemeNames().size());
    for (const auto& name : schemeNames()) {
        ASSERT_TRUE(run.statsJson.count(name)) << name;
        const Json dump = Json::parse(run.statsJson.at(name));
        ASSERT_TRUE(dump.isObject()) << name;
        // The component tree always roots at "system" and always
        // exposes the first accelerator and the memory hierarchy.
        EXPECT_TRUE(dump.contains("system.accel0.queries")) << name;
        EXPECT_TRUE(dump.contains("system.accel0.qst.occupancy"))
            << name;
        EXPECT_TRUE(dump.contains("system.memory.llc_hit_rate"))
            << name;

        // Completed queries summed over every accelerator must equal
        // the run's query count.
        std::uint64_t completed = 0;
        for (const auto& [path, value] : dump.items()) {
            if (path.rfind("system.accel", 0) == 0 &&
                path.size() > 8 &&
                path.compare(path.size() - 8, 8, ".queries") == 0)
                completed += value.asUint();
        }
        EXPECT_EQ(completed, run.schemes.at(name).queries) << name;
    }
}

TEST(BenchJson, HostSelfMetricsStampSimEventRateAndCellWalls)
{
    // The report must be constructed before the simulation work so
    // its sim-event baseline brackets the run.
    BenchReport report("unit_host", BenchOptions{});
    MatrixOptions options;
    options.queries = 120;
    options.topologies = {SchemeConfig::coreIntegrated()};
    const WorkloadRun run =
        runWorkloadMatrix({makeWorkloadFactories().front()}, options)
            .front();
    report.data()["run"] = toJson(run);
    ASSERT_TRUE(report.finish());

    const Json& host = report.data().at("host");
    EXPECT_GT(host.at("sim_events").asUint(), 0u);
    EXPECT_GT(host.at("sim_events_per_sec").asDouble(), 0.0);
    EXPECT_GT(host.at("wall_ms").asDouble(), 0.0);

    // Every per-cell host_wall_ms in the payload surfaces in the
    // top-level block, keyed by its dotted path.
    const Json& cells = host.at("cells");
    EXPECT_TRUE(cells.contains("run"));
    EXPECT_TRUE(cells.contains("run.baseline"));
    EXPECT_TRUE(cells.contains(
        "run.schemes." + SchemeConfig::coreIntegrated().name()));
    EXPECT_GT(cells.at("run.baseline").asDouble(), 0.0);
}

TEST(BenchJson, TableMirrorsIntoReport)
{
    TablePrinter table;
    table.header({"workload", "speedup"});
    table.row({"jvm", "3.1x"});

    BenchReport report("unit", BenchOptions{});
    report.setTable(table);
    const Json& root = report.data();
    EXPECT_EQ(root.at("bench").asString(), "unit");
    const Json& t = root.at("table");
    EXPECT_EQ(t.at("header").at(1).asString(), "speedup");
    EXPECT_EQ(t.at("rows").at(0).at(0).asString(), "jvm");
    // No --json path: finish() is a successful no-op.
    EXPECT_TRUE(report.finish());
}

TEST(BenchJson, ViewReportIsWrittenNextToItsProducer)
{
    BenchOptions options;
    options.jsonPath = ::testing::TempDir() + "BENCH_unit_producer.json";
    const std::string viewPath =
        ::testing::TempDir() + "BENCH_unit_producer.unit_view.json";
    std::remove(options.jsonPath.c_str());
    std::remove(viewPath.c_str());
    ASSERT_TRUE(finishWithView(options, true, true));

    const Json own = readArtifact(options.jsonPath);
    const Json view = readArtifact(viewPath);
    EXPECT_EQ(own.at("bench").asString(), "unit_producer");
    EXPECT_EQ(view.at("bench").asString(), "unit_view");
    EXPECT_EQ(own.at("validation").at("title").asString(), "producer");
    EXPECT_EQ(view.at("validation").at("title").asString(), "view");

    // No --json path: the view writes nothing either.
    BenchReport bare("unit_producer", BenchOptions{});
    EXPECT_FALSE(bare.view("unit_view").enabled());
}

TEST(BenchJson, FailingSuiteInEitherReportFailsTheHarness)
{
    BenchOptions options;
    options.validate = true;
    EXPECT_TRUE(finishWithView(options, true, true));
    EXPECT_FALSE(finishWithView(options, false, true));
    EXPECT_FALSE(finishWithView(options, true, false));

    // Without --validate a FAIL verdict is recorded, not enforced.
    options.validate = false;
    EXPECT_TRUE(finishWithView(options, false, false));
}

TEST(BenchJson, ViewBuiltAfterTheMatrixCountsNoSimEvents)
{
    BenchReport report("unit_producer", BenchOptions{});
    MatrixOptions options;
    options.queries = 120;
    options.topologies = {SchemeConfig::coreIntegrated()};
    const WorkloadRun run =
        runWorkloadMatrix({makeWorkloadFactories().front()}, options)
            .front();
    BenchReport view = report.view("unit_view");
    // A view may carry the producer's cells, per-cell host_wall_ms
    // included; they ran in the producer, so its host block lists none.
    BenchReport carrying = report.view("unit_view_cells");
    report.data()["run"] = toJson(run);
    view.data()["baseline"] = toJson(run.baseline);
    carrying.data()["run"] = toJson(run);
    ASSERT_TRUE(report.finish());
    ASSERT_TRUE(view.finish());
    ASSERT_TRUE(carrying.finish());
    EXPECT_GT(report.data().at("host").at("sim_events").asUint(), 0u);
    EXPECT_EQ(view.data().at("host").at("sim_events").asUint(), 0u);
    EXPECT_EQ(carrying.data().at("host").at("sim_events").asUint(), 0u);
    EXPECT_FALSE(
        report.data().at("host").at("cells").items().empty());
    EXPECT_TRUE(
        carrying.data().at("host").at("cells").items().empty());
}
