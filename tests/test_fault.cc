// Robustness subsystem tests: fault-spec parsing, deterministic
// injection, daemon-event clock semantics, watchdog livelock
// detection, the software-fallback recovery invariant, and the strict
// bench argument parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "ds/chained_hash.hh"
#include "fault/fault_config.hh"
#include "fault/fault_injector.hh"
#include "sim/event_queue.hh"
#include "sim/watchdog.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

// ---------------------------------------------------------------
// Fault-spec grammar
// ---------------------------------------------------------------

TEST(FaultSpec, ParsesEveryKey)
{
    const FaultConfig c = parseFaultSpec(
        "pf=0.05,bh=0.01,fw=0.02,flush=20000,qst=4,seed=7,"
        "epoch=5000,strikes=3,pf@3,bh@9,fw@11");
    EXPECT_DOUBLE_EQ(c.pageFaultRate, 0.05);
    EXPECT_DOUBLE_EQ(c.badHeaderRate, 0.01);
    EXPECT_DOUBLE_EQ(c.firmwareFaultRate, 0.02);
    EXPECT_EQ(c.flushPeriod, 20000u);
    EXPECT_EQ(c.qstEntriesOverride, 4);
    EXPECT_EQ(c.seed, 7u);
    EXPECT_EQ(c.watchdogEpoch, 5000u);
    EXPECT_EQ(c.watchdogStrikes, 3);
    ASSERT_EQ(c.pageFaultQueries.size(), 1u);
    EXPECT_EQ(c.pageFaultQueries[0], 3u);
    ASSERT_EQ(c.badHeaderQueries.size(), 1u);
    EXPECT_EQ(c.badHeaderQueries[0], 9u);
    ASSERT_EQ(c.firmwareFaultQueries.size(), 1u);
    EXPECT_EQ(c.firmwareFaultQueries[0], 11u);
    EXPECT_TRUE(c.any());
}

TEST(FaultSpec, EmptySpecDisablesEverything)
{
    const FaultConfig c = parseFaultSpec("");
    EXPECT_FALSE(c.any());
    // Watchdog parameters alone don't make a run "faulted".
    const FaultConfig d = parseFaultSpec("epoch=1000,strikes=2");
    EXPECT_FALSE(d.any());
}

TEST(FaultSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_EXIT(parseFaultSpec("zz=1"),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(parseFaultSpec("pf=1.5"),
                ::testing::ExitedWithCode(1), "rate in");
    EXPECT_EXIT(parseFaultSpec("flush"),
                ::testing::ExitedWithCode(1), "not key=value");
    EXPECT_EXIT(parseFaultSpec("xy@4"),
                ::testing::ExitedWithCode(1), "targeted fault");
    EXPECT_EXIT(parseFaultSpec("epoch=0"),
                ::testing::ExitedWithCode(1), "epoch");
}

TEST(FaultSpec, DescribeRoundsTrip)
{
    EXPECT_EQ(describeFaults(FaultConfig{}), "none");
    const std::string text =
        describeFaults(parseFaultSpec("pf=0.05,flush=200,qst=2"));
    EXPECT_NE(text.find("pf=0.050"), std::string::npos);
    EXPECT_NE(text.find("flush=200"), std::string::npos);
    EXPECT_NE(text.find("qst=2"), std::string::npos);
}

// ---------------------------------------------------------------
// Deterministic injection decisions
// ---------------------------------------------------------------

TEST(FaultInjectorTest, DecisionsArePureInSeedAndQueryId)
{
    const FaultConfig config =
        parseFaultSpec("pf=0.05,bh=0.03,fw=0.02,seed=123");
    FaultInjector a(config);
    FaultInjector b(config);
    int faulted = 0;
    for (std::uint64_t q = 0; q < 5000; ++q) {
        EXPECT_EQ(a.queryFault(q), b.queryFault(q)) << "query " << q;
        faulted += a.queryFault(q) != FaultKind::None;
    }
    // 10% combined rate over 5000 draws: a deterministic count, but
    // it must land near the configured rate.
    EXPECT_GT(faulted, 250);
    EXPECT_LT(faulted, 1000);

    // A different seed must reshuffle which queries fault.
    FaultInjector c(parseFaultSpec("pf=0.05,bh=0.03,fw=0.02,seed=124"));
    int differs = 0;
    for (std::uint64_t q = 0; q < 5000; ++q)
        differs += a.queryFault(q) != c.queryFault(q);
    EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, TargetedListsWinOverRates)
{
    FaultInjector inj(parseFaultSpec("pf@5,bh@6,fw@7"));
    EXPECT_EQ(inj.queryFault(5), FaultKind::PageFault);
    EXPECT_EQ(inj.queryFault(6), FaultKind::BadHeader);
    EXPECT_EQ(inj.queryFault(7), FaultKind::FirmwareFault);
    EXPECT_EQ(inj.queryFault(4), FaultKind::None);
    EXPECT_EQ(inj.queryFault(8), FaultKind::None);
}

TEST(FaultInjectorTest, UnitRatePartitionsEveryQuery)
{
    FaultInjector inj(parseFaultSpec("pf=0.4,bh=0.3,fw=0.3"));
    int pf = 0, bh = 0, fw = 0;
    for (std::uint64_t q = 0; q < 2000; ++q) {
        switch (inj.queryFault(q)) {
          case FaultKind::PageFault: ++pf; break;
          case FaultKind::BadHeader: ++bh; break;
          case FaultKind::FirmwareFault: ++fw; break;
          case FaultKind::None:
            FAIL() << "total rate 1.0 left query " << q << " unfaulted";
        }
    }
    EXPECT_GT(pf, 0);
    EXPECT_GT(bh, 0);
    EXPECT_GT(fw, 0);
}

// ---------------------------------------------------------------
// Daemon events: housekeeping must not drag the simulated clock
// ---------------------------------------------------------------

TEST(DaemonEvents, TrailingDaemonDoesNotAdvanceNow)
{
    EventQueue q;
    bool realRan = false;
    bool daemonRan = false;
    q.schedule(10, [&] { realRan = true; });
    q.scheduleDaemon(500, [&] { daemonRan = true; });
    EXPECT_EQ(q.daemons(), 1u);
    EXPECT_EQ(q.pendingWork(), 1u);
    q.run();
    // The daemon executed (no callback may outlive the run region)
    // but the observable clock stopped at the last real event.
    EXPECT_TRUE(realRan);
    EXPECT_TRUE(daemonRan);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.daemons(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(DaemonEvents, DaemonRearmsWhileRealWorkPending)
{
    EventQueue q;
    int fires = 0;
    // Periodic daemon that follows the contract: re-arm only while
    // real work is pending.
    std::function<void()> tick = [&] {
        ++fires;
        if (q.pendingWork() > 0)
            q.scheduleDaemon(5, [&] { tick(); });
    };
    q.scheduleDaemon(5, [&] { tick(); });
    for (Cycles at : {Cycles{3}, Cycles{8}, Cycles{13}})
        q.scheduleAt(at, [] {});
    q.run();
    EXPECT_GE(fires, 2);
    EXPECT_EQ(q.now(), 13u);
    EXPECT_EQ(q.daemons(), 0u);
}

// ---------------------------------------------------------------
// Forward-progress watchdog
// ---------------------------------------------------------------

/** A retry storm: an event that re-schedules itself forever without
 *  ever retiring a query. */
struct Spinner
{
    EventQueue& q;
    sim::Watchdog* dog = nullptr;
    int retire = 0; ///< calls noteProgress() this many times, then not
    void
    pump()
    {
        if (dog != nullptr && retire > 0) {
            --retire;
            dog->noteProgress();
        }
        q.schedule(10, [this] { pump(); });
    }
};

TEST(WatchdogDeathTest, PanicsOnLivelock)
{
    EventQueue q;
    sim::Watchdog dog(q, {100, 2});
    dog.setDump([] { return std::string("spinner state"); });
    dog.arm();
    Spinner spin{q};
    spin.pump();
    EXPECT_DEATH(q.run(), "watchdog: no query retired");
}

TEST(WatchdogTest, QuietWhileProgressIsMade)
{
    EventQueue q;
    sim::Watchdog dog(q, {100, 2});
    dog.arm();
    EXPECT_TRUE(dog.armed());
    // 60 self-rescheduling steps, each reporting progress; the run
    // spans ~600 cycles = several epochs, none of them silent.
    struct Stepper
    {
        EventQueue& q;
        sim::Watchdog& dog;
        int left;
        void
        step()
        {
            dog.noteProgress();
            if (--left > 0)
                q.schedule(10, [this] { step(); });
        }
    };
    Stepper s{q, dog, 60};
    q.schedule(10, [&] { s.step(); });
    q.run();
    EXPECT_GE(dog.epochs(), 1u);
    EXPECT_EQ(dog.silentEpochs(), 0u);
    // The daemon stood down once real work drained, and its trailing
    // epoch check did not drag the clock.
    EXPECT_FALSE(dog.armed());
    EXPECT_EQ(q.now(), 600u);
}

// ---------------------------------------------------------------
// End-to-end recovery invariant
// ---------------------------------------------------------------

/** Build the dpdk workload fresh and run it under @p spec. */
QeiRunStats
runFaulted(const char* spec, QueryMode mode, std::size_t queries = 150)
{
    ChipConfig chip;
    chip.faults =
        spec[0] != '\0' ? parseFaultSpec(spec) : FaultConfig{};
    std::unique_ptr<Workload> workload = makeWorkloadFactories()[0]();
    World world(42, chip);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, queries);
    return runQei(world, prepared, DriverConfig(SchemeConfig::coreIntegrated()).withMode(mode));
}

TEST(FaultRecovery, BlockingResultsBitIdenticalUnderFaults)
{
    const QeiRunStats clean = runFaulted("", QueryMode::Blocking);
    const QeiRunStats faulted =
        runFaulted("pf=0.06,bh=0.03,fw=0.03,seed=5",
                   QueryMode::Blocking);
    EXPECT_EQ(clean.mismatches, 0u);
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
    EXPECT_GT(faulted.faultsInjected, 0u);
    EXPECT_EQ(faulted.swFallbacks, faulted.faultsInjected);
    EXPECT_GT(faulted.swFallbackCycles, 0u);
    EXPECT_GT(faulted.cycles, clean.cycles);
}

TEST(FaultRecovery, NonBlockingSurvivesCombinedMix)
{
    const QeiRunStats clean = runFaulted("", QueryMode::NonBlocking);
    const QeiRunStats faulted = runFaulted(
        "pf=0.05,flush=1200,qst=4,seed=5", QueryMode::NonBlocking);
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
    EXPECT_GT(faulted.qstBackoffs, 0u)
        << "a 4-entry QST under 32-deep NB pressure must back off";
}

TEST(FaultRecovery, TargetedFaultsHitExactlyTheListedQueries)
{
    const QeiRunStats clean = runFaulted("", QueryMode::Blocking);
    const QeiRunStats faulted =
        runFaulted("pf@0,bh@1,fw@2", QueryMode::Blocking);
    EXPECT_EQ(faulted.faultsInjected, 3u);
    EXPECT_EQ(faulted.swFallbacks, 3u);
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
}

TEST(FaultRecovery, InjectedFlushForcesRedo)
{
    const QeiRunStats clean = runFaulted("", QueryMode::Blocking);
    const QeiRunStats faulted =
        runFaulted("flush=800", QueryMode::Blocking);
    EXPECT_GT(faulted.faultFlushes, 0u);
    EXPECT_GT(faulted.swFallbacks, 0u)
        << "flushed in-flight queries must be redone in software";
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
}

TEST(FaultRecovery, WithoutFallbackFaultsSurfaceAsExceptions)
{
    // Bare hardware: no software view of the queries is registered,
    // so an injected fault must surface as a delivered exception and
    // a functional mismatch — exactly what setSoftwareFallback() is
    // for.
    ChipConfig chip;
    chip.faults = parseFaultSpec("pf@0,pf@1,pf@2,pf@3");
    World world(7, chip);
    Rng rng(3);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 100; ++i)
        items.emplace_back(randomKey(rng, 16), 4000 + i);
    SimChainedHash table(world.vm, items, 64);
    Prepared prep;
    for (int i = 0; i < 20; ++i) {
        const Key& key = items[rng.below(items.size())].first;
        QueryTrace trace = table.query(key);
        QueryJob job;
        job.headerAddr = table.headerAddr();
        job.keyAddr = table.stageKey(key);
        job.resultAddr = world.vm.alloc(16, 16);
        job.expectFound = trace.found;
        job.expectValue = trace.resultValue;
        prep.jobs.push_back(job);
        prep.traces.push_back(std::move(trace));
    }
    prep.profile.nonQueryInstrPerOp = 20;

    world.resetTiming();
    const DriverConfig config(SchemeConfig::coreIntegrated());
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware, config.topology);
    const QeiRunStats stats =
        drive(system, prep.jobs, prep.profile, config);
    EXPECT_EQ(stats.faultsInjected, 4u);
    EXPECT_EQ(stats.swFallbacks, 0u);
    EXPECT_GE(stats.exceptions, 4u);
    EXPECT_GE(stats.mismatches, 1u);
}

TEST(FaultRecovery, MatrixDeterministicAcrossThreadsUnderFaults)
{
    std::vector<WorkloadFactory> factories;
    factories.push_back(makeWorkloadFactories()[0]);

    const auto runAt = [&factories](int threads) {
        bench::MatrixOptions options;
        options.chip.faults =
            parseFaultSpec("pf=0.05,seed=9,flush=3000");
        options.queries = 120;
        options.topologies = {SchemeConfig::coreIntegrated()};
        options.threads = threads;
        return bench::runWorkloadMatrix(factories, options);
    };
    const std::vector<bench::WorkloadRun> serial = runAt(1);
    const std::vector<bench::WorkloadRun> parallel = runAt(8);
    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(parallel.size(), 1u);
    const std::string scheme = SchemeConfig::coreIntegrated().name();
    const QeiRunStats& a = serial[0].schemes.at(scheme);
    const QeiRunStats& b = parallel[0].schemes.at(scheme);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.resultChecksum, b.resultChecksum);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.swFallbacks, b.swFallbacks);
    EXPECT_GT(a.faultsInjected, 0u);
}

// ---------------------------------------------------------------
// QST bookkeeping the recovery path leans on
// ---------------------------------------------------------------

TEST(QstTest, OccupiedCounterTracksActiveIds)
{
    QueryStateTable qst(8);
    Rng rng(99);
    std::vector<int> held;
    for (int step = 0; step < 500; ++step) {
        if (!held.empty() && (qst.full() || rng.below(2) == 0)) {
            const std::size_t pick = rng.below(held.size());
            qst.release(held[pick]);
            held.erase(held.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        } else {
            const int id = qst.allocate();
            ASSERT_GE(id, 0);
            held.push_back(id);
        }
        EXPECT_EQ(qst.occupied(), qst.activeIds().size());
        EXPECT_EQ(qst.occupied(), held.size());
    }
}

TEST(QstTest, ReleaseBumpsSlotEpoch)
{
    QueryStateTable qst(1);
    const int id = qst.allocate();
    ASSERT_EQ(id, 0);
    const std::uint32_t before = qst.at(id).epoch;
    qst.release(id);
    EXPECT_EQ(qst.at(id).epoch, before + 1);
    // Reallocation keeps the bumped epoch, so stale in-flight events
    // scheduled against the old occupant can never touch the new one.
    ASSERT_EQ(qst.allocate(), 0);
    EXPECT_EQ(qst.at(id).epoch, before + 1);
}

// ---------------------------------------------------------------
// Strict bench argument parsing
// ---------------------------------------------------------------

bench::BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "harness");
    std::vector<char*> argv;
    argv.reserve(args.size());
    for (std::string& arg : args)
        argv.push_back(arg.data());
    return bench::parseBenchArgs(static_cast<int>(argv.size()),
                                 argv.data());
}

TEST(BenchArgsDeathTest, UnknownFlagIsAUsageError)
{
    EXPECT_EXIT(parseArgs({"--bogus"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(parseArgs({"--jsonn", "x"}),
                ::testing::ExitedWithCode(2), "unknown option");
}

TEST(BenchArgsDeathTest, MissingOperandIsAUsageError)
{
    EXPECT_EXIT(parseArgs({"--json"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(parseArgs({"--threads"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(parseArgs({"--faults"}),
                ::testing::ExitedWithCode(2), "usage");
}

TEST(BenchArgsDeathTest, BadFaultSpecDiesBeforeTheRun)
{
    EXPECT_EXIT(parseArgs({"--faults", "zz=1"}),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(BenchArgsDeathTest, MalformedQueryCapIsAUsageError)
{
    for (const std::vector<std::string>& args :
         std::vector<std::vector<std::string>>{
             {"foo"}, {"19x"}, {"0"}, {"-5"}, {""}, {"12", "13"},
             {"99999999999999999999999"}}) {
        EXPECT_EXIT(bench::parseQueryCap(parseArgs(args), "harness"),
                    ::testing::ExitedWithCode(2), "usage")
            << args.front();
    }
}

TEST(BenchArgs, QueryCapIsOnePositiveCount)
{
    EXPECT_EQ(bench::parseQueryCap(parseArgs({}), "harness"), 0u);
    EXPECT_EQ(bench::parseQueryCap(parseArgs({"192", "--threads", "2"}),
                                   "harness"),
              192u);
    EXPECT_EQ(bench::capQueries(1536, 192), 192u);
    EXPECT_EQ(bench::capQueries(256, 512), 256u);
    EXPECT_EQ(bench::capQueries(256, 0), 256u);
}

TEST(BenchArgs, CollectsPositionalsAndFlags)
{
    const bench::BenchOptions options = parseArgs(
        {"dpdk", "--validate", "--threads", "2", "--json=/tmp/x.json",
         "snort"});
    EXPECT_TRUE(options.validate);
    EXPECT_EQ(options.threads, 2);
    EXPECT_EQ(options.jsonPath, "/tmp/x.json");
    ASSERT_EQ(options.positional.size(), 2u);
    EXPECT_EQ(options.positional[0], "dpdk");
    EXPECT_EQ(options.positional[1], "snort");
}

} // namespace
