// Overload-resilience layer tests: the admission controller's policy
// state machines, the tenant-quota arithmetic, the new traffic
// sources (Diurnal / TraceReplay / TenantMix), and the Driver's
// serving path — its strict opt-in (None + single tenant keeps the
// legacy artifacts byte-identical), its determinism across host
// threads, sustained-saturation behaviour (QUERY_NB backoff, no
// watchdog false positive during long shed intervals), and the
// shed x fault-injection invariant: a shed query never consumes a
// fault decision, so the admitted set's outcome is bit-stable whether
// shed work is dropped or degraded.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/thread_pool.hh"
#include "fault/fault_config.hh"
#include "qei/admission.hh"
#include "traffic/traffic.hh"
#include "workloads/dpdk_fib.hh"
#include "workloads/workload.hh"

using namespace qei;
using traffic::Arrival;
using traffic::Bursty;
using traffic::Diurnal;
using traffic::PoissonOpenLoop;
using traffic::TenantMix;
using traffic::TraceReplay;

namespace {

std::vector<Cycles>
ticksOf(const std::vector<Arrival>& arrivals)
{
    std::vector<Cycles> ticks;
    ticks.reserve(arrivals.size());
    for (const Arrival& a : arrivals)
        ticks.push_back(a.tick);
    return ticks;
}

/** One small dpdk world per call — cheap enough for a test body. */
struct Fixture
{
    DpdkFibWorkload workload{std::size_t{2048}, std::size_t{512}};
    World world;
    Prepared prep;

    explicit Fixture(std::size_t queries = 200,
                     ChipConfig chip = ChipConfig{},
                     std::uint64_t seed = 17)
        : world(seed, chip)
    {
        workload.build(world);
        prep = workload.prepare(world, queries);
    }
};

} // namespace

// ---------------------------------------------------------------- //
// New traffic sources                                              //
// ---------------------------------------------------------------- //

TEST(Traffic, DiurnalIsDeterministicAndMonotone)
{
    Diurnal a(200.0, 0.5, 20000.0, /*seed=*/9);
    Diurnal b(200.0, 0.5, 20000.0, /*seed=*/9);
    Diurnal c(200.0, 0.5, 20000.0, /*seed=*/10);
    EXPECT_FALSE(a.closedLoop());
    const auto ta = ticksOf(a.schedule(400));
    EXPECT_EQ(ta, ticksOf(b.schedule(400)));
    EXPECT_NE(ta, ticksOf(c.schedule(400)));
    EXPECT_EQ(ta, ticksOf(a.schedule(400))); // pure function
    for (std::size_t i = 1; i < ta.size(); ++i)
        EXPECT_GE(ta[i], ta[i - 1]);
}

TEST(Traffic, DiurnalWithZeroAmplitudeIsPlainPoisson)
{
    // The envelope collapses to 1.0, so the draw sequence — and the
    // resulting timeline — matches PoissonOpenLoop at the same seed.
    Diurnal flat(300.0, 0.0, 50000.0, /*seed=*/21);
    PoissonOpenLoop poisson(300.0, /*seed=*/21);
    EXPECT_EQ(ticksOf(flat.schedule(256)),
              ticksOf(poisson.schedule(256)));
}

TEST(Traffic, DiurnalPeakIsDenserThanTrough)
{
    // With a strong envelope, more arrivals land per cycle near the
    // rate peak (first half-period) than near the trough.
    Diurnal src(100.0, 0.9, 40000.0, /*seed=*/3);
    const auto arrivals = src.schedule(600);
    std::size_t peak = 0, trough = 0;
    for (const Arrival& a : arrivals) {
        const Cycles phase = a.tick % 40000;
        if (phase < 20000)
            ++peak;
        else
            ++trough;
    }
    EXPECT_GT(peak, trough);
}

TEST(Traffic, TraceReplayReplaysAndWraps)
{
    TraceReplay src({0, 40, 90, 200}, /*tenants=*/2);
    const auto one = src.schedule(4);
    EXPECT_EQ(ticksOf(one), (std::vector<Cycles>{0, 40, 90, 200}));
    EXPECT_EQ(one[0].tenant, 0);
    EXPECT_EQ(one[1].tenant, 1);

    // Asking for more than the trace wraps it, offset by the span
    // plus one mean gap so shape and rate carry over.
    const auto two = src.schedule(8);
    const Cycles offset = 200 + std::max<Cycles>(200 / 3, 1);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(two[i].tick, one[i].tick);
        EXPECT_EQ(two[4 + i].tick, offset + one[i].tick);
    }
    for (std::size_t i = 0; i < two.size(); ++i)
        EXPECT_EQ(two[i].queryIndex, i);
}

TEST(Traffic, TenantMixTagsTenantsAndApportionsByWeight)
{
    auto make = []() {
        std::vector<TenantMix::Stream> streams;
        streams.push_back(
            {std::make_shared<Bursty>(100.0, 4.0, 1.0, /*seed=*/5),
             3.0});
        streams.push_back(
            {std::make_shared<PoissonOpenLoop>(400.0, /*seed=*/6),
             1.0});
        return TenantMix(std::move(streams));
    };
    TenantMix mix = make();
    EXPECT_EQ(mix.tenants(), 2);
    const auto arrivals = mix.schedule(200);
    ASSERT_EQ(arrivals.size(), 200u);

    // Weighted count split (3:1), every arrival tagged by stream.
    std::size_t byTenant[2] = {0, 0};
    for (const Arrival& a : arrivals) {
        ASSERT_GE(a.tenant, 0);
        ASSERT_LT(a.tenant, 2);
        ++byTenant[a.tenant];
    }
    EXPECT_EQ(byTenant[0], 150u);
    EXPECT_EQ(byTenant[1], 50u);

    // Merged by tick, query indices reassigned densely in tick order.
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i].tick, arrivals[i - 1].tick);
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i].queryIndex, i);

    // Deterministic replay (sub-sources are pure too).
    EXPECT_EQ(ticksOf(arrivals), ticksOf(make().schedule(200)));
}

TEST(Traffic, CatalogListsTheNewSources)
{
    bool diurnal = false, replay = false, mix = false;
    for (const auto& entry : traffic::catalog()) {
        diurnal = diurnal || entry->name() == "diurnal";
        replay = replay || entry->name() == "replay";
        mix = mix || entry->name() == "mix";
    }
    EXPECT_TRUE(diurnal);
    EXPECT_TRUE(replay);
    EXPECT_TRUE(mix);
}

// ---------------------------------------------------------------- //
// AdmissionController unit tests                                   //
// ---------------------------------------------------------------- //

TEST(Admission, QueueLimitTailDrops)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::QueueLimit;
    cfg.queueLimit = 4;
    AdmissionController adm(cfg);
    EXPECT_TRUE(adm.decide(0, 0, 3));
    EXPECT_FALSE(adm.decide(0, 0, 4));
    EXPECT_FALSE(adm.decide(0, 0, 9));
    EXPECT_EQ(adm.admitted(), 1u);
    EXPECT_EQ(adm.shed(), 2u);
}

TEST(Admission, TokenBucketIsPerTenantAndRefills)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::TokenBucket;
    cfg.tokensPerKCycle = 1024.0; // 1 token per cycle
    cfg.bucketDepth = 2.0;
    AdmissionController adm(cfg);
    // Fresh tenants start with a full (depth 2) bucket.
    EXPECT_TRUE(adm.decide(0, 0, 0));
    EXPECT_TRUE(adm.decide(0, 0, 0));
    EXPECT_FALSE(adm.decide(0, 0, 0)); // drained
    EXPECT_TRUE(adm.decide(1, 0, 0));  // other tenant unaffected
    // One cycle refills one token for tenant 0.
    EXPECT_TRUE(adm.decide(0, 1, 0));
    EXPECT_FALSE(adm.decide(0, 1, 0));
}

TEST(Admission, AdaptiveBreachesAndRecoversOnDrain)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::Adaptive;
    cfg.sloP99 = 100.0;
    cfg.window = 8;
    cfg.minSamples = 4;
    AdmissionController adm(cfg);
    EXPECT_TRUE(adm.decide(0, 0, 5));
    for (int i = 0; i < 4; ++i)
        adm.onAdmittedCompletion(500.0); // far past the SLO
    EXPECT_TRUE(adm.shedding());
    EXPECT_EQ(adm.sloBreaches(), 1u);
    // Still shedding while a backlog remains...
    EXPECT_FALSE(adm.decide(0, 10, 3));
    // ...but a drained queue ends the episode (without this, a shed
    // episode that outlives the backlog would never see another
    // admitted completion and would shed forever).
    EXPECT_TRUE(adm.decide(0, 20, 0));
    EXPECT_FALSE(adm.shedding());
}

TEST(Admission, TenantQuotaGuaranteedSlots)
{
    TenantQuota none;
    EXPECT_EQ(tenantGuaranteedSlots(none, 10, 0, 4), 10);

    TenantQuota hard;
    hard.share = TenantShare::Hard;
    EXPECT_EQ(tenantGuaranteedSlots(hard, 10, 0, 4), 2);
    EXPECT_EQ(tenantGuaranteedSlots(hard, 10, 3, 4), 2);
    // Every tenant keeps at least one slot, however many tenants.
    EXPECT_EQ(tenantGuaranteedSlots(hard, 10, 15, 16), 1);

    TenantQuota weighted;
    weighted.share = TenantShare::Weighted;
    weighted.weights = {3, 1};
    EXPECT_EQ(tenantGuaranteedSlots(weighted, 8, 0, 2), 6);
    EXPECT_EQ(tenantGuaranteedSlots(weighted, 8, 1, 2), 2);
    // Weights beyond the vector reuse the last entry.
    weighted.weights = {2};
    EXPECT_EQ(tenantGuaranteedSlots(weighted, 8, 3, 4), 2);
}

// ---------------------------------------------------------------- //
// Serving path through the Driver                                  //
// ---------------------------------------------------------------- //

TEST(Admission, NonePolicySingleTenantKeepsLegacyArtifacts)
{
    // The overload layer is strictly opt-in: a default (None)
    // AdmissionConfig must leave open-loop runs without tenant
    // accounting, with bit-identical results and an unchanged
    // stats-tree shape.
    auto run = [](bool explicit_default) {
        Fixture f(150);
        std::string statsJson;
        DriverConfig config(SchemeConfig::coreIntegrated());
        config
            .withTraffic(
                std::make_shared<PoissonOpenLoop>(200.0, /*seed=*/3))
            .captureStats(&statsJson);
        if (explicit_default)
            config.withAdmission(AdmissionConfig{});
        const QeiRunStats stats = runQei(f.world, f.prep, config);
        return std::make_pair(stats, statsJson);
    };
    const auto [plain, plainJson] = run(false);
    const auto [opted, optedJson] = run(true);
    EXPECT_EQ(plainJson, optedJson);
    EXPECT_EQ(plain.resultChecksum, opted.resultChecksum);
    EXPECT_EQ(plain.cycles, opted.cycles);
    // No overload-layer residue in the legacy stats tree.
    EXPECT_EQ(plainJson.find("system.admission"), std::string::npos);
    EXPECT_EQ(plainJson.find("tenant"), std::string::npos);
    EXPECT_EQ(plainJson.find("degraded"), std::string::npos);
    EXPECT_EQ(plain.admittedQueries, 0u);
    EXPECT_EQ(plain.sheddedQueries, 0u);
    EXPECT_TRUE(plain.tenants.empty());
}

TEST(Admission, PermissiveServingMatchesLegacyOutcome)
{
    // A never-shedding policy turns tenant accounting on but must
    // produce the same functional outcome as the plain open loop
    // (the digest is order-independent by construction).
    auto traffic = []() {
        return std::make_shared<PoissonOpenLoop>(150.0, /*seed=*/5);
    };
    Fixture legacy(200);
    const QeiRunStats before =
        runQei(legacy.world, legacy.prep,
               DriverConfig(SchemeConfig::coreIntegrated())
                   .withTraffic(traffic()));

    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::QueueLimit;
    cfg.queueLimit = 100000; // admits everything
    Fixture serving(200);
    const QeiRunStats after =
        runQei(serving.world, serving.prep,
               DriverConfig(SchemeConfig::coreIntegrated())
                   .withTraffic(traffic())
                   .withAdmission(cfg));

    EXPECT_EQ(after.admittedQueries, after.queries);
    EXPECT_EQ(after.sheddedQueries, 0u);
    EXPECT_EQ(after.mismatches, 0u);
    EXPECT_EQ(after.resultChecksum, before.resultChecksum);
    EXPECT_EQ(after.admittedChecksum, after.resultChecksum);
    ASSERT_EQ(after.tenants.size(), 1u);
    EXPECT_EQ(after.tenants[0].admitted, after.queries);
}

TEST(Admission, NbBackoffSurvivesSustainedQstSaturation)
{
    // A 2-entry QST under 64-deep QUERY_NB issue batches is
    // effectively never drained: the issuing core must back off
    // repeatedly, and the run must still complete correctly.
    SchemeConfig scheme = SchemeConfig::coreIntegrated();
    scheme.qstEntries = 2;
    Fixture f(300);
    const QeiRunStats stats =
        runQei(f.world, f.prep,
               DriverConfig(scheme)
                   .withMode(QueryMode::NonBlocking)
                   .withPollBatch(64));
    EXPECT_GT(stats.qstBackoffs, 0u);
    EXPECT_EQ(stats.mismatches, 0u);
    EXPECT_EQ(stats.queries, 300u);
}

TEST(Admission, WatchdogStaysQuietThroughLongShedIntervals)
{
    // 24 arrivals spaced ~1.5 watchdog epochs apart; the token bucket
    // admits the first and sheds the rest (its refill rate is far
    // too slow to ever reissue a token). For ~3.5M cycles the only
    // events are shed arrivals — without shedding counting as
    // progress, the watchdog would strike out and panic.
    std::vector<Cycles> ticks;
    for (int i = 0; i < 24; ++i)
        ticks.push_back(static_cast<Cycles>(i) * 150000);
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::TokenBucket;
    cfg.tokensPerKCycle = 1e-6;
    cfg.bucketDepth = 1.0;
    Fixture f(24);
    std::string statsJson;
    const QeiRunStats stats =
        runQei(f.world, f.prep,
               DriverConfig(SchemeConfig::coreIntegrated())
                   .withTraffic(std::make_shared<TraceReplay>(ticks))
                   .withAdmission(cfg)
                   .captureStats(&statsJson));
    EXPECT_EQ(stats.admittedQueries, 1u);
    EXPECT_EQ(stats.sheddedQueries, 23u);
    EXPECT_EQ(stats.mismatches, 0u);
    // The watchdog really was armed across many epochs.
    EXPECT_NE(statsJson.find("watchdog"), std::string::npos);
}

TEST(Admission, ServingIsDeterministicAcrossHostThreads)
{
    // The acceptance invariant: identical admitted-set and full-run
    // digests whether cells run serially or on 8 host threads.
    auto cell = [](std::size_t) {
        AdmissionConfig cfg;
        cfg.policy = AdmissionPolicy::Adaptive;
        cfg.sloP99 = 400.0;
        cfg.window = 16;
        cfg.minSamples = 4;
        cfg.degradeToCore = true;
        SchemeConfig scheme = SchemeConfig::coreIntegrated();
        scheme.tenantQuota.share = TenantShare::Weighted;
        Fixture f(250);
        const QeiRunStats stats = runQei(
            f.world, f.prep,
            DriverConfig(scheme)
                .withTraffic(std::make_shared<PoissonOpenLoop>(
                    8.0, /*seed=*/11, /*tenants=*/4))
                .withAdmission(cfg));
        return std::make_tuple(stats.admittedChecksum,
                               stats.resultChecksum,
                               stats.admittedQueries,
                               stats.sheddedQueries, stats.cycles);
    };
    const auto serial = parallelMap(1, 8, cell);
    const auto parallel = parallelMap(8, 8, cell);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]);
        EXPECT_EQ(serial[i], serial[0]); // and across repetitions
    }
    EXPECT_GT(std::get<3>(serial[0]), 0u); // the cell really sheds
}

TEST(Admission, ShedNeverConsumesAFaultDecision)
{
    // Fault decisions are a pure function of (seed, queryId); a shed
    // query must not shift them. TokenBucket decisions depend only on
    // the (tenant, tick) arrival stream — fixed by the seed — so the
    // admitted set is provably the same whether shed queries are
    // dropped or degraded, and therefore so is every fault counter:
    // degraded core execution bypasses the accelerator and consumes
    // no fault decisions.
    auto run = [](bool degrade) {
        ChipConfig chip;
        chip.faults = parseFaultSpec("pf=0.2,bh=0.05");
        AdmissionConfig cfg;
        cfg.policy = AdmissionPolicy::TokenBucket;
        cfg.tokensPerKCycle = 25.0; // ~half the offered rate
        cfg.bucketDepth = 4.0;
        cfg.degradeToCore = degrade;
        Fixture f(250, chip);
        return runQei(f.world, f.prep,
                      DriverConfig(SchemeConfig::coreIntegrated())
                          .withTraffic(std::make_shared<PoissonOpenLoop>(
                              20.0, /*seed=*/13))
                          .withAdmission(cfg));
    };
    const QeiRunStats dropped = run(false);
    const QeiRunStats degraded = run(true);
    EXPECT_GT(dropped.sheddedQueries, 0u);
    EXPECT_GT(dropped.faultsInjected, 0u);
    EXPECT_EQ(dropped.admittedChecksum, degraded.admittedChecksum);
    EXPECT_EQ(dropped.admittedQueries, degraded.admittedQueries);
    // Degraded core execution bypasses the accelerator entirely, so
    // it consumes no fault decisions: identical injection counts.
    EXPECT_EQ(dropped.faultsInjected, degraded.faultsInjected);
    EXPECT_EQ(dropped.faultFlushes, degraded.faultFlushes);
    EXPECT_EQ(degraded.degradedQueries, degraded.sheddedQueries);
    EXPECT_EQ(degraded.mismatches, 0u);
}

TEST(Admission, HardQuotaCapsPerTenantOccupancy)
{
    // Four tenants under a Hard quota on a 10-entry QST: 2 slots
    // each. Mean occupancy sampled at issue can never exceed the cap.
    SchemeConfig scheme = SchemeConfig::coreIntegrated();
    scheme.tenantQuota.share = TenantShare::Hard;
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::QueueLimit;
    cfg.queueLimit = 64;
    Fixture f(300);
    const QeiRunStats stats = runQei(
        f.world, f.prep,
        DriverConfig(scheme)
            .withTraffic(std::make_shared<Bursty>(
                4.0, 16.0, 1.0, /*seed=*/19, /*tenants=*/4))
            .withAdmission(cfg));
    ASSERT_EQ(stats.tenants.size(), 4u);
    for (const auto& t : stats.tenants) {
        EXPECT_GT(t.admitted, 0u);
        EXPECT_LE(t.occupancyMean, 2.0 + 1e-9);
    }
    EXPECT_EQ(stats.mismatches, 0u);
}
