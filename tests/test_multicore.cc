// Multi-core issue tests: the Tab. I scalability scenario — several
// cores issuing blocking queries concurrently into shared
// accelerators, memory system, and NoC.

#include <gtest/gtest.h>

#include <algorithm>

#include "ds/chained_hash.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

struct MultiHarness
{
    MultiHarness() : world(13), rng(2)
    {
        std::vector<std::pair<Key, std::uint64_t>> items;
        for (int i = 0; i < 600; ++i)
            items.emplace_back(randomKey(rng, 16), 7000 + i);
        table = std::make_unique<SimChainedHash>(world.vm, items, 256);
        prep.profile.nonQueryInstrPerOp = 15;
        for (int q = 0; q < 240; ++q) {
            const Key& key = items[rng.below(items.size())].first;
            QueryTrace t = table->query(key);
            QueryJob job;
            job.headerAddr = table->headerAddr();
            job.keyAddr = table->stageKey(key);
            job.resultAddr = world.vm.alloc(16, 16);
            job.expectFound = t.found;
            job.expectValue = t.resultValue;
            prep.jobs.push_back(job);
            prep.traces.push_back(std::move(t));
        }
    }

    QeiRunStats
    run(const SchemeConfig& scheme, int cores)
    {
        return runQei(world, prep, DriverConfig(scheme).withCores(cores));
    }

    World world;
    Rng rng;
    std::unique_ptr<SimChainedHash> table;
    Prepared prep;
};

} // namespace

TEST(MultiCore, AllQueriesCompleteCorrectly)
{
    MultiHarness h;
    for (int cores : {1, 2, 8, 24}) {
        const QeiRunStats stats =
            h.run(SchemeConfig::coreIntegrated(), cores);
        EXPECT_EQ(stats.queries, h.prep.jobs.size());
        EXPECT_EQ(stats.mismatches, 0u) << cores << " cores";
        EXPECT_EQ(stats.exceptions, 0u);
    }
}

TEST(MultiCore, ReportsInFlightPeakAcrossCores)
{
    MultiHarness h;
    const QeiRunStats one = h.run(SchemeConfig::coreIntegrated(), 1);
    const QeiRunStats eight =
        h.run(SchemeConfig::coreIntegrated(), 8);
    // The per-core ROB/LQ window for this profile.
    const CoreParams& core = h.world.chip.core;
    const int window = std::min(
        core.robEntries /
            static_cast<int>(h.prep.profile.nonQueryInstrPerOp + 1),
        core.loadQueueEntries);
    EXPECT_GT(one.maxInFlightObserved, 0.0);
    EXPECT_LE(one.maxInFlightObserved, window);
    EXPECT_GT(eight.maxInFlightObserved, one.maxInFlightObserved);
    EXPECT_LE(eight.maxInFlightObserved, 8.0 * window);
}

TEST(MultiCore, DistributedSchemesScale)
{
    MultiHarness h;
    const QeiRunStats one = h.run(SchemeConfig::coreIntegrated(), 1);
    const QeiRunStats eight =
        h.run(SchemeConfig::coreIntegrated(), 8);
    // Per-core accelerators: 8 cores must be much faster than 1.
    EXPECT_LT(eight.cycles * 3, one.cycles);
}

TEST(MultiCore, DeviceSaturatesUnderManyCores)
{
    MultiHarness h;
    const QeiRunStats coreInt8 =
        h.run(SchemeConfig::coreIntegrated(), 8);
    const QeiRunStats device8 =
        h.run(SchemeConfig::deviceDirect(), 8);
    // The shared single device stop falls behind the distributed
    // per-core accelerators at 8 issuing cores.
    EXPECT_GT(device8.cycles, coreInt8.cycles);
}

TEST(MultiCore, ChaSharedInstancesStillScale)
{
    MultiHarness h;
    const QeiRunStats one = h.run(SchemeConfig::chaTlb(), 1);
    const QeiRunStats eight = h.run(SchemeConfig::chaTlb(), 8);
    EXPECT_LT(eight.cycles * 2, one.cycles);
}

TEST(MultiCoreDeath, TooManyCoresPanics)
{
    MultiHarness h;

    EXPECT_DEATH(h.run(SchemeConfig::coreIntegrated(), 25),
                 "issuing cores");
}
