// QeiSystem-level tests: dispatch policy per scheme, core-side issue
// constraints of QUERY_B / QUERY_NB, TLB warming, the LLC warm's fill
// order, and timing-shape invariants across schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ds/chained_hash.hh"
#include "ds/linked_list.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

struct SystemFixture : ::testing::Test
{
    SystemFixture() : world(7), rng(3)
    {
        items.clear();
        for (int i = 0; i < 200; ++i)
            items.emplace_back(randomKey(rng, 16), 4000 + i);
        table = std::make_unique<SimChainedHash>(world.vm, items, 128);
        for (int i = 0; i < 50; ++i) {
            const Key& key = items[rng.below(items.size())].first;
            QueryTrace trace = table->query(key);
            QueryJob job;
            job.headerAddr = table->headerAddr();
            job.keyAddr = table->stageKey(key);
            job.resultAddr = world.vm.alloc(16, 16);
            job.expectFound = trace.found;
            job.expectValue = trace.resultValue;
            prep.jobs.push_back(job);
            prep.traces.push_back(std::move(trace));
        }
        prep.profile.nonQueryInstrPerOp = 20;
    }

    World world;
    Rng rng;
    std::vector<std::pair<Key, std::uint64_t>> items;
    std::unique_ptr<SimChainedHash> table;
    Prepared prep;
};

} // namespace

TEST_F(SystemFixture, PerCoreDispatchUsesIssuingCoresAccelerator)
{
    world.resetTiming();
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware,
                     SchemeConfig::coreIntegrated());
    Accelerator& a0 = system.acceleratorFor(prep.jobs[0].keyAddr, 0);
    Accelerator& a5 = system.acceleratorFor(prep.jobs[0].keyAddr, 5);
    EXPECT_EQ(a0.id(), 0);
    EXPECT_EQ(a5.id(), 5);
}

TEST_F(SystemFixture, ChaDispatchDistributesByKeyLine)
{
    world.resetTiming();
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware, SchemeConfig::chaTlb());
    std::set<int> targets;
    for (const auto& job : prep.jobs)
        targets.insert(system.acceleratorFor(job.keyAddr, 0).id());
    EXPECT_GT(targets.size(), 5u) << "distribution should spread";
}

TEST_F(SystemFixture, DeviceDispatchAlwaysSingleInstance)
{
    world.resetTiming();
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware,
                     SchemeConfig::deviceDirect());
    EXPECT_EQ(system.acceleratorCount(), 1);
    for (const auto& job : prep.jobs)
        EXPECT_EQ(system.acceleratorFor(job.keyAddr, 3).id(), 0);
}

TEST_F(SystemFixture, BlockingInFlightBoundedByRobWindow)
{
    Prepared dense = prep;
    dense.profile.nonQueryInstrPerOp = 50; // window 51 -> 224/51 = 4
    const QeiRunStats stats =
        runQei(world, dense, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_LE(stats.maxInFlightObserved, 4.0);
    EXPECT_EQ(stats.mismatches, 0u);
}

TEST_F(SystemFixture, DenserQueriesAllowMoreInFlight)
{
    Prepared dense = prep;
    dense.profile.nonQueryInstrPerOp = 4;
    const QeiRunStats denseStats =
        runQei(world, dense, DriverConfig(SchemeConfig::coreIntegrated()));
    Prepared sparse = prep;
    sparse.profile.nonQueryInstrPerOp = 100;
    const QeiRunStats sparseStats =
        runQei(world, sparse, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_GT(denseStats.maxInFlightObserved,
              sparseStats.maxInFlightObserved);
}

TEST_F(SystemFixture, NonBlockingExceedsBlockingParallelism)
{
    Prepared wide = prep;
    wide.profile.nonQueryInstrPerOp = 100; // blocking would cap at 2
    const QeiRunStats blocking =
        runQei(world, wide, DriverConfig(SchemeConfig::chaTlb()).withMode(QueryMode::Blocking));
    const QeiRunStats nonBlocking =
        runQei(world, wide, DriverConfig(SchemeConfig::chaTlb()).withMode(QueryMode::NonBlocking));
    EXPECT_GT(nonBlocking.maxInFlightObserved,
              blocking.maxInFlightObserved);
}

TEST_F(SystemFixture, AllQueriesCompleteOnEveryScheme)
{
    for (const auto& scheme : SchemeConfig::allSchemes()) {
        const QeiRunStats stats = runQei(world, prep, DriverConfig(scheme));
        EXPECT_EQ(stats.queries, prep.jobs.size()) << scheme.name();
        EXPECT_EQ(stats.mismatches, 0u) << scheme.name();
        EXPECT_GT(stats.cycles, 0u) << scheme.name();
    }
}

TEST_F(SystemFixture, DeviceIndirectSlowerThanDirect)
{
    const QeiRunStats direct =
        runQei(world, prep, DriverConfig(SchemeConfig::deviceDirect()));
    const QeiRunStats indirect =
        runQei(world, prep, DriverConfig(SchemeConfig::deviceIndirect(300)));
    EXPECT_GT(indirect.cycles, direct.cycles);
}

TEST_F(SystemFixture, InterfaceLatencySweepIsMonotonic)
{
    Cycles prev = 0;
    for (Cycles lat : {50u, 300u, 1000u}) {
        const QeiRunStats stats = runQei(world, prep, DriverConfig(SchemeConfig::deviceIndirect(lat)));
        EXPECT_GT(stats.cycles, prev);
        prev = stats.cycles;
    }
}

TEST_F(SystemFixture, ChaNoTlbSlowerThanChaTlb)
{
    const QeiRunStats with =
        runQei(world, prep, DriverConfig(SchemeConfig::chaTlb()));
    const QeiRunStats without =
        runQei(world, prep, DriverConfig(SchemeConfig::chaNoTlb()));
    // The per-access MMU round trip must cost something.
    EXPECT_GE(without.cycles, with.cycles);
}

TEST_F(SystemFixture, WarmTlbsReduceCycles)
{
    // Cold run: skip the usual warmTlbs by driving QeiSystem directly.
    world.resetTiming();
    world.warmLlc();
    const DriverConfig config(SchemeConfig::chaTlb());
    QeiSystem cold(world.chip, world.events, world.hierarchy, world.vm,
                   world.firmware, config.topology);
    const QeiRunStats coldStats =
        drive(cold, prep.jobs, prep.profile, config);

    const QeiRunStats warmStats = runQei(world, prep, config);
    EXPECT_LT(warmStats.cycles, coldStats.cycles);
}

TEST(WarmLlc, FillsInAscendingVpnOrder)
{
    // An LLC of 4 sets per slice holds 1056 lines; the 32 KB of mapped
    // heap below is 512 lines plus 2048 lines of a 128 KB block past an
    // over-aligned gap, so sets overfill and the fill order decides
    // which lines stay resident.
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(8 * kPageBytes);
    vm.alloc(32 * kPageBytes, 16 * kPageBytes);
    HierarchyParams params;
    params.llcSlice.sizeBytes = 4 * 11 * kCacheLineBytes;
    MemoryHierarchy warmed(params);
    MemoryHierarchy reference(params);

    warmLlc(warmed, vm);
    std::vector<Addr> lines;
    const Addr end = VirtualMemory::kHeapBase + vm.bytesAllocated();
    for (Addr va = VirtualMemory::kHeapBase; va < end;
         va += kCacheLineBytes) {
        if (!vm.tryTranslate(va).has_value())
            continue;
        lines.push_back(vm.translate(va));
        reference.preloadLlc(lines.back());
    }

    auto residency = [&lines](MemoryHierarchy& memory) {
        std::vector<bool> resident;
        for (Addr line : lines)
            resident.push_back(
                memory.llcSlice(memory.homeSlice(line)).probe(line));
        return resident;
    };
    const std::vector<bool> expected = residency(reference);
    EXPECT_EQ(residency(warmed), expected);
    EXPECT_EQ(lines.size(), 40u * kPageBytes / kCacheLineBytes);
    EXPECT_LT(std::count(expected.begin(), expected.end(), true),
              static_cast<std::ptrdiff_t>(lines.size()));
}

TEST_F(SystemFixture, CoreInstructionsFarBelowBaseline)
{
    const CoreRunResult baseline = runBaseline(world, prep);
    const QeiRunStats qei =
        runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_LT(qei.coreInstructions, baseline.instructions / 2);
}

TEST_F(SystemFixture, SpeedupOverBaselineOnWarmLlc)
{
    const CoreRunResult baseline = runBaseline(world, prep);
    const QeiRunStats qei =
        runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_GT(speedupOf(baseline, qei), 1.0);
}
