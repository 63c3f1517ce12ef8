#include <gtest/gtest.h>

#include "core/core_model.hh"
#include "vm/tlb.hh"

using namespace qei;

namespace {

struct CoreHarness
{
    CoreHarness()
        : mem(1 << 28), vm(mem),
          hierarchy(chip.memory), mmu(vm, chip.mmu)
    {
        base = vm.alloc(1 << 20, kCacheLineBytes);
    }

    /** A trace of @p n loads, dependent or independent. */
    QueryTrace
    makeTrace(int n, bool dependent, std::uint32_t instr_each = 10)
    {
        QueryTrace t;
        for (int i = 0; i < n; ++i) {
            MemTouch touch;
            // Distinct lines, same region.
            touch.vaddr =
                base + static_cast<Addr>(i) * 4 * kCacheLineBytes;
            touch.dependsOnPrev = dependent;
            touch.computeLatency = 1;
            touch.instrBefore = instr_each;
            t.touches.push_back(touch);
        }
        t.found = true;
        return t;
    }

    CoreRunResult
    run(const std::vector<QueryTrace>& traces,
        const RoiProfile& profile = {})
    {
        CoreModel model(0, chip.core, hierarchy, mmu);
        return model.runQueries(traces, profile);
    }

    ChipConfig chip;
    SimMemory mem;
    VirtualMemory vm;
    MemoryHierarchy hierarchy;
    Mmu mmu;
    Addr base = 0;
};

} // namespace

TEST(CoreModelT, CountsInstructionsAndLoads)
{
    CoreHarness h;
    RoiProfile profile;
    profile.nonQueryInstrPerOp = 20;
    const CoreRunResult r = h.run({h.makeTrace(5, true)}, profile);
    EXPECT_EQ(r.queries, 1u);
    EXPECT_EQ(r.loads, 5u);
    EXPECT_EQ(r.instructions, 20u + 5u * 11u);}

TEST(CoreModelT, DependentLoadsSerialise)
{
    CoreHarness h;
    const CoreRunResult serial = h.run({h.makeTrace(16, true)});

    CoreHarness fresh;
    const CoreRunResult parallel =
        fresh.run({fresh.makeTrace(16, false)});
    EXPECT_GT(serial.cycles, parallel.cycles * 2);}

TEST(CoreModelT, IpcNeverExceedsWidth)
{
    CoreHarness h;
    std::vector<QueryTrace> traces(20, h.makeTrace(8, false, 40));
    const CoreRunResult r = h.run(traces);
    EXPECT_LE(r.ipc(), static_cast<double>(h.chip.core.issueWidth));
    EXPECT_GT(r.ipc(), 0.0);}

TEST(CoreModelT, RobLimitsIndependentOverlap)
{
    CoreHarness h;
    // Many independent loads with huge instruction padding: the ROB
    // window (224) only covers a few, so cycles scale with loads.
    std::vector<QueryTrace> traces(4, h.makeTrace(32, false, 200));
    const CoreRunResult wide = h.run(traces);

    CoreHarness fresh;
    std::vector<QueryTrace> tight(4, fresh.makeTrace(32, false, 1));
    const CoreRunResult narrow = fresh.run(tight);
    // With less padding the window covers more loads -> fewer cycles.
    EXPECT_LT(narrow.cycles, wide.cycles);}

TEST(CoreModelT, MispredictsSerialiseAcrossQueries)
{
    CoreHarness h;
    // Two streams of two queries each; the second adds a mispredicted
    // data-dependent branch at the end of each query.
    std::vector<QueryTrace> clean(8, h.makeTrace(4, true));
    const CoreRunResult fast = h.run(clean);

    CoreHarness fresh;
    std::vector<QueryTrace> flaky(8, fresh.makeTrace(4, true));
    for (auto& t : flaky) {
        t.mispredictsAfter = 1;
        t.branchesAfter = 1;
    }
    const CoreRunResult slow = fresh.run(flaky);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_GT(slow.frontendStallCycles, fast.frontendStallCycles);}

TEST(CoreModelT, TopDownFractionsBounded)
{
    CoreHarness h;
    std::vector<QueryTrace> traces(10, h.makeTrace(8, true, 20));
    RoiProfile profile;
    profile.frontendStallPerInstr = 0.05;
    const CoreRunResult r = h.run(traces, profile);
    const int w = h.chip.core.issueWidth;
    EXPECT_GE(r.retiringFraction(w), 0.0);
    EXPECT_LE(r.retiringFraction(w), 1.0);
    EXPECT_GE(r.frontendBoundFraction(w), 0.0);
    EXPECT_GE(r.backendBoundFraction(w), 0.0);}

TEST(CoreModelT, FrontendStallSlowsRun)
{
    CoreHarness h;
    std::vector<QueryTrace> traces(10, h.makeTrace(4, true, 30));
    RoiProfile fastProfile;
    const CoreRunResult fast = h.run(traces, fastProfile);

    CoreHarness fresh;
    std::vector<QueryTrace> traces2(10, fresh.makeTrace(4, true, 30));
    RoiProfile slowProfile;
    slowProfile.frontendStallPerInstr = 0.5;
    const CoreRunResult slow = fresh.run(traces2, slowProfile);
    EXPECT_GT(slow.cycles, fast.cycles);}

TEST(CoreModelT, ComputeLatencyDelaysIssue)
{
    CoreHarness h;
    QueryTrace quick = h.makeTrace(1, false);
    quick.touches[0].computeLatency = 0;

    CoreHarness fresh;
    QueryTrace hashed = fresh.makeTrace(1, false);
    hashed.touches[0].computeLatency = 100;

    const CoreRunResult a = h.run({quick});
    const CoreRunResult b = fresh.run({hashed});
    EXPECT_GE(b.cycles, a.cycles + 90);}

TEST(CoreModelT, ResetClearsState)
{
    CoreHarness h;
    CoreModel model(0, h.chip.core, h.hierarchy, h.mmu);
    model.runQueries({h.makeTrace(4, true)}, {});
    model.reset();
    const CoreRunResult r = model.runQueries({h.makeTrace(4, true)}, {});
    EXPECT_EQ(r.queries, 1u);}
