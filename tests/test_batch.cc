// QUERY_BATCH subsystem tests: QST window reservation invariants, the
// sequence-aware batch planner, end-to-end functional identity with
// the scalar path (result_checksum), batching x fault injection, and
// host-thread-count invariance of the batched experiment matrix.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "fault/fault_config.hh"
#include "qei/batch.hh"
#include "qei/driver.hh"
#include "qei/line_stage.hh"
#include "qei/qst.hh"
#include "workloads/workload.hh"

using namespace qei;
using namespace qei::bench;

namespace {

// ---------------------------------------------------------------
// The batch line-staging buffer
// ---------------------------------------------------------------

TEST(LineStage, MatchesClearWhenFullMap)
{
    // The rule the table implements, as a std::unordered_map: probe a
    // line, and on a miss clear at 256 live entries, then insert.
    std::unordered_map<Addr, Cycles> ref;
    LineStage stage;
    Rng rng(11);
    std::size_t hits = 0;
    std::size_t overflows = 0;
    for (Cycles t = 0; t < 200000; ++t) {
        // Lines from a 4 K-line window that drifts, so the table sees
        // hits, long miss runs, overflows and probe chains.
        const Addr line =
            (t / 64 + rng.below(4096)) * kCacheLineBytes + 0x10000000;
        const auto it = ref.find(line);
        const Cycles* got = stage.find(line);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "tick " << t;
        if (got != nullptr) {
            ASSERT_EQ(*got, it->second) << "tick " << t;
            ++hits;
            continue;
        }
        if (ref.size() >= LineStage::kMaxLines) {
            ref.clear();
            ++overflows;
        }
        ref.emplace(line, t);
        stage.stage(line, t);
        ASSERT_EQ(stage.size(), ref.size()) << "tick " << t;
    }
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(overflows, 100u);
}

TEST(LineStage, ClearDropsEveryLine)
{
    LineStage stage;
    for (Addr i = 0; i < LineStage::kMaxLines; ++i)
        stage.stage(i * kCacheLineBytes, i);
    EXPECT_EQ(stage.size(), LineStage::kMaxLines);
    stage.clear();
    EXPECT_EQ(stage.size(), 0u);
    for (Addr i = 0; i < LineStage::kMaxLines; ++i)
        EXPECT_EQ(stage.find(i * kCacheLineBytes), nullptr);
    stage.stage(0, 7);
    ASSERT_NE(stage.find(0), nullptr);
    EXPECT_EQ(*stage.find(0), 7u);
}

// ---------------------------------------------------------------
// QST window reservation invariants
// ---------------------------------------------------------------

TEST(QstWindow, ReserveAllocateUnreserveInvariants)
{
    QueryStateTable qst(8);
    EXPECT_EQ(qst.findWindow(4), 0);
    EXPECT_EQ(qst.reserveWindow(4), 0);
    EXPECT_EQ(qst.reservedSlots(), 4u);
    EXPECT_TRUE(qst.isReserved(0));

    // Scalar allocation skips the reserved run.
    EXPECT_EQ(qst.allocate(), 4);

    // Occupancy does not block a window: a reservation is a claim on
    // each slot's next vacancy, so the second descriptor's window may
    // overlap the occupied slot 4.
    EXPECT_EQ(qst.findWindow(4), 4);
    EXPECT_EQ(qst.reserveWindow(4), 4);
    EXPECT_EQ(qst.reservedSlots(), 8u);
    // With every slot reserved the scalar path backs off, not panics.
    EXPECT_EQ(qst.allocate(), -1);

    // Members fill reserved slots through allocateInWindow only.
    EXPECT_EQ(qst.allocateInWindow(0, 4), 0);
    EXPECT_EQ(qst.allocateInWindow(0, 4), 1);
    qst.release(0);
    EXPECT_TRUE(qst.isReserved(0)); // release keeps the batch's claim
    EXPECT_EQ(qst.allocate(), -1);  // still invisible to scalar
    EXPECT_EQ(qst.allocateInWindow(0, 4), 0); // but refillable

    // Early per-slot handoff during a drain: the freed slot becomes
    // scalar-visible (or reservable) immediately.
    qst.release(1);
    qst.unreserveSlot(1);
    EXPECT_FALSE(qst.isReserved(1));
    EXPECT_EQ(qst.reservedSlots(), 7u);
    EXPECT_EQ(qst.allocate(), 1);
    EXPECT_EQ(qst.findWindow(2), -1); // no contiguous unreserved pair
}

TEST(QstWindow, WindowTooLargeNeverFits)
{
    QueryStateTable qst(4);
    EXPECT_EQ(qst.reserveWindow(3), 0);
    EXPECT_EQ(qst.findWindow(2), -1);
    EXPECT_EQ(qst.findWindow(1), 3);
    qst.releaseWindow(0, 3);
    EXPECT_EQ(qst.reservedSlots(), 0u);
    EXPECT_EQ(qst.findWindow(4), 0);
}

TEST(QstWindowDeathTest, DoubleUnreserveAsserts)
{
    QueryStateTable qst(4);
    ASSERT_EQ(qst.reserveWindow(2), 0);
    qst.unreserveSlot(0);
    EXPECT_DEATH(qst.unreserveSlot(0), "unreserved");
}

// ---------------------------------------------------------------
// Sequence-aware planner
// ---------------------------------------------------------------

std::vector<QueryJob>
syntheticJobs(std::size_t n)
{
    std::vector<QueryJob> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Descending addresses so locality sorting has work to do.
        jobs[i].headerAddr = 0x1000 + 0x100 * ((n - i) % 3);
        jobs[i].keyAddr = 0x90000 - static_cast<Addr>(i) * 0x40;
        jobs[i].resultAddr = kNullAddr;
    }
    return jobs;
}

TEST(BatchPlanner, CoversEveryJobExactlyOnceAndChunksToSize)
{
    const auto jobs = syntheticJobs(23);
    const BatchConfig config{8, BatchReorder::ByKeyLocality, true};
    const auto plan = planQueryBatches(jobs, config, [](const QueryJob& j) {
        return static_cast<int>((j.keyAddr >> 6) % 2);
    });
    std::vector<int> seen(jobs.size(), 0);
    for (const PlannedBatch& b : plan) {
        EXPECT_LE(b.jobIdxs.size(), 8u);
        EXPECT_GE(b.jobIdxs.size(), 1u);
        for (std::size_t idx : b.jobIdxs)
            ++seen[idx];
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "job " << i;
}

TEST(BatchPlanner, NoReorderPreservesPerAccelSubmissionOrder)
{
    const auto jobs = syntheticJobs(16);
    const BatchConfig config{4, BatchReorder::None, true};
    const auto plan = planQueryBatches(
        jobs, config, [](const QueryJob&) { return 0; });
    std::size_t prev = 0;
    bool first = true;
    for (const PlannedBatch& b : plan) {
        EXPECT_EQ(b.accel, 0);
        for (std::size_t idx : b.jobIdxs) {
            if (!first) {
                EXPECT_GT(idx, prev);
            }
            prev = idx;
            first = false;
        }
    }
}

// ---------------------------------------------------------------
// End-to-end functional identity
// ---------------------------------------------------------------

/** Build workload @p w fresh and run it, optionally batched/faulted. */
QeiRunStats
runOnce(std::size_t w, std::size_t queries, const BatchConfig& batch,
        const char* fault_spec = "")
{
    ChipConfig chip;
    chip.faults = fault_spec[0] != '\0' ? parseFaultSpec(fault_spec)
                                        : FaultConfig{};
    std::unique_ptr<Workload> workload = makeWorkloadFactories()[w]();
    World world(42, chip);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, queries);
    DriverConfig config(SchemeConfig::coreIntegrated());
    if (batch.enabled())
        config.withBatch(batch);
    return runQei(world, prepared, config);
}

TEST(BatchExecution, ChecksumsMatchScalarOnEveryWorkload)
{
    // Per-workload counts keep the slow trie workload (snort, idx 3)
    // from dominating the test's runtime.
    const std::size_t counts[] = {150, 120, 80, 32, 80};
    const std::size_t workloads = makeWorkloadFactories().size();
    ASSERT_EQ(workloads, 5u);
    for (std::size_t w = 0; w < workloads; ++w) {
        const QeiRunStats scalar = runOnce(w, counts[w], BatchConfig{});
        EXPECT_EQ(scalar.batches, 0u);
        for (int size : {8, 32}) {
            const BatchConfig b{size, BatchReorder::ByKeyLocality,
                                true};
            const QeiRunStats batched = runOnce(w, counts[w], b);
            EXPECT_EQ(batched.queries, scalar.queries);
            EXPECT_EQ(batched.mismatches, 0u)
                << "workload " << w << " batch " << size;
            EXPECT_EQ(batched.resultChecksum, scalar.resultChecksum)
                << "workload " << w << " batch " << size;
            EXPECT_GT(batched.batches, 0u);
            EXPECT_EQ(batched.batchedQueries, batched.queries);
        }
    }
}

TEST(DriverDeathTest, PollBatchBelowOneAsserts)
{
    // A QUERY_NB window of 0 would issue nothing and never drain; a
    // negative one must not wrap to "the whole stream".
    std::unique_ptr<Workload> workload = makeWorkloadFactories()[0]();
    World world(42);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, 16);
    for (int poll : {0, -1}) {
        const DriverConfig config =
            DriverConfig(SchemeConfig::coreIntegrated())
                .withMode(QueryMode::NonBlocking)
                .withPollBatch(poll);
        EXPECT_DEATH(runQei(world, prepared, config), "poll batch")
            << poll;
    }
}

TEST(DriverDeathTest, SeveralCoresOnlyForClosedLoopBlocking)
{
    // The engine has only ever issued closed-loop QUERY_B from several
    // cores; batch descriptors would all queue on core 0.
    std::unique_ptr<Workload> workload = makeWorkloadFactories()[0]();
    World world(42);
    workload->build(world);
    const Prepared prepared = workload->prepare(world, 16);
    const DriverConfig twoCores =
        DriverConfig(SchemeConfig::coreIntegrated()).withCores(2);
    BatchConfig batch;
    batch.size = 8;
    const std::pair<const char*, DriverConfig> rejected[] = {
        {"nb", DriverConfig(twoCores).withMode(QueryMode::NonBlocking)},
        {"batch", DriverConfig(twoCores).withBatch(batch)},
        {"poisson",
         DriverConfig(twoCores).withTraffic(
             std::make_shared<traffic::PoissonOpenLoop>(100.0, 3))},
    };
    for (const auto& [name, config] : rejected) {
        EXPECT_DEATH(runQei(world, prepared, config),
                     "issuing cores need a closed-loop QUERY_B run")
            << name;
    }
    EXPECT_DEATH(
        runQei(world, prepared, DriverConfig(twoCores).withCores(25)),
        "25 issuing cores on a 24-core chip");
}

TEST(BatchExecution, ReorderPoliciesAreFunctionallyIdentical)
{
    const QeiRunStats scalar = runOnce(1, 120, BatchConfig{});
    for (const BatchReorder reorder :
         {BatchReorder::None, BatchReorder::ByStructure,
          BatchReorder::ByKeyLocality}) {
        const BatchConfig b{8, reorder, true};
        const QeiRunStats batched = runOnce(1, 120, b);
        EXPECT_EQ(batched.resultChecksum, scalar.resultChecksum)
            << toString(reorder);
        EXPECT_EQ(batched.mismatches, 0u) << toString(reorder);
    }
}

TEST(BatchExecution, CoalescingOffStillMatchesAndCountsNoLineHits)
{
    const QeiRunStats scalar = runOnce(2, 80, BatchConfig{});
    const BatchConfig b{8, BatchReorder::ByKeyLocality, false};
    const QeiRunStats batched = runOnce(2, 80, b);
    EXPECT_EQ(batched.resultChecksum, scalar.resultChecksum);
    EXPECT_EQ(batched.batchLineHits, 0u);
}

// ---------------------------------------------------------------
// Batching x fault injection
// ---------------------------------------------------------------

TEST(BatchFaults, RecoveryReachesFaultFreeScalarChecksum)
{
    const QeiRunStats clean = runOnce(0, 150, BatchConfig{});
    const BatchConfig b{8, BatchReorder::ByKeyLocality, true};
    const QeiRunStats faulted =
        runOnce(0, 150, b, "pf=0.05,bh=0.03,seed=5");
    EXPECT_GT(faulted.faultsInjected, 0u);
    EXPECT_EQ(faulted.swFallbacks, faulted.faultsInjected);
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
}

TEST(BatchFaults, InjectedFlushAbortsAndRedoesBatchMembers)
{
    const QeiRunStats clean = runOnce(0, 150, BatchConfig{});
    const BatchConfig b{8, BatchReorder::ByKeyLocality, true};
    const QeiRunStats faulted = runOnce(0, 150, b, "flush=900,seed=5");
    EXPECT_GT(faulted.faultFlushes, 0u);
    EXPECT_GT(faulted.swFallbacks, 0u)
        << "flushed batch members must be redone in software";
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_EQ(faulted.resultChecksum, clean.resultChecksum);
}

// ---------------------------------------------------------------
// Matrix determinism
// ---------------------------------------------------------------

TEST(BatchMatrix, BatchedCellsAreThreadCountInvariant)
{
    MatrixOptions options;
    options.queries = 60;
    options.topologies = {Topology(SchemeConfig::coreIntegrated())};
    options.batch = BatchConfig{8, BatchReorder::ByKeyLocality, true};
    options.threads = 1;
    const auto serial =
        runWorkloadMatrix(makeWorkloadFactories(), options);
    options.threads = 8;
    const auto parallel =
        runWorkloadMatrix(makeWorkloadFactories(), options);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        for (const auto& [scheme, stats] : serial[i].schemes) {
            const auto it = parallel[i].schemes.find(scheme);
            ASSERT_NE(it, parallel[i].schemes.end());
            EXPECT_EQ(stats.cycles, it->second.cycles) << scheme;
            EXPECT_EQ(stats.resultChecksum, it->second.resultChecksum)
                << scheme;
            EXPECT_EQ(stats.batches, it->second.batches) << scheme;
            EXPECT_GT(stats.batches, 0u) << scheme;
        }
    }
}

} // namespace
