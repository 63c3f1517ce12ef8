// Workload-level integration tests: every paper workload builds,
// prepares matched streams, runs functionally clean on QEI, and shows
// the paper's qualitative behaviours (with small query counts so the
// suite stays fast).

#include <gtest/gtest.h>

#include "workloads/dpdk_fib.hh"
#include "workloads/flann_lsh.hh"
#include "workloads/jvm_gc.hh"
#include "workloads/rocksdb_memtable.hh"
#include "workloads/snort_ac.hh"

using namespace qei;

namespace {

/** Small-footprint variants so each test runs in well under a second. */
template <typename W, typename... Args>
void
runWorkloadChecks(std::size_t queries, Args&&... args)
{
    W workload(std::forward<Args>(args)...);
    World world(17);
    workload.build(world);
    Prepared prep = workload.prepare(world, queries);
    ASSERT_FALSE(prep.jobs.empty());
    ASSERT_EQ(prep.jobs.size(), prep.traces.size());

    const CoreRunResult baseline = runBaseline(world, prep);
    EXPECT_EQ(baseline.queries, prep.traces.size());
    EXPECT_GT(baseline.cycles, 0u);

    const QeiRunStats qei =
        runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_EQ(qei.mismatches, 0u);
    EXPECT_EQ(qei.exceptions, 0u);
    EXPECT_GT(speedupOf(baseline, qei), 1.0);
}

} // namespace

TEST(Workloads, DpdkFibFunctionalAndFaster)
{
    runWorkloadChecks<DpdkFibWorkload>(300, std::size_t{4096},
                                       std::size_t{1024});
}

TEST(Workloads, JvmGcFunctionalAndFaster)
{
    runWorkloadChecks<JvmGcWorkload>(200, std::size_t{20000});
}

TEST(Workloads, RocksDbFunctionalAndFaster)
{
    runWorkloadChecks<RocksDbMemtableWorkload>(100, std::size_t{2000});
}

TEST(Workloads, SnortFunctionalAndFaster)
{
    runWorkloadChecks<SnortAcWorkload>(4, std::size_t{2000},
                                       std::size_t{512});
}

TEST(Workloads, FlannFunctionalAndFaster)
{
    runWorkloadChecks<FlannLshWorkload>(20, 4, std::size_t{3000});
}

TEST(Workloads, RegistryHasFivePaperWorkloads)
{
    const auto all = makeAllWorkloads();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[0]->name(), "dpdk");
    EXPECT_EQ(all[1]->name(), "jvm");
    EXPECT_EQ(all[2]->name(), "rocksdb");
    EXPECT_EQ(all[3]->name(), "snort");
    EXPECT_EQ(all[4]->name(), "flann");
    for (const auto& w : all) {
        EXPECT_FALSE(w->description().empty());
        EXPECT_GT(w->defaultQueries(), 0u);
    }
}

TEST(Workloads, RoiFractionsInPaperBand)
{
    // Fig. 1: query operations take 23%~44% of CPU time.
    DpdkFibWorkload dpdk(4096, 1024);
    World world(17);
    dpdk.build(world);
    const Prepared prep = dpdk.prepare(world, 10);
    EXPECT_GE(prep.profile.roiFraction, 0.23);
    EXPECT_LE(prep.profile.roiFraction, 0.44);
}

TEST(Workloads, BaselineQueriesAreHundredsOfInstructions)
{
    // Sec. II-A: "each query operation can easily generate hundreds
    // of dynamic instructions" — true for the pointer-chasing ones.
    JvmGcWorkload jvm(20000);
    World world(17);
    jvm.build(world);
    const Prepared prep = jvm.prepare(world, 50);
    double instr = 0;
    for (const auto& t : prep.traces)
        instr += t.dynamicInstructions();
    EXPECT_GT(instr / 50.0, 100.0);
}

TEST(Workloads, DpdkTouchesFewLinesPerQuery)
{
    // Hash query: small fixed number of accesses (Sec. VII-A).
    DpdkFibWorkload dpdk(4096, 1024);
    World world(17);
    dpdk.build(world);
    const Prepared prep = dpdk.prepare(world, 100);
    double touches = 0;
    for (const auto& t : prep.traces)
        touches += static_cast<double>(t.touches.size());
    EXPECT_LT(touches / 100.0, 8.0);
}

TEST(Workloads, JvmTreeWalksManyNodes)
{
    JvmGcWorkload jvm(100000);
    World world(17);
    jvm.build(world);
    const Prepared prep = jvm.prepare(world, 50);
    double touches = 0;
    for (const auto& t : prep.traces)
        touches += static_cast<double>(t.touches.size());
    // The paper measures 39.9 accesses per JVM query; our tree is in
    // the same regime (> 10 dependent accesses).
    EXPECT_GT(touches / 50.0, 10.0);
}

TEST(Workloads, RepeatedRunsOnOneWorldDumpIdenticalStats)
{
    // Every run resets the World's per-run state, page-walk count
    // included, so a second run's stats dump equals the first's.
    RocksDbMemtableWorkload workload;
    World world(5);
    workload.build(world);
    const Prepared prep = workload.prepare(world, 100);
    std::string first;
    std::string second;
    const DriverConfig chaTlb(SchemeConfig::chaTlb());
    runQei(world, prep, DriverConfig(chaTlb).captureStats(&first));
    runQei(world, prep, DriverConfig(chaTlb).captureStats(&second));
    EXPECT_GT(Json::parse(first).at("system.vm.page_walks").asUint(), 0u);
    EXPECT_EQ(first, second);
}

TEST(Workloads, PreparedStreamsAreDeterministic)
{
    DpdkFibWorkload a(2048, 512);
    DpdkFibWorkload b(2048, 512);
    World wa(99);
    World wb(99);
    a.build(wa);
    b.build(wb);
    const Prepared pa = a.prepare(wa, 20);
    const Prepared pb = b.prepare(wb, 20);
    ASSERT_EQ(pa.jobs.size(), pb.jobs.size());
    for (std::size_t i = 0; i < pa.jobs.size(); ++i) {
        EXPECT_EQ(pa.jobs[i].expectFound, pb.jobs[i].expectFound);
        EXPECT_EQ(pa.jobs[i].expectValue, pb.jobs[i].expectValue);
    }
}
