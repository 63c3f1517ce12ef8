// B+-tree tests: bulk build invariants, reference-query correctness,
// and full QEI parity through the firmware-update path (the structure
// is NOT in the factory firmware — installing its CFA is the point).

#include <gtest/gtest.h>

#include <map>

#include "ds/bplus_tree.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

std::vector<std::pair<Key, std::uint64_t>>
makeItems(Rng& rng, std::size_t n, std::size_t key_len)
{
    std::map<Key, std::uint64_t, KeyLess> unique;
    while (unique.size() < n)
        unique[randomKey(rng, key_len)] = 0;
    std::vector<std::pair<Key, std::uint64_t>> items;
    std::uint64_t v = 9000;
    for (auto& [k, value] : unique) {
        (void)value;
        items.emplace_back(k, v++);
    }
    return items;
}

} // namespace

TEST(BPlusTree, ScanReturnsAllValuesInKeyOrder)
{
    World world(3);
    Rng rng(4);
    auto items = makeItems(rng, 200, 16);
    SimBPlusTree tree(world.vm, items);
    const auto values = tree.scanAll();
    ASSERT_EQ(values.size(), items.size());
    // Bulk build sorts by key; values were assigned in key order.
    for (std::size_t i = 1; i < values.size(); ++i)
        EXPECT_EQ(values[i], values[i - 1] + 1);
}

TEST(BPlusTree, HeightLogarithmic)
{
    World world(3);
    Rng rng(5);
    SimBPlusTree small(world.vm, makeItems(rng, 8, 8));
    SimBPlusTree big(world.vm, makeItems(rng, 2000, 8));
    EXPECT_EQ(small.height(), 1);
    EXPECT_GE(big.height(), 3); // fanout 8: 2000 keys ~ 4 levels
    EXPECT_LE(big.height(), 5);
}

TEST(BPlusTree, ReferenceQueryMatchesMap)
{
    World world(3);
    Rng rng(6);
    auto items = makeItems(rng, 700, 24);
    SimBPlusTree tree(world.vm, items);
    std::map<Key, std::uint64_t, KeyLess> reference(items.begin(),
                                                    items.end());
    for (int q = 0; q < 300; ++q) {
        const Key key = q % 3 == 0
                            ? randomKey(rng, 24)
                            : items[rng.below(items.size())].first;
        const QueryTrace t = tree.query(key);
        auto it = reference.find(key);
        ASSERT_EQ(t.found, it != reference.end());
        if (t.found) {
            EXPECT_EQ(t.resultValue, it->second);
        }
    }
}

TEST(BPlusTree, FirmwareProgramValidates)
{
    const CfaProgram p = firmware::buildBPlusTree();
    EXPECT_EQ(p.name, "bplus-tree");
    EXPECT_FALSE(p.disassemble().empty());
    bool hasCompareKey = false;
    for (const auto& mi : p.states)
        hasCompareKey |= mi.op == MicroOpcode::CompareKey;
    EXPECT_TRUE(hasCompareKey);
}

class BPlusQei : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BPlusQei, AcceleratorMatchesReference)
{
    const std::size_t keyLen = GetParam();
    World world(31 + keyLen);
    // Firmware update: the factory store does not know B+-trees.
    ASSERT_EQ(world.firmware.program(kBPlusTreeType), nullptr);
    world.firmware.installProgram(kBPlusTreeType,
                                  firmware::buildBPlusTree());

    Rng rng(8);
    auto items = makeItems(rng, 500, keyLen);
    SimBPlusTree tree(world.vm, items);

    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 15;
    for (int q = 0; q < 80; ++q) {
        const Key key = q % 4 == 0
                            ? randomKey(rng, keyLen)
                            : items[rng.below(items.size())].first;
        QueryTrace trace = tree.query(key);
        QueryJob job;
        job.headerAddr = tree.headerAddr();
        job.keyAddr = tree.stageKey(key);
        job.resultAddr = world.vm.alloc(16, 16);
        job.expectFound = trace.found;
        job.expectValue = trace.resultValue;
        prep.jobs.push_back(job);
        prep.traces.push_back(std::move(trace));
    }

    for (const auto& scheme :
         {SchemeConfig::coreIntegrated(), SchemeConfig::chaTlb(),
          SchemeConfig::deviceDirect()}) {
        const QeiRunStats stats = runQei(world, prep, DriverConfig(scheme));
        EXPECT_EQ(stats.mismatches, 0u)
            << scheme.name() << " keyLen=" << keyLen;
        EXPECT_EQ(stats.exceptions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(KeyLengths, BPlusQei,
                         ::testing::Values(std::size_t{8},
                                           std::size_t{16},
                                           std::size_t{40},
                                           std::size_t{100}));

TEST(BPlusQei, FasterThanSoftwareOnWarmLlc)
{
    World world(77);
    world.firmware.installProgram(kBPlusTreeType,
                                  firmware::buildBPlusTree());
    Rng rng(9);
    auto items = makeItems(rng, 4000, 16);
    SimBPlusTree tree(world.vm, items);

    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 15;
    for (int q = 0; q < 400; ++q) {
        const Key& key = items[rng.below(items.size())].first;
        QueryTrace trace = tree.query(key);
        QueryJob job;
        job.headerAddr = tree.headerAddr();
        job.keyAddr = tree.stageKey(key);
        job.resultAddr = world.vm.alloc(16, 16);
        job.expectFound = trace.found;
        job.expectValue = trace.resultValue;
        prep.jobs.push_back(job);
        prep.traces.push_back(std::move(trace));
    }
    const CoreRunResult base = runBaseline(world, prep);
    const QeiRunStats qei =
        runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
    EXPECT_EQ(qei.mismatches, 0u);
    EXPECT_GT(speedupOf(base, qei), 1.5);
}
