// Software update path (Sec. IV-A): inserts and deletes stay on the
// core while QEI accelerates the reads between them. These tests
// check the functional interleaving (QEI observes every update), the
// store-side core modeling, and the single-writer memory discipline.

#include <gtest/gtest.h>

#include <map>

#include "ds/chained_hash.hh"
#include "ds/linked_list.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

struct UpdateHarness
{
    UpdateHarness() : world(21), rng(6)
    {
        std::vector<std::pair<Key, std::uint64_t>> items;
        for (int i = 0; i < 150; ++i) {
            Key k = randomKey(rng, 16);
            items.emplace_back(k, 100 + i);
            reference[k] = 100 + static_cast<std::uint64_t>(i);
        }
        table = std::make_unique<SimChainedHash>(world.vm, items, 64);
        for (auto& [k, v] : items)
            universe.push_back(k);
    }

    Key
    someKey()
    {
        return universe[rng.below(universe.size())];
    }

    World world;
    Rng rng;
    std::unique_ptr<SimChainedHash> table;
    std::vector<Key> universe;
    std::map<Key, std::uint64_t, KeyLess> reference;
};

} // namespace

TEST(Updates, InsertOverwriteAndEraseTrackReference)
{
    UpdateHarness h;
    for (int op = 0; op < 400; ++op) {
        const int kind = static_cast<int>(h.rng.below(3));
        if (kind == 0) { // insert (possibly fresh key)
            Key k = h.rng.chance(0.5) ? h.someKey()
                                      : randomKey(h.rng, 16);
            const std::uint64_t v = 5000 + static_cast<std::uint64_t>(op);
            h.table->insert(k, v);
            h.reference[k] = v;
            h.universe.push_back(std::move(k));
        } else if (kind == 1) { // erase
            const Key k = h.someKey();
            const QueryTrace t = h.table->erase(k);
            EXPECT_EQ(t.found, h.reference.erase(k) > 0);
        } else { // query
            const Key k = h.someKey();
            const QueryTrace t = h.table->query(k);
            auto it = h.reference.find(k);
            ASSERT_EQ(t.found, it != h.reference.end());
            if (t.found) {
                EXPECT_EQ(t.resultValue, it->second);
            }
        }
    }
    EXPECT_EQ(h.table->size(), h.reference.size());
}

TEST(Updates, InsertTraceCarriesStores)
{
    UpdateHarness h;
    const QueryTrace t = h.table->insert(randomKey(h.rng, 16), 9);
    int stores = 0;
    for (const auto& touch : t.touches)
        stores += touch.isStore ? 1 : 0;
    EXPECT_GE(stores, 2); // node fill + head link
}

TEST(Updates, QeiSeesSoftwareUpdatesBetweenBatches)
{
    UpdateHarness h;
    // Phase 1: QEI queries the pristine table.
    auto makePrep = [&](const std::vector<Key>& keys) {
        Prepared prep;
        prep.profile.nonQueryInstrPerOp = 15;
        for (const auto& k : keys) {
            QueryTrace t = h.table->query(k);
            QueryJob job;
            job.headerAddr = h.table->headerAddr();
            job.keyAddr = h.table->stageKey(k);
            job.resultAddr = h.world.vm.alloc(16, 16);
            job.expectFound = t.found;
            job.expectValue = t.resultValue;
            prep.jobs.push_back(job);
            prep.traces.push_back(std::move(t));
        }
        return prep;
    };

    std::vector<Key> probe;
    for (int i = 0; i < 20; ++i)
        probe.push_back(h.someKey());
    const Prepared before = makePrep(probe);
    EXPECT_EQ(runQei(h.world, before, DriverConfig(SchemeConfig::coreIntegrated()))
                  .mismatches,
              0u);

    // Software updates: delete half the probed keys, re-insert one
    // with a new value (core-side stores; QEI is quiesced).
    for (int i = 0; i < 10; ++i)
        h.table->erase(probe[static_cast<std::size_t>(i)]);
    h.table->insert(probe[0], 0xFEED);

    // Phase 2: QEI immediately observes the new state.
    const Prepared after = makePrep(probe);
    EXPECT_EQ(after.traces[0].resultValue, 0xFEEDu);
    for (int i = 1; i < 10; ++i)
        EXPECT_FALSE(after.traces[static_cast<std::size_t>(i)].found);
    EXPECT_EQ(runQei(h.world, after, DriverConfig(SchemeConfig::coreIntegrated()))
                  .mismatches,
              0u);
}

TEST(Updates, StoresCountedAndSqPressureCosts)
{
    UpdateHarness h;
    // A pure-update stream exercises the SQ path of the core model.
    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 5;
    for (int i = 0; i < 200; ++i)
        prep.traces.push_back(
            h.table->insert(randomKey(h.rng, 16), 77));
    const CoreRunResult r = runBaseline(h.world, prep);
    EXPECT_GT(r.stores, 300u); // ~2 stores per insert
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LE(r.ipc(), 4.0);
}

TEST(Updates, EraseFromSingletonBucketEmptiesIt)
{
    World world(33);
    Rng rng(1);
    std::vector<std::pair<Key, std::uint64_t>> items;
    items.emplace_back(randomKey(rng, 8), 1);
    SimChainedHash table(world.vm, items, 16);
    EXPECT_TRUE(table.erase(items[0].first).found);
    EXPECT_FALSE(table.query(items[0].first).found);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.erase(items[0].first).found); // idempotent
}

TEST(Updates, LinkedListHeadInsertRepublishesHeader)
{
    World world(44);
    Rng rng(2);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 12; ++i)
        items.emplace_back(randomKey(rng, 16), 100 + i);
    SimLinkedList list(world.vm, items);

    const Key fresh = randomKey(rng, 16);
    list.insertFront(fresh, 0xABCD);
    // The header now names the new root.
    const StructHeader h =
        StructHeader::readFrom(world.vm, list.headerAddr());
    EXPECT_EQ(h.root, list.rootAddr());
    EXPECT_EQ(h.size, 13u);

    // QEI immediately finds the new key through the same header.
    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 10;
    QueryTrace t = list.query(fresh);
    ASSERT_TRUE(t.found);
    QueryJob job;
    job.headerAddr = list.headerAddr();
    job.keyAddr = list.stageKey(fresh);
    job.resultAddr = world.vm.alloc(16, 16);
    job.expectFound = true;
    job.expectValue = 0xABCD;
    prep.jobs.push_back(job);
    prep.traces.push_back(std::move(t));
    EXPECT_EQ(runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()))
                  .mismatches,
              0u);
}

TEST(Updates, LinkedListEraseHeadAndMiddle)
{
    World world(45);
    Rng rng(3);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 8; ++i)
        items.emplace_back(randomKey(rng, 16), i);
    SimLinkedList list(world.vm, items);

    // Erase the head: root moves, header follows.
    EXPECT_TRUE(list.erase(items[0].first).found);
    EXPECT_FALSE(list.query(items[0].first).found);
    EXPECT_EQ(StructHeader::readFrom(world.vm, list.headerAddr()).root,
              list.rootAddr());

    // Erase from the middle: predecessor relink, everything else
    // still reachable.
    EXPECT_TRUE(list.erase(items[4].first).found);
    EXPECT_FALSE(list.query(items[4].first).found);
    for (int i : {1, 2, 3, 5, 6, 7})
        EXPECT_TRUE(
            list.query(items[static_cast<std::size_t>(i)].first).found)
            << i;
    EXPECT_EQ(list.size(), 6u);

    // Erasing a missing key is a full-walk miss.
    EXPECT_FALSE(list.erase(items[0].first).found);
}
