// Unit + property tests for the in-sim-memory data structures: every
// structure is validated functionally against a std::map reference
// over randomized key sets, parameterized over key lengths.

#include <gtest/gtest.h>

#include <map>

#include "ds/bst.hh"
#include "ds/chained_hash.hh"
#include "ds/cuckoo_hash.hh"
#include "ds/linked_list.hh"
#include "ds/lsh.hh"
#include "ds/skip_list.hh"
#include "ds/trie.hh"
#include "ds/tuple_space.hh"

using namespace qei;

namespace {

struct DsFixture
{
    DsFixture() : mem(1ULL << 30), vm(mem) {}

    std::vector<std::pair<Key, std::uint64_t>>
    makeItems(std::size_t n, std::size_t key_len, std::uint64_t seed)
    {
        Rng rng(seed);
        std::map<Key, std::uint64_t, KeyLess> unique;
        while (unique.size() < n)
            unique[randomKey(rng, key_len)] = 0;
        std::vector<std::pair<Key, std::uint64_t>> items;
        std::uint64_t v = 1000;
        for (auto& [k, value] : unique) {
            (void)value;
            items.emplace_back(k, v++);
        }
        // Shuffle so BSTs stay balanced-ish.
        Rng shuffler(seed ^ 0x5555);
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[shuffler.below(i)]);
        return items;
    }

    SimMemory mem;
    VirtualMemory vm;
};

/** Shared property check: queries agree with the reference map. */
template <typename Ds>
void
checkAgainstReference(
    Ds& ds, const std::vector<std::pair<Key, std::uint64_t>>& items,
    std::size_t key_len, std::uint64_t seed)
{
    std::map<Key, std::uint64_t, KeyLess> reference(items.begin(),
                                                    items.end());
    Rng rng(seed);
    for (int q = 0; q < 200; ++q) {
        const Key key = q % 3 == 0
                            ? randomKey(rng, key_len)
                            : items[rng.below(items.size())].first;
        const QueryTrace trace = ds.query(key);
        auto it = reference.find(key);
        ASSERT_EQ(trace.found, it != reference.end());
        if (trace.found) {
            EXPECT_EQ(trace.resultValue, it->second);
        }
        EXPECT_FALSE(trace.touches.empty());
    }
}

} // namespace

class DsKeyLen : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DsKeyLen, LinkedListMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(48, GetParam(), 1);
    SimLinkedList ll(f.vm, items);
    EXPECT_EQ(ll.size(), items.size());
    checkAgainstReference(ll, items, GetParam(), 11);
}

TEST_P(DsKeyLen, BstMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(300, GetParam(), 2);
    SimBst bst(f.vm, items);
    EXPECT_GT(bst.averageDepth(), 1.0);
    checkAgainstReference(bst, items, GetParam(), 12);
}

TEST_P(DsKeyLen, SkipListMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(300, GetParam(), 3);
    SimSkipList sl(f.vm, items);
    checkAgainstReference(sl, items, GetParam(), 13);
}

TEST_P(DsKeyLen, ChainedHashMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(400, GetParam(), 4);
    SimChainedHash ch(f.vm, items, 128);
    EXPECT_GT(ch.averageChainLength(), 1.0);
    checkAgainstReference(ch, items, GetParam(), 14);
}

TEST_P(DsKeyLen, CuckooHashMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(400, GetParam(), 5);
    SimCuckooHash cuckoo(f.vm, 128, static_cast<std::uint32_t>(
                                        GetParam()));
    std::vector<std::pair<Key, std::uint64_t>> installed;
    for (const auto& [k, v] : items) {
        if (cuckoo.insert(k, v))
            installed.emplace_back(k, v);
    }
    EXPECT_GT(installed.size(), items.size() / 2);
    checkAgainstReference(cuckoo, installed, GetParam(), 15);
}

INSTANTIATE_TEST_SUITE_P(KeyLengths, DsKeyLen,
                         ::testing::Values(8, 16, 20, 24, 40, 64, 100));

TEST(LinkedList, PreservesInsertionOrderFromRoot)
{
    DsFixture f;
    auto items = f.makeItems(5, 8, 7);
    SimLinkedList ll(f.vm, items);
    Addr node = ll.rootAddr();
    for (const auto& [key, value] : items) {
        ASSERT_NE(node, kNullAddr);
        EXPECT_EQ(loadKey(f.vm, node + 16, 8), key);
        EXPECT_EQ(f.vm.read<std::uint64_t>(node + 8), value);
        node = f.vm.read<std::uint64_t>(node);
    }
    EXPECT_EQ(node, kNullAddr);
}

TEST(Bst, OverwriteUpdatesValue)
{
    DsFixture f;
    auto items = f.makeItems(20, 8, 8);
    items.push_back(items.front());
    items.back().second = 9999;
    SimBst bst(f.vm, items);
    const QueryTrace t = bst.query(items.front().first);
    EXPECT_TRUE(t.found);
    EXPECT_EQ(t.resultValue, 9999u);
}

TEST(Bst, DuplicateInsertOverwritesWithoutNewNode)
{
    DsFixture f;
    auto items = f.makeItems(50, 16, 9);
    SimBst unique(f.vm, items);
    const std::uint64_t uniqueBytes = f.vm.bytesAllocated();

    DsFixture g;
    auto withDup = items;
    withDup.emplace_back(items[17].first, 4242);
    SimBst bst(g.vm, withDup);
    // Same nodes, same layout: the duplicate allocated nothing.
    EXPECT_EQ(g.vm.bytesAllocated(), uniqueBytes);
    std::size_t count = 0;
    std::vector<Addr> stack{bst.rootAddr()};
    while (!stack.empty()) {
        const Addr node = stack.back();
        stack.pop_back();
        if (node == kNullAddr)
            continue;
        ++count;
        stack.push_back(g.vm.read<std::uint64_t>(node + 0));
        stack.push_back(g.vm.read<std::uint64_t>(node + 8));
    }
    EXPECT_EQ(count, items.size());
    EXPECT_EQ(bst.averageDepth(), unique.averageDepth());
    const QueryTrace t = bst.query(items[17].first);
    EXPECT_TRUE(t.found);
    EXPECT_EQ(t.resultValue, 4242u);
}

TEST(SkipList, HeaderPublishesForwardBase)
{
    DsFixture f;
    auto items = f.makeItems(50, 24, 9);
    SimSkipList sl(f.vm, items);
    const StructHeader h =
        StructHeader::readFrom(f.vm, sl.headerAddr());
    EXPECT_EQ(h.type, StructType::SkipList);
    EXPECT_EQ(h.aux0, sl.forwardBase());
    EXPECT_EQ(h.aux1,
              static_cast<std::uint64_t>(SimSkipList::kMaxHeight - 1));
}

TEST(SkipList, TraversalVisitsFewerNodesThanSize)
{
    DsFixture f;
    auto items = f.makeItems(512, 16, 10);
    SimSkipList sl(f.vm, items);
    Rng rng(3);
    double touches = 0;
    for (int i = 0; i < 50; ++i) {
        touches += static_cast<double>(
            sl.query(items[rng.below(items.size())].first)
                .touches.size());
    }
    EXPECT_LT(touches / 50.0, 120.0); // O(log n), not O(n)
}

TEST(CuckooHash, LoadFactorAndRejection)
{
    DsFixture f;
    SimCuckooHash cuckoo(f.vm, 16, 16); // 128 slots
    Rng rng(11);
    int accepted = 0;
    for (int i = 0; i < 200; ++i)
        accepted += cuckoo.insert(randomKey(rng, 16), i) ? 1 : 0;
    EXPECT_GT(cuckoo.loadFactor(), 0.5);
    EXPECT_LE(cuckoo.loadFactor(), 1.0);
    EXPECT_LT(accepted, 200); // some inserts must fail at high load
}

TEST(CuckooHash, HeaderDescribesTable)
{
    DsFixture f;
    SimCuckooHash cuckoo(f.vm, 64, 16);
    const StructHeader h =
        StructHeader::readFrom(f.vm, cuckoo.headerAddr());
    EXPECT_EQ(h.type, StructType::CuckooHash);
    EXPECT_EQ(h.aux0, 63u);
    EXPECT_EQ(h.subtype, SimCuckooHash::kEntriesPerBucket);
}

TEST(Trie, CountsOverlappingMatches)
{
    DsFixture f;
    SimTrie trie(f.vm, {"he", "she", "his", "hers"});
    // The classic Aho-Corasick example: "ushers" contains
    // "she", "he", "hers" -> 3 matches.
    std::vector<std::uint8_t> input;
    for (char c : std::string("ushers"))
        input.push_back(static_cast<std::uint8_t>(c));
    const QueryTrace t = trie.match(input);
    EXPECT_EQ(t.resultValue, 3u);
}

TEST(Trie, NoMatchesInCleanText)
{
    DsFixture f;
    SimTrie trie(f.vm, {"xyzzy", "plugh"});
    std::vector<std::uint8_t> input;
    for (char c : std::string("aaaaabbbbbccccc"))
        input.push_back(static_cast<std::uint8_t>(c));
    EXPECT_EQ(trie.match(input).resultValue, 0u);
}

TEST(Trie, MatchesAgainstNaiveScan)
{
    DsFixture f;
    const std::vector<std::string> words{"abc", "bca", "aab", "ca",
                                         "abca"};
    SimTrie trie(f.vm, words);
    Rng rng(5);
    for (int round = 0; round < 20; ++round) {
        std::string text;
        for (int i = 0; i < 64; ++i)
            text.push_back(static_cast<char>('a' + rng.below(3)));
        std::uint64_t naive = 0;
        for (const auto& w : words) {
            for (std::size_t pos = 0;
                 (pos = text.find(w, pos)) != std::string::npos; ++pos)
                ++naive;
        }
        std::vector<std::uint8_t> input(text.begin(), text.end());
        EXPECT_EQ(trie.match(input).resultValue, naive)
            << "text: " << text;
    }
}

TEST(Trie, NodeCountGrowsWithDictionary)
{
    DsFixture f;
    SimTrie small(f.vm, {"a"});
    SimTrie big(f.vm, {"abcdef", "abcxyz", "qrstuv"});
    EXPECT_GT(big.nodeCount(), small.nodeCount());
}

TEST(Trie, OutputCountOverflowPanics)
{
    // 65,536 copies of one keyword end at one node: one more than the
    // 16-bit output count holds.
    const std::vector<std::string> words(65536, "dup");
    EXPECT_DEATH(
        {
            DsFixture f;
            SimTrie trie(f.vm, words);
        },
        "16-bit output count");
}

TEST(Trie, OutputCountThroughFailChainPanics)
{
    // "b" ends 40,000 keywords itself and "ab" 30,000; "ab"'s fail link
    // is "b", so its count would be 70,000.
    std::vector<std::string> words(40000, "b");
    words.insert(words.end(), 30000, "ab");
    EXPECT_DEATH(
        {
            DsFixture f;
            SimTrie trie(f.vm, words);
        },
        "70000 keywords end at one trie node");
}

TEST(Trie, OutputCountAtLimitBuilds)
{
    DsFixture f;
    const std::vector<std::string> words(65535, "dup");
    SimTrie trie(f.vm, words);
    std::vector<std::uint8_t> input{'d', 'u', 'p'};
    EXPECT_EQ(trie.match(input).resultValue, 65535u);
}

TEST(TupleSpace, ClassifiesAcrossTuples)
{
    DsFixture f;
    Rng rng(21);
    SimTupleSpace space(f.vm, 4, 256, 16, rng);
    for (int t = 0; t < space.tupleCount(); ++t) {
        const Key packet = space.sampleInstalledKey(t, rng);
        const auto traces = space.classify(packet);
        ASSERT_EQ(traces.size(), 4u);
        EXPECT_TRUE(traces[static_cast<std::size_t>(t)].found)
            << "tuple " << t;
    }
}

TEST(TupleSpace, RandomPacketRarelyMatches)
{
    DsFixture f;
    Rng rng(22);
    SimTupleSpace space(f.vm, 3, 128, 16, rng);
    int matches = 0;
    for (int i = 0; i < 50; ++i) {
        for (const auto& t : space.classify(randomKey(rng, 16)))
            matches += t.found ? 1 : 0;
    }
    EXPECT_LT(matches, 3);
}

TEST(Lsh, ExactKeyFoundInEveryTable)
{
    DsFixture f;
    Rng rng(31);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 300; ++i)
        items.emplace_back(randomKey(rng, 20), 7000 + i);
    SimLsh lsh(f.vm, 6, items, rng);
    for (int probe = 0; probe < 20; ++probe) {
        const auto& [key, value] = items[rng.below(items.size())];
        const auto traces = lsh.probeAll(key);
        ASSERT_EQ(traces.size(), 6u);
        for (const auto& t : traces) {
            EXPECT_TRUE(t.found);
            EXPECT_EQ(t.resultValue, value);
        }
    }
}

TEST(Lsh, ProjectionsDifferAcrossTables)
{
    DsFixture f;
    Rng rng(32);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 50; ++i)
        items.emplace_back(randomKey(rng, 20), i);
    SimLsh lsh(f.vm, 3, items, rng);
    const Key key = items[0].first;
    EXPECT_NE(lsh.project(key, 0), lsh.project(key, 1));
    EXPECT_NE(lsh.project(key, 1), lsh.project(key, 2));
}
