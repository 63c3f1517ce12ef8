// Differential tests for the host-side structure builders: SimTrie,
// SimBst and SimChainedHash lay their nodes out in flat host arrays and
// write each node once, and SimLsh projects its keys in place. The
// reference builders below grow the same structures node by node
// through VirtualMemory (a std::map trie, a BST insert that walks
// simulated memory, per-field chain inserts, fresh keys per table).
// Both run in fresh address spaces and must leave the same root and
// header addresses, the same break and every heap byte equal.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ds/bst.hh"
#include "ds/chained_hash.hh"
#include "ds/lsh.hh"
#include "ds/trie.hh"

using namespace qei;

namespace {

using Items = std::vector<std::pair<Key, std::uint64_t>>;

/** A fresh 1 GB address space. */
struct Heap
{
    Heap() : mem(1ULL << 30), vm(mem) {}

    SimMemory mem;
    VirtualMemory vm;
};

/** Break and heap bytes of @p a and @p b agree. */
void
expectSameHeap(VirtualMemory& a, VirtualMemory& b)
{
    const Addr endA = a.alloc(8, 8);
    const Addr endB = b.alloc(8, 8);
    ASSERT_EQ(endA, endB) << "the builders leave different breaks";
    const std::size_t len = endA - VirtualMemory::kHeapBase;
    std::vector<std::uint8_t> bytesA(len);
    std::vector<std::uint8_t> bytesB(len);
    a.readBytes(VirtualMemory::kHeapBase, bytesA.data(), len);
    b.readBytes(VirtualMemory::kHeapBase, bytesB.data(), len);
    std::size_t i = 0;
    while (i < len && bytesA[i] == bytesB[i])
        ++i;
    EXPECT_EQ(i, len) << "first differing heap byte at "
                      << VirtualMemory::kHeapBase + i << " of " << len
                      << " bytes";
}

// ---------------------------------------------------------------- trie

/** The std::map trie: node by node, serialised field by field. */
struct RefTrie
{
    struct Node
    {
        std::map<std::uint8_t, std::unique_ptr<Node>> children;
        Node* fail = nullptr;
        std::uint16_t outputs = 0;
        Addr addr = kNullAddr;
    };

    RefTrie(VirtualMemory& vm, const std::vector<std::string>& keywords)
    {
        Node root;
        for (const auto& word : keywords) {
            Node* node = &root;
            for (char ch : word) {
                auto& child =
                    node->children[static_cast<std::uint8_t>(ch)];
                if (!child)
                    child = std::make_unique<Node>();
                node = child.get();
            }
            ++node->outputs;
        }
        std::deque<Node*> queue;
        root.fail = &root;
        for (auto& [byte, child] : root.children) {
            (void)byte;
            child->fail = &root;
            queue.push_back(child.get());
        }
        while (!queue.empty()) {
            Node* node = queue.front();
            queue.pop_front();
            node->outputs = static_cast<std::uint16_t>(
                node->outputs + node->fail->outputs);
            for (auto& [byte, child] : node->children) {
                Node* f = node->fail;
                while (f != &root && !f->children.contains(byte))
                    f = f->fail;
                auto it = f->children.find(byte);
                child->fail = (it != f->children.end() &&
                               it->second.get() != child.get())
                                  ? it->second.get()
                                  : &root;
                queue.push_back(child.get());
            }
        }
        std::vector<Node*> order;
        std::deque<Node*> walk{&root};
        while (!walk.empty()) {
            Node* node = walk.front();
            walk.pop_front();
            order.push_back(node);
            node->addr = vm.alloc(16 + node->children.size() * 8ULL, 8);
            for (auto& [byte, child] : node->children) {
                (void)byte;
                walk.push_back(child.get());
            }
        }
        for (Node* node : order) {
            vm.write<std::uint16_t>(
                node->addr,
                static_cast<std::uint16_t>(node->children.size()));
            vm.write<std::uint16_t>(node->addr + 2, node->outputs);
            vm.write<std::uint32_t>(node->addr + 4, 0);
            vm.write<std::uint64_t>(node->addr + 8, node->fail->addr);
            std::size_t i = 0;
            for (const auto& [byte, child] : node->children) {
                std::uint64_t entry =
                    child->addr | (static_cast<std::uint64_t>(byte) << 56);
                if (child->outputs > 0)
                    entry |= 1ULL << 55;
                vm.write<std::uint64_t>(node->addr + 16 + i * 8, entry);
                ++i;
            }
        }
        rootAddr = root.addr;
        nodeCount = order.size();
    }

    Addr rootAddr = kNullAddr;
    std::size_t nodeCount = 0;
};

void
checkTrie(const std::vector<std::string>& keywords)
{
    Heap ref;
    Heap fast;
    // Something already on the heap, so the build starts unaligned.
    ref.vm.alloc(12, 4);
    fast.vm.alloc(12, 4);
    const RefTrie expected(ref.vm, keywords);
    const SimTrie trie(fast.vm, keywords);
    EXPECT_EQ(trie.rootAddr(), expected.rootAddr);
    EXPECT_EQ(trie.nodeCount(), expected.nodeCount);
    expectSameHeap(ref.vm, fast.vm);
}

/** @p count words of 4..12 letters, as the Snort workload draws them. */
std::vector<std::string>
snortDictionary(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::string> words;
    for (std::size_t i = 0; i < count; ++i) {
        std::string word(4 + rng.below(9), ' ');
        for (char& c : word)
            c = static_cast<char>('a' + rng.below(26));
        words.push_back(std::move(word));
    }
    return words;
}

TEST(TrieBuild, PaperSizeSnortDictionary)
{
    checkTrie(snortDictionary(40 * 1000, 7));
}

TEST(TrieBuild, HighBytesDuplicatesAndPrefixChains)
{
    std::vector<std::string> words{"abc", "a", "ab", "abc", "b", "ab"};
    // Bytes at and above 0x80 must sort after the ASCII ones.
    words.push_back("\x80z");
    words.push_back("a\xff");
    words.push_back("a\x7f");
    words.push_back("\xfe\x01\x80");
    words.push_back("z\x80\x80");
    words.push_back("z\x01");
    // One node with all 256 children, each child a match and a prefix.
    for (int b = 0; b < 256; ++b) {
        words.push_back(std::string("q") + static_cast<char>(b));
        words.push_back(std::string("q") + static_cast<char>(b) + "q");
    }
    checkTrie(words);
}

TEST(TrieBuild, RandomBinaryKeywords)
{
    // Small alphabet over the whole byte range: deep shared prefixes
    // and long fail chains.
    Rng rng(3);
    const char alphabet[] = {'\x00', '\x01', '\x7f', '\x80', '\xc3',
                             '\xff'};
    std::vector<std::string> words;
    for (int i = 0; i < 3000; ++i) {
        std::string word(1 + rng.below(7), ' ');
        for (char& c : word)
            c = alphabet[rng.below(sizeof(alphabet))];
        words.push_back(std::move(word));
    }
    checkTrie(words);
}

TEST(TrieBuild, SingleKeyword)
{
    checkTrie({"x"});
}

// ----------------------------------------------------------------- bst

/** The BST that walks simulated memory on every insert. */
struct RefBst
{
    RefBst(VirtualMemory& vm, const Items& items)
    {
        const auto keyLen =
            static_cast<std::uint32_t>(items.front().first.size());
        const std::uint64_t nodeBytes = 24 + pad8(keyLen);
        const std::uint64_t align =
            nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
        for (const auto& [key, value] : items) {
            Addr link = kNullAddr;
            bool found = false;
            for (Addr node = rootAddr; node != kNullAddr;
                 node = vm.read<std::uint64_t>(link)) {
                const int c =
                    compareKeys(loadKey(vm, node + 24, keyLen), key);
                if (c == 0) {
                    vm.write<std::uint64_t>(node + 16, value);
                    found = true;
                    break;
                }
                link = node + (c < 0 ? 8 : 0);
            }
            if (found)
                continue;
            const Addr fresh = vm.alloc(nodeBytes, align);
            ++size;
            vm.write<std::uint64_t>(fresh + 0, kNullAddr);
            vm.write<std::uint64_t>(fresh + 8, kNullAddr);
            vm.write<std::uint64_t>(fresh + 16, value);
            storeKey(vm, fresh + 24, key);
            if (link == kNullAddr)
                rootAddr = fresh;
            else
                vm.write<std::uint64_t>(link, fresh);
        }
        headerAddr = vm.allocLines(kCacheLineBytes);
        StructHeader h;
        h.root = rootAddr;
        h.type = StructType::BinaryTree;
        h.keyLen = static_cast<std::uint16_t>(keyLen);
        h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
        h.size = size;
        h.writeTo(vm, headerAddr);
    }

    Addr rootAddr = kNullAddr;
    Addr headerAddr = kNullAddr;
    std::size_t size = 0; ///< distinct keys
};

void
checkBst(const Items& items)
{
    Heap ref;
    Heap fast;
    const RefBst expected(ref.vm, items);
    const SimBst tree(fast.vm, items);
    EXPECT_EQ(tree.rootAddr(), expected.rootAddr);
    EXPECT_EQ(tree.headerAddr(), expected.headerAddr);
    std::set<Key, KeyLess> distinct;
    for (const auto& item : items)
        distinct.insert(item.first);
    EXPECT_EQ(tree.size(), distinct.size());
    expectSameHeap(ref.vm, fast.vm);
}

/**
 * @p n random items of @p key_len bytes, about one in eight a repeat
 * of an earlier key with a new value, plus an ascending and a
 * descending run of consecutive keys.
 */
Items
bstItems(std::size_t n, std::size_t key_len, std::uint64_t seed)
{
    Rng rng(seed);
    Items items;
    std::uint64_t value = 1;
    for (std::size_t i = 0; i < n; ++i) {
        if (!items.empty() && rng.below(8) == 0) {
            items.emplace_back(items[rng.below(items.size())].first,
                               value++);
        } else {
            items.emplace_back(randomKey(rng, key_len), value++);
        }
    }
    Key run = randomKey(rng, key_len);
    for (int i = 0; i < 16; ++i) {
        ++run.back();
        items.emplace_back(run, value++);
    }
    for (int i = 0; i < 16; ++i) {
        --run[key_len / 2];
        items.emplace_back(run, value++);
    }
    return items;
}

class BstBuild : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BstBuild, MatchesWalkingInsert)
{
    checkBst(bstItems(3000, GetParam(), 11 + GetParam()));
}

TEST_P(BstBuild, EveryKeyRepeated)
{
    Rng rng(5);
    Items items;
    for (int i = 0; i < 40; ++i)
        items.emplace_back(randomKey(rng, GetParam()), i);
    for (int i = 0; i < 40; ++i)
        items.emplace_back(items[static_cast<std::size_t>(i)].first,
                           1000 + i);
    checkBst(items);
}

// 72-byte keys make 96-byte nodes, which take the 8-aligned path.
INSTANTIATE_TEST_SUITE_P(KeyLengths, BstBuild,
                         ::testing::Values(8, 20, 64, 72));

TEST(BstBuildShape, PaperSizeJvmTree)
{
    Rng rng(7);
    Items items;
    for (std::size_t i = 0; i < 150 * 1000; ++i)
        items.emplace_back(randomKey(rng, 8), 0xA000 + i);
    checkBst(items);
}

TEST(BstBuildShape, SortedRunsDegenerateToChains)
{
    Items up;
    Items down;
    for (std::uint8_t i = 0; i < 50; ++i) {
        up.emplace_back(Key{0, 0, 0, i}, i);
        down.emplace_back(Key{0, 0, 0, static_cast<std::uint8_t>(99 - i)},
                          i);
    }
    checkBst(up);
    checkBst(down);
}

// -------------------------------------------------------- chained hash

/** Per-field chain inserts that read each bucket head back from vm. */
struct RefChainedHash
{
    RefChainedHash(VirtualMemory& vm, const Items& items,
                   std::size_t bucket_count, HashFunction hash_fn,
                   StructType as_type)
    {
        const auto keyLen =
            static_cast<std::uint32_t>(items.front().first.size());
        const Addr table = vm.allocLines(bucket_count * 8);
        for (std::size_t i = 0; i < bucket_count; ++i)
            vm.write<std::uint64_t>(table + i * 8, kNullAddr);
        const std::uint64_t nodeBytes = 16 + pad8(keyLen);
        const std::uint64_t align =
            nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
        for (const auto& [key, value] : items) {
            const std::uint64_t b =
                computeHash(hash_fn, key.data(), key.size()) &
                (bucket_count - 1);
            const Addr head = vm.read<std::uint64_t>(table + b * 8);
            const Addr node = vm.alloc(nodeBytes, align);
            vm.write<std::uint64_t>(node + 0, head);
            vm.write<std::uint64_t>(node + 8, value);
            storeKey(vm, node + 16, key);
            vm.write<std::uint64_t>(table + b * 8, node);
        }
        headerAddr = vm.allocLines(kCacheLineBytes);
        StructHeader h;
        h.root = table;
        h.type = as_type;
        h.keyLen = static_cast<std::uint16_t>(keyLen);
        h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
        h.size = items.size();
        h.aux0 = bucket_count - 1;
        h.hashFn = hash_fn;
        h.writeTo(vm, headerAddr);
    }

    Addr headerAddr = kNullAddr;
};

void
checkChainedHash(const Items& items, std::size_t bucket_count,
                 HashFunction hash_fn = HashFunction::Crc32c,
                 StructType as_type = StructType::ChainedHash)
{
    Heap ref;
    Heap fast;
    const RefChainedHash expected(ref.vm, items, bucket_count, hash_fn,
                                  as_type);
    const SimChainedHash table(fast.vm, items, bucket_count, hash_fn,
                               as_type);
    EXPECT_EQ(table.headerAddr(), expected.headerAddr);
    EXPECT_EQ(table.size(), items.size());
    expectSameHeap(ref.vm, fast.vm);
}

Items
randomItems(std::size_t n, std::size_t key_len, std::uint64_t seed)
{
    Rng rng(seed);
    Items items;
    for (std::size_t i = 0; i < n; ++i)
        items.emplace_back(randomKey(rng, key_len), 0xF000000 + i);
    return items;
}

TEST(ChainedHashBuild, FlannSizeTable)
{
    checkChainedHash(randomItems(30 * 1000, 20, 9), 8192,
                     HashFunction::Fnv1a);
}

TEST(ChainedHashBuild, OneBucketIsOneChain)
{
    checkChainedHash(randomItems(200, 16, 4), 1);
}

TEST(ChainedHashBuild, CollidingKeysAndLongNodes)
{
    // Repeated keys collide in one bucket; 72-byte keys make 88-byte,
    // 8-aligned nodes.
    Items items = randomItems(300, 72, 5);
    for (std::size_t i = 0; i < 100; ++i)
        items.emplace_back(items[i % 3].first, i);
    checkChainedHash(items, 16, HashFunction::Crc32c,
                     StructType::HashOfLists);
}

// ----------------------------------------------------------------- lsh

/** One fresh projected copy of every key per table. */
struct RefLsh
{
    RefLsh(VirtualMemory& vm, int tables, const Items& items, Rng& rng)
    {
        const std::size_t keyLen = items.front().first.size();
        std::size_t buckets = 64;
        while (buckets * 4 < items.size())
            buckets *= 2;
        for (int t = 0; t < tables; ++t) {
            masks.push_back(randomKey(rng, keyLen));
            Items projected;
            for (const auto& [key, id] : items) {
                Key out(keyLen);
                for (std::size_t i = 0; i < keyLen; ++i)
                    out[i] = key[i] ^ masks.back()[i];
                projected.emplace_back(std::move(out), id);
            }
            this->tables.push_back(std::make_unique<SimChainedHash>(
                vm, projected, buckets, HashFunction::Fnv1a));
        }
    }

    std::vector<Key> masks;
    std::vector<std::unique_ptr<SimChainedHash>> tables;
};

void
checkLsh(int tables, const Items& items, std::uint64_t seed)
{
    Heap ref;
    Heap fast;
    Rng refRng(seed);
    Rng fastRng(seed);
    const RefLsh expected(ref.vm, tables, items, refRng);
    SimLsh lsh(fast.vm, tables, items, fastRng);
    ASSERT_EQ(lsh.tableCount(), tables);
    for (int t = 0; t < tables; ++t) {
        const auto i = static_cast<std::size_t>(t);
        EXPECT_EQ(lsh.table(t).headerAddr(),
                  expected.tables[i]->headerAddr());
        Key zero(items.front().first.size(), 0);
        EXPECT_EQ(lsh.project(zero, t), expected.masks[i]);
    }
    EXPECT_EQ(fastRng.next(), refRng.next())
        << "the builders draw different numbers of projections";
    expectSameHeap(ref.vm, fast.vm);
}

TEST(LshBuild, PaperSizeFlannTables)
{
    // FLANN: 12 tables over 30 K 20-byte keys.
    checkLsh(12, randomItems(30 * 1000, 20, 11), 7);
}

TEST(LshBuild, OneTableWithRepeatedKeys)
{
    Items items = randomItems(100, 8, 12);
    for (std::size_t i = 0; i < 50; ++i)
        items.emplace_back(items[i % 4].first, 0xA000 + i);
    checkLsh(1, items, 3);
}

} // namespace
