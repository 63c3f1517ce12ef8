#include "bst.hh"

#include <algorithm>
#include <cstring>

namespace qei {

SimBst::SimBst(VirtualMemory& vm,
               const std::vector<std::pair<Key, std::uint64_t>>& items)
    : vm_(vm)
{
    simAssert(!items.empty(), "empty BST");
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());

    // Inserting the items in order without rebalancing builds the
    // Cartesian tree of the distinct keys: a search tree on the key
    // and a min-heap on the index of the key's first item. So sort the
    // items by (key, index) and build that tree with a stack instead
    // of walking one path per insert. A sort entry carries the key's
    // first 8 bytes big-endian, so most compares are one integer
    // compare.
    struct Entry
    {
        std::uint64_t prefix;
        std::uint32_t item;
    };
    auto tail = [&](const Entry& e) {
        return items[e.item].first.data() + 8;
    };
    auto keyOrder = [&](const Entry& a, const Entry& b) {
        if (a.prefix != b.prefix)
            return a.prefix < b.prefix ? -1 : 1;
        return keyLen_ > 8 ? std::memcmp(tail(a), tail(b), keyLen_ - 8)
                           : 0;
    };
    std::vector<Entry> sorted(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Key& key = items[i].first;
        simAssert(key.size() == keyLen_, "inconsistent key length");
        std::uint64_t prefix = 0;
        for (std::size_t b = 0; b < 8; ++b)
            prefix = (prefix << 8) | (b < keyLen_ ? key[b] : 0);
        sorted[i] = {prefix, static_cast<std::uint32_t>(i)};
    }
    std::sort(sorted.begin(), sorted.end(),
              [&](const Entry& a, const Entry& b) {
                  const int c = keyOrder(a, b);
                  return c != 0 ? c < 0 : a.item < b.item;
              });

    // One node per distinct key, in key order: its first item places
    // it, its last item's value wins (a repeated key overwrites).
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Node
    {
        std::uint32_t first;
        std::uint32_t last;
        std::uint32_t left = kNone;
        std::uint32_t right = kNone;
    };
    std::vector<Node> nodes;
    nodes.reserve(items.size());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
        if (k > 0 && keyOrder(sorted[k - 1], sorted[k]) == 0)
            nodes.back().last = sorted[k].item;
        else
            nodes.push_back({sorted[k].item, sorted[k].item});
    }
    size_ = nodes.size();
    std::vector<std::uint32_t> spine; // the rightmost path, root first
    for (std::uint32_t d = 0; d < nodes.size(); ++d) {
        std::uint32_t below = kNone;
        while (!spine.empty() &&
               nodes[spine.back()].first > nodes[d].first) {
            below = spine.back();
            spine.pop_back();
        }
        nodes[d].left = below;
        if (!spine.empty())
            nodes[spine.back()].right = d;
        spine.push_back(d);
    }

    // Allocate in insertion order of the distinct keys, then write
    // each node once: [left][right][value][key], no padding.
    const std::uint64_t nodeBytes = 24 + pad8(keyLen_);
    // Line-align nodes that fit a cacheline (single staged fetch).
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    std::vector<std::uint32_t> firstOf(items.size(), kNone);
    for (std::uint32_t d = 0; d < nodes.size(); ++d)
        firstOf[nodes[d].first] = d;
    std::vector<Addr> addrs(nodes.size());
    for (const std::uint32_t d : firstOf) {
        if (d != kNone)
            addrs[d] = vm_.alloc(nodeBytes, align);
    }
    auto addrOf = [&](std::uint32_t d) {
        return d == kNone ? kNullAddr : addrs[d];
    };
    std::vector<std::uint8_t> image(24 + keyLen_);
    for (const std::uint32_t d : firstOf) {
        if (d == kNone)
            continue;
        const Node& node = nodes[d];
        const Addr fields[3] = {addrOf(node.left), addrOf(node.right),
                                items[node.last].second};
        std::memcpy(image.data(), fields, sizeof(fields));
        std::memcpy(image.data() + 24, items[node.first].first.data(),
                    keyLen_);
        vm_.writeBytes(addrs[d], image.data(), image.size());
    }
    root_ = addrs[spine.front()];

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::BinaryTree;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = size_;
    h.writeTo(vm_, headerAddr_);
}

QueryTrace
SimBst::query(const Key& key) const
{
    simAssert(key.size() == keyLen_, "bad query key length");
    QueryTrace trace;
    const std::uint32_t perNode = 10 + memcmpInstrCost(keyLen_);

    Addr node = root_;
    bool first = true;
    while (node != kNullAddr) {
        MemTouch touch;
        touch.vaddr = node;
        touch.dependsOnPrev = !first;
        touch.instrBefore = first ? 4 : perNode;
        touch.branchesBefore = 3;
        // The left/right decision is data dependent and essentially
        // random for a search tree: half the branches mispredict.
        touch.mispredictsBefore = first ? 0 : 1;
        trace.touches.push_back(touch);
        first = false;

        const Key stored = loadKey(vm_, node + 24, keyLen_);
        const int c = compareKeys(stored, key);
        if (c == 0) {
            trace.found = true;
            trace.resultValue = vm_.read<std::uint64_t>(node + 16);
            break;
        }
        node = vm_.read<std::uint64_t>(node + (c < 0 ? 8 : 0));
    }
    trace.instrAfter = 4;
    trace.branchesAfter = 1;
    trace.mispredictsAfter = 1;
    return trace;
}

Addr
SimBst::stageKey(const Key& key)
{
    simAssert(key.size() == keyLen_, "bad staged key length");
    // Line-aligned so a staged key of up to 64 B is one fetch.
    const Addr addr = vm_.alloc(pad8(keyLen_), kCacheLineBytes);
    storeKey(vm_, addr, key);
    return addr;
}

void
SimBst::accumulateDepth(Addr node, std::uint64_t depth,
                        std::uint64_t& total,
                        std::uint64_t& count) const
{
    if (node == kNullAddr)
        return;
    total += depth;
    ++count;
    accumulateDepth(vm_.read<std::uint64_t>(node + 0), depth + 1, total,
                    count);
    accumulateDepth(vm_.read<std::uint64_t>(node + 8), depth + 1, total,
                    count);
}

double
SimBst::averageDepth() const
{
    std::uint64_t total = 0;
    std::uint64_t count = 0;
    accumulateDepth(root_, 1, total, count);
    return count ? static_cast<double>(total) /
                       static_cast<double>(count)
                 : 0.0;
}

} // namespace qei
