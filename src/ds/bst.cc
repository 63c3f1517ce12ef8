#include "bst.hh"

namespace qei {

SimBst::SimBst(VirtualMemory& vm,
               const std::vector<std::pair<Key, std::uint64_t>>& items)
    : vm_(vm)
{
    simAssert(!items.empty(), "empty BST");
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());
    size_ = items.size();

    std::vector<std::uint8_t> scratch;
    for (const auto& [key, value] : items) {
        simAssert(key.size() == keyLen_, "inconsistent key length");
        insert(key, value, scratch);
    }

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::BinaryTree;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = size_;
    h.writeTo(vm_, headerAddr_);
}

void
SimBst::insert(const Key& key, std::uint64_t value,
               std::vector<std::uint8_t>& scratch)
{
    // Walk down to the null link the key belongs at; kNullAddr stands
    // for root_.
    Addr link = kNullAddr;
    for (Addr node = root_; node != kNullAddr;
         node = vm_.read<std::uint64_t>(link)) {
        const std::uint8_t* stored =
            vm_.spanOrCopy(node + 24, keyLen_, scratch);
        const int c = std::memcmp(stored, key.data(), keyLen_);
        if (c == 0) {
            vm_.write<std::uint64_t>(node + 16, value); // overwrite
            return;
        }
        // stored < key: go right.
        link = node + (c < 0 ? 8 : 0);
    }

    const std::uint64_t nodeBytes = 24 + pad8(keyLen_);
    // Line-align nodes that fit a cacheline (single staged fetch).
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    const Addr fresh = vm_.alloc(nodeBytes, align);
    vm_.write<std::uint64_t>(fresh + 0, kNullAddr);
    vm_.write<std::uint64_t>(fresh + 8, kNullAddr);
    vm_.write<std::uint64_t>(fresh + 16, value);
    storeKey(vm_, fresh + 24, key);
    if (link == kNullAddr)
        root_ = fresh;
    else
        vm_.write<std::uint64_t>(link, fresh);
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
