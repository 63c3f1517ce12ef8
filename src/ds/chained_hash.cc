#include "chained_hash.hh"

namespace qei {

SimChainedHash::SimChainedHash(
    VirtualMemory& vm,
    const std::vector<std::pair<Key, std::uint64_t>>& items,
    std::size_t bucket_count, HashFunction hash_fn, StructType as_type)
    : vm_(vm), hashFn_(hash_fn)
{
    simAssert(!items.empty(), "empty hash table");
    simAssert(isPowerOfTwo(bucket_count),
              "bucket count {} not a power of two", bucket_count);
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());
    mask_ = bucket_count - 1;
    size_ = items.size();

    table_ = vm_.allocLines(bucket_count * 8);

    const std::uint64_t nodeBytes = 16 + pad8(keyLen_);
    // Line-align chain nodes that fit a cacheline.
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    // Each item is prepended to its bucket's chain: the bucket heads
    // live on the host, each node is written once ([next][value][key])
    // and the bucket array once, after the last item.
    std::vector<Addr> heads(bucket_count, kNullAddr);
    std::vector<std::uint8_t> image(16 + keyLen_);
    for (const auto& [key, value] : items) {
        simAssert(key.size() == keyLen_, "inconsistent key length");
        Addr& head = heads[bucketOf(key)];
        const Addr node = vm_.alloc(nodeBytes, align);
        const std::uint64_t fields[2] = {head, value};
        std::memcpy(image.data(), fields, sizeof(fields));
        std::memcpy(image.data() + 16, key.data(), keyLen_);
        vm_.writeBytes(node, image.data(), image.size());
        head = node;
    }
    vm_.writeBytes(table_, heads.data(), bucket_count * 8);

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = table_;
    h.type = as_type;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = size_;
    h.aux0 = mask_;
    h.hashFn = hashFn_;
    h.writeTo(vm_, headerAddr_);
}

std::uint64_t
SimChainedHash::bucketOf(const Key& key) const
{
    return computeHash(hashFn_, key.data(), key.size()) & mask_;
}

QueryTrace
SimChainedHash::query(const Key& key) const
{
    simAssert(key.size() == keyLen_, "bad query key length");
    QueryTrace trace;
    // Software lookup: hash the key, index the bucket array, walk the
    // chain. The hash costs ~3 instructions per 8 key bytes (CRC32
    // instruction loop) plus setup.
    const std::uint32_t hashInstr =
        10 + 3 * static_cast<std::uint32_t>(divCeil(keyLen_, 8));
    const std::uint32_t perNode = 8 + memcmpInstrCost(keyLen_);

    const std::uint64_t b = bucketOf(key);

    MemTouch headTouch;
    headTouch.vaddr = table_ + b * 8;
    headTouch.dependsOnPrev = false; // address known after hashing
    headTouch.instrBefore = hashInstr;
    headTouch.branchesBefore = 1;
    trace.touches.push_back(headTouch);

    Addr node = vm_.read<std::uint64_t>(table_ + b * 8);
    while (node != kNullAddr) {
        MemTouch touch;
        touch.vaddr = node;
        touch.dependsOnPrev = true;
        touch.instrBefore = perNode;
        touch.branchesBefore = 3;
        trace.touches.push_back(touch);

        const Key stored = loadKey(vm_, node + 16, keyLen_);
        if (compareKeys(stored, key) == 0) {
            trace.found = true;
            trace.resultValue = vm_.read<std::uint64_t>(node + 8);
            break;
        }
        node = vm_.read<std::uint64_t>(node);
    }
    trace.instrAfter = 4;
    trace.branchesAfter = 1;
    trace.mispredictsAfter = 1;
    return trace;
}

QueryTrace
SimChainedHash::insert(const Key& key, std::uint64_t value)
{
    simAssert(key.size() == keyLen_, "bad insert key length");
    QueryTrace trace;
    const std::uint64_t b = bucketOf(key);
    const Addr headSlot = table_ + b * 8;

    // Walk the chain looking for an existing node (load touches).
    MemTouch headTouch;
    headTouch.vaddr = headSlot;
    headTouch.dependsOnPrev = false;
    headTouch.computeLatency = 14;
    headTouch.instrBefore =
        12 + 3 * static_cast<std::uint32_t>(divCeil(keyLen_, 8));
    trace.touches.push_back(headTouch);

    Addr node = vm_.read<std::uint64_t>(headSlot);
    while (node != kNullAddr) {
        MemTouch t;
        t.vaddr = node;
        t.instrBefore = 8 + memcmpInstrCost(keyLen_);
        t.branchesBefore = 3;
        trace.touches.push_back(t);
        if (compareKeys(loadKey(vm_, node + 16, keyLen_), key) == 0) {
            // Overwrite in place: one store.
            vm_.write<std::uint64_t>(node + 8, value);
            MemTouch st;
            st.vaddr = node + 8;
            st.isStore = true;
            st.instrBefore = 2;
            trace.touches.push_back(st);
            trace.found = true;
            trace.resultValue = value;
            return trace;
        }
        node = vm_.read<std::uint64_t>(node);
    }

    // Fresh node: allocate, fill (stores), link at the head (store).
    const std::uint64_t nodeBytes = 16 + pad8(keyLen_);
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    const Addr fresh = vm_.alloc(nodeBytes, align);
    vm_.write<std::uint64_t>(fresh + 0,
                             vm_.read<std::uint64_t>(headSlot));
    vm_.write<std::uint64_t>(fresh + 8, value);
    storeKey(vm_, fresh + 16, key);
    vm_.write<std::uint64_t>(headSlot, fresh);
    ++size_;

    MemTouch fill;
    fill.vaddr = fresh;
    fill.isStore = true;
    fill.instrBefore =
        20 + 2 * static_cast<std::uint32_t>(divCeil(keyLen_, 8));
    trace.touches.push_back(fill);
    MemTouch link;
    link.vaddr = headSlot;
    link.isStore = true;
    link.instrBefore = 2;
    trace.touches.push_back(link);
    trace.found = false;
    trace.resultValue = value;
    trace.instrAfter = 4;
    return trace;
}

QueryTrace
SimChainedHash::erase(const Key& key)
{
    simAssert(key.size() == keyLen_, "bad erase key length");
    QueryTrace trace;
    const std::uint64_t b = bucketOf(key);
    Addr prevSlot = table_ + b * 8;

    MemTouch headTouch;
    headTouch.vaddr = prevSlot;
    headTouch.dependsOnPrev = false;
    headTouch.computeLatency = 14;
    headTouch.instrBefore =
        12 + 3 * static_cast<std::uint32_t>(divCeil(keyLen_, 8));
    trace.touches.push_back(headTouch);

    Addr node = vm_.read<std::uint64_t>(prevSlot);
    while (node != kNullAddr) {
        MemTouch t;
        t.vaddr = node;
        t.instrBefore = 8 + memcmpInstrCost(keyLen_);
        t.branchesBefore = 3;
        trace.touches.push_back(t);
        if (compareKeys(loadKey(vm_, node + 16, keyLen_), key) == 0) {
            // Unlink: a single store to the predecessor slot.
            vm_.write<std::uint64_t>(prevSlot,
                                     vm_.read<std::uint64_t>(node));
            --size_;
            MemTouch st;
            st.vaddr = prevSlot;
            st.isStore = true;
            st.instrBefore = 3;
            trace.touches.push_back(st);
            trace.found = true;
            return trace;
        }
        prevSlot = node; // next pointer lives at offset 0
        node = vm_.read<std::uint64_t>(node);
    }
    trace.found = false;
    trace.instrAfter = 4;
    trace.mispredictsAfter = 1;
    return trace;
}

Addr
SimChainedHash::stageKey(const Key& key)
{
    simAssert(key.size() == keyLen_, "bad staged key length");
    // Line-aligned so a staged key of up to 64 B is one fetch.
    const Addr addr = vm_.alloc(pad8(keyLen_), kCacheLineBytes);
    storeKey(vm_, addr, key);
    return addr;
}

double
SimChainedHash::averageChainLength() const
{
    std::uint64_t nodes = 0;
    std::uint64_t nonEmpty = 0;
    for (std::uint64_t b = 0; b <= mask_; ++b) {
        Addr node = vm_.read<std::uint64_t>(table_ + b * 8);
        if (node != kNullAddr)
            ++nonEmpty;
        while (node != kNullAddr) {
            ++nodes;
            node = vm_.read<std::uint64_t>(node);
        }
    }
    return nonEmpty ? static_cast<double>(nodes) /
                          static_cast<double>(nonEmpty)
                    : 0.0;
}

} // namespace qei
