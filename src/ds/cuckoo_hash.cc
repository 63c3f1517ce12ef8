#include "cuckoo_hash.hh"

namespace qei {

SimCuckooHash::SimCuckooHash(VirtualMemory& vm, std::size_t bucket_count,
                             std::uint32_t key_len, HashFunction hash_fn)
    : vm_(vm), keyLen_(key_len), hashFn_(hash_fn)
{
    simAssert(isPowerOfTwo(bucket_count),
              "bucket count {} not a power of two", bucket_count);
    mask_ = bucket_count - 1;
    table_ = vm_.allocLines(bucket_count * kBucketBytes);
    for (std::uint64_t b = 0; b < bucket_count; ++b) {
        for (int e = 0; e < kEntriesPerBucket; ++e) {
            vm_.write<std::uint64_t>(entryAddr(b, e), 0);
            vm_.write<std::uint64_t>(entryAddr(b, e) + 8, 0);
        }
    }

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = table_;
    h.type = StructType::CuckooHash;
    h.subtype = kEntriesPerBucket;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagRemoteCompareOk; // keys behind kv pointers
    h.size = 0;
    h.aux0 = mask_;
    h.hashFn = hashFn_;
    h.writeTo(vm_, headerAddr_);
}

std::uint64_t
SimCuckooHash::hashOf(const Key& key) const
{
    std::uint64_t h = computeHash(hashFn_, key.data(), key.size());
    // A zero signature means "empty entry"; avoid it.
    return h == 0 ? 1 : h;
}

Addr
SimCuckooHash::entryAddr(std::uint64_t bucket, int entry) const
{
    return table_ + bucket * kBucketBytes +
           static_cast<Addr>(entry) * 16;
}

std::optional<SimCuckooHash::Slot>
SimCuckooHash::findFree(std::uint64_t bucket) const
{
    for (int e = 0; e < kEntriesPerBucket; ++e) {
        if (vm_.read<std::uint64_t>(entryAddr(bucket, e)) == 0)
            return Slot{bucket, e};
    }
    return std::nullopt;
}

bool
SimCuckooHash::place(std::uint64_t sig, Addr kv, int depth, Rng& rng)
{
    if (depth > 32)
        return false; // give up: table too loaded
    const std::uint64_t primary = sig & mask_;
    const std::uint64_t secondary = (sig >> 32) & mask_;

    for (std::uint64_t b : {primary, secondary}) {
        if (auto slot = findFree(b)) {
            vm_.write<std::uint64_t>(entryAddr(slot->bucket, slot->entry),
                                     sig);
            vm_.write<std::uint64_t>(
                entryAddr(slot->bucket, slot->entry) + 8, kv);
            return true;
        }
    }

    // Displace a random victim from the primary bucket.
    const int victim =
        static_cast<int>(rng.below(kEntriesPerBucket));
    const Addr vAddr = entryAddr(primary, victim);
    const std::uint64_t vSig = vm_.read<std::uint64_t>(vAddr);
    const Addr vKv = vm_.read<std::uint64_t>(vAddr + 8);
    vm_.write<std::uint64_t>(vAddr, sig);
    vm_.write<std::uint64_t>(vAddr + 8, kv);
    return place(vSig, vKv, depth + 1, rng);
}

bool
SimCuckooHash::insert(const Key& key, std::uint64_t value)
{
    simAssert(key.size() == keyLen_, "inconsistent key length");
    const std::uint64_t sig = hashOf(key);
    const Addr kv = vm_.alloc(8 + pad8(keyLen_), 8);
    vm_.write<std::uint64_t>(kv, value);
    storeKey(vm_, kv + 8, key);
    Rng rng(sig ^ 0xC0FFEE);
    if (!place(sig, kv, 0, rng))
        return false;
    ++size_;
    return true;
}

QueryTrace
SimCuckooHash::query(const Key& key) const
{
    simAssert(key.size() == keyLen_, "bad query key length");
    QueryTrace trace;
    const std::uint64_t sig = hashOf(key);
    const std::uint64_t primary = sig & mask_;
    const std::uint64_t secondary = (sig >> 32) & mask_;

    // Software: hash (CRC32 loop), probe primary bucket lines with
    // SIMD signature compare, fetch the kv record only on a hit.
    const std::uint32_t hashInstr =
        12 + 3 * static_cast<std::uint32_t>(divCeil(keyLen_, 8));
    const std::uint32_t bucketScanInstr = 14; // SIMD sig compare + mask

    bool firstTouch = true;
    auto probeBucket = [&](std::uint64_t bucket,
                           bool& found) -> void {
        // Two cacheline touches per bucket (independent of matches).
        for (int half = 0; half < 2; ++half) {
            MemTouch touch;
            touch.vaddr =
                table_ + bucket * kBucketBytes + half * 64ULL;
            touch.dependsOnPrev = false; // address from the hash only
            touch.instrBefore =
                firstTouch ? hashInstr : bucketScanInstr;
            touch.branchesBefore = 2;
            firstTouch = false;
            trace.touches.push_back(touch);
        }
        for (int e = 0; e < kEntriesPerBucket && !found; ++e) {
            const Addr ea = entryAddr(bucket, e);
            if (vm_.read<std::uint64_t>(ea) != sig)
                continue;
            const Addr kv = vm_.read<std::uint64_t>(ea + 8);
            MemTouch kvTouch;
            kvTouch.vaddr = kv;
            kvTouch.dependsOnPrev = true; // pointer from the entry
            kvTouch.instrBefore =
                4 + memcmpInstrCost(keyLen_);
            kvTouch.branchesBefore = 2;
            kvTouch.mispredictsBefore = 1;
            trace.touches.push_back(kvTouch);
            const Key stored = loadKey(vm_, kv + 8, keyLen_);
            if (compareKeys(stored, key) == 0) {
                found = true;
                trace.found = true;
                trace.resultValue = vm_.read<std::uint64_t>(kv);
            }
        }
    };

    bool found = false;
    probeBucket(primary, found);
    if (!found && secondary != primary)
        probeBucket(secondary, found);

    trace.instrAfter = 6;
    trace.branchesAfter = 1;
    trace.mispredictsAfter = 1;
    return trace;
}

Addr
SimCuckooHash::stageKey(const Key& key)
{
    simAssert(key.size() == keyLen_, "bad staged key length");
    // Line-aligned so a staged key of up to 64 B is one fetch.
    const Addr addr = vm_.alloc(pad8(keyLen_), kCacheLineBytes);
    storeKey(vm_, addr, key);
    return addr;
}

} // namespace qei
