/**
 * @file
 * DPDK-style bucketed cuckoo hash table in simulated memory — the
 * structure behind the DPDK L3-FIB and tuple-space workloads.
 *
 * Layout: root -> bucket array. One bucket = 8 entries x 16 B = two
 * cachelines; entry = [sig 8][kv-record ptr 8]; kv record =
 * [value 8][key keyLen]. A key hashes to a primary bucket
 * (h & mask) and an alternate bucket ((h >> 32) & mask); inserts
 * displace entries cuckoo-style, lookups check the signature word
 * before touching the kv record (the DPDK fast path).
 */

#ifndef QEI_DS_CUCKOO_HASH_HH
#define QEI_DS_CUCKOO_HASH_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.hh"
#include "common/random.hh"
#include "core/trace.hh"
#include "ds/keys.hh"
#include "qei/struct_header.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/** Builder + reference query for the in-sim-memory cuckoo table. */
class SimCuckooHash
{
  public:
    static constexpr int kEntriesPerBucket = 8;
    static constexpr std::uint64_t kBucketBytes = 128;

    SimCuckooHash(VirtualMemory& vm, std::size_t bucket_count,
                  std::uint32_t key_len,
                  HashFunction hash_fn = HashFunction::Crc32c);

    /** Insert one pair; false when a cuckoo path could not be found. */
    bool insert(const Key& key, std::uint64_t value);

    Addr headerAddr() const { return headerAddr_; }
    std::uint32_t keyLen() const { return keyLen_; }
    std::size_t size() const { return size_; }
    std::size_t bucketCount() const { return mask_ + 1; }
    double loadFactor() const
    {
        return static_cast<double>(size_) /
               (static_cast<double>(bucketCount()) * kEntriesPerBucket);
    }

    /** Software reference lookup with baseline trace. */
    QueryTrace query(const Key& key) const;

    Addr stageKey(const Key& key);

  private:
    struct Slot
    {
        std::uint64_t bucket;
        int entry;
    };

    std::uint64_t hashOf(const Key& key) const;
    Addr entryAddr(std::uint64_t bucket, int entry) const;
    std::optional<Slot> findFree(std::uint64_t bucket) const;
    bool place(std::uint64_t sig, Addr kv, int depth, Rng& rng);

    VirtualMemory& vm_;
    Addr headerAddr_ = kNullAddr;
    Addr table_ = kNullAddr;
    std::uint64_t mask_ = 0;
    std::uint32_t keyLen_ = 0;
    std::size_t size_ = 0;
    HashFunction hashFn_;
};

} // namespace qei

#endif // QEI_DS_CUCKOO_HASH_HH
