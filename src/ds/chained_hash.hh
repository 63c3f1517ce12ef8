/**
 * @file
 * Chained hash table in simulated memory. Also serves as the building
 * block for the FLANN-style LSH table set and the combined
 * hash-of-lists structure.
 *
 * Layout: root -> array of bucket-head pointers (2^n buckets, mask in
 * header.aux0); chain nodes use the linked-list layout
 * [next 8][value 8][key keyLen].
 *
 * The builder keeps the bucket heads on the host while it prepends
 * each item to its chain (one write per node, in item order), then
 * writes the bucket array once.
 */

#ifndef QEI_DS_CHAINED_HASH_HH
#define QEI_DS_CHAINED_HASH_HH

#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "core/trace.hh"
#include "ds/keys.hh"
#include "qei/struct_header.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/** Builder + reference query for an in-sim-memory chained hash. */
class SimChainedHash
{
  public:
    /**
     * @param bucket_count power-of-two bucket count
     * @param as_type written into the header: ChainedHash or
     *        HashOfLists (the combined-structure subtype)
     */
    SimChainedHash(VirtualMemory& vm,
                   const std::vector<std::pair<Key, std::uint64_t>>& items,
                   std::size_t bucket_count,
                   HashFunction hash_fn = HashFunction::Crc32c,
                   StructType as_type = StructType::ChainedHash);

    Addr headerAddr() const { return headerAddr_; }
    std::uint32_t keyLen() const { return keyLen_; }
    std::size_t size() const { return size_; }
    std::size_t bucketCount() const { return mask_ + 1; }

    /** Software reference lookup with baseline trace. */
    QueryTrace query(const Key& key) const;

    /**
     * Software update path (Sec. IV-A: inserts/deletes stay on the
     * core). Prepends a node to the key's bucket, or overwrites the
     * value when the key is already present; the trace records the
     * loads *and stores* the routine performs.
     */
    QueryTrace insert(const Key& key, std::uint64_t value);

    /** Software removal; trace.found reports whether a node died. */
    QueryTrace erase(const Key& key);

    Addr stageKey(const Key& key);

    /** Mean chain length over non-empty buckets. */
    double averageChainLength() const;

  private:
    std::uint64_t bucketOf(const Key& key) const;

    VirtualMemory& vm_;
    Addr headerAddr_ = kNullAddr;
    Addr table_ = kNullAddr;
    std::uint64_t mask_ = 0;
    std::uint32_t keyLen_ = 0;
    std::size_t size_ = 0;
    HashFunction hashFn_;
};

} // namespace qei

#endif // QEI_DS_CHAINED_HASH_HH
