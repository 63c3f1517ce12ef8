/**
 * @file
 * Key helpers shared by the data-structure builders and workloads:
 * fixed-length byte keys, deterministic generation, and the
 * instruction-cost model for a software memcmp of a given length.
 */

#ifndef QEI_DS_KEYS_HH
#define QEI_DS_KEYS_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/** A fixed-length binary key. */
using Key = std::vector<std::uint8_t>;

/** Generate a uniformly random key of @p len bytes. */
inline Key
randomKey(Rng& rng, std::size_t len)
{
    Key k(len);
    for (auto& b : k)
        b = static_cast<std::uint8_t>(rng.below(256));
    return k;
}

/** Three-way lexicographic compare (the hardware comparators' order). */
inline int
compareKeys(const Key& a, const Key& b)
{
    simAssert(a.size() == b.size(), "key length mismatch {} vs {}",
              a.size(), b.size());
    return std::memcmp(a.data(), b.data(), a.size());
}

/**
 * compareKeys as a strict weak order, for ordered containers of
 * equal-length keys (std::map<Key, V, KeyLess>).
 */
struct KeyLess
{
    bool
    operator()(const Key& a, const Key& b) const
    {
        return compareKeys(a, b) < 0;
    }
};

/** Write a key into simulated memory at @p vaddr. */
inline void
storeKey(VirtualMemory& vm, Addr vaddr, const Key& key)
{
    vm.writeBytes(vaddr, key.data(), key.size());
}

/** Read a key of @p len bytes from simulated memory. */
inline Key
loadKey(const VirtualMemory& vm, Addr vaddr, std::size_t len)
{
    Key k(len);
    vm.readBytes(vaddr, k.data(), len);
    return k;
}

/** Round @p n up to a multiple of 8 (field alignment in node layouts). */
constexpr std::uint64_t
pad8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t{7};
}

/**
 * Dynamic instruction cost of `memcmp(a, b, len)` on the baseline core:
 * an 8-byte-at-a-time loop (load+load+cmp+branch per chunk) plus call
 * overhead — the constant behind "hundreds of dynamic instructions"
 * per query (Sec. II-A).
 */
constexpr std::uint32_t
memcmpInstrCost(std::uint32_t len)
{
    return 6 + 4 * static_cast<std::uint32_t>(divCeil(len, 8));
}

} // namespace qei

#endif // QEI_DS_KEYS_HH
