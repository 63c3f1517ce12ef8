/**
 * @file
 * Hash functions shared by the software data structures and by the QEI
 * Data Processing Unit's hashing element.
 *
 * The DPU hash unit in the paper "supports common hash functions"; we
 * provide CRC32-C (the DPDK rte_hash default on x86), Jenkins lookup3
 * (the DPDK fallback), and FNV-1a (used by the LSH tables). All are
 * plain software implementations over byte buffers in simulated memory.
 */

#ifndef QEI_COMMON_HASH_HH
#define QEI_COMMON_HASH_HH

#include <cstdint>
#include <cstddef>

namespace qei {

/** CRC32-C (Castagnoli) over @p len bytes, software table-driven. */
std::uint32_t crc32c(const void* data, std::size_t len,
                     std::uint32_t init = 0xFFFFFFFFu);

/** Jenkins lookup3-style hash (matches DPDK's rte_jhash semantics). */
std::uint32_t jhash(const void* data, std::size_t len,
                    std::uint32_t init = 0);

/** 64-bit FNV-1a. */
std::uint64_t fnv1a64(const void* data, std::size_t len);

/** 64-bit avalanche finalizer (MurmurHash3 fmix64). */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/** Identifiers for the hash functions the DPU hash unit implements. */
enum class HashFunction : std::uint8_t {
    Crc32c = 0,
    Jenkins = 1,
    Fnv1a = 2,
};

/** Dispatch one of the supported functions; returns a 64-bit digest. */
std::uint64_t computeHash(HashFunction fn, const void* data,
                          std::size_t len, std::uint64_t seed = 0);

} // namespace qei

#endif // QEI_COMMON_HASH_HH
