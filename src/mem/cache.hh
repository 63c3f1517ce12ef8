/**
 * @file
 * Set-associative write-back cache timing/state model.
 *
 * Tag-array only: data always lives in SimMemory (single coherence
 * domain, one writer at a time), so the model tracks presence, dirty
 * bits, and true LRU order per set.
 *
 * A set is `ways` packed entries `(tag << 1) | dirty`, ordered from most
 * to least recently used: valid entries first, kEmpty after them. A hit
 * moves its entry to the front, a fill inserts there and evicts the
 * last entry of a full set, so the victim is always the true-LRU line.
 * flushAll() only advances an epoch: a set last filled in an older
 * epoch reads as empty and is cleared by its next fill.
 */

#ifndef QEI_MEM_CACHE_HH
#define QEI_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace qei {

/** Cache geometry and latency. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    Cycles accessLatency = 4;
};

/** Result of a cache access or fill. */
struct CacheAccess
{
    bool hit = false;
    /** Physical line address of a dirty victim, if one was evicted. */
    std::optional<Addr> writeback;
};

/** One set-associative cache level. */
class Cache : public SimObject
{
  public:
    explicit Cache(const CacheParams& params);

    void regStats(StatsRegistry& registry) override;

    /**
     * Access the line containing @p paddr; on a miss the line is NOT
     * filled automatically (callers fill on response to model
     * allocate-on-fill).
     */
    bool access(Addr paddr, bool is_write);

    /** Probe without updating LRU or stats. */
    bool probe(Addr paddr) const;

    /** Insert the line containing @p paddr; returns any dirty victim. */
    CacheAccess fill(Addr paddr, bool dirty = false);

    /**
     * Start loading the host memory that a lookup of @p paddr reads
     * (its set's row and epoch word), so a later access(), fill() or
     * probe() of it finds them cached. No simulated effect.
     */
    void
    prefetch(Addr paddr) const
    {
        const auto set = static_cast<std::uint32_t>(
            (paddr / kCacheLineBytes) & (sets_ - 1));
        __builtin_prefetch(entries_.get() + std::size_t{set} * params_.ways);
        __builtin_prefetch(setEpoch_.data() + set);
    }

    /** Drop the line containing @p paddr if present. */
    void invalidate(Addr paddr);

    /** Drop everything (used between independent experiments). */
    void flushAll();

    /** Zero the hit/miss/eviction counters (fresh measurement). */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
        evictions_.reset();
        writebacks_.reset();
    }

    const CacheParams& params() const { return params_; }
    Cycles latency() const { return params_.accessLatency; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    double
    hitRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(hits_.value()) / total : 0.0;
    }

    std::uint32_t sets() const { return sets_; }

  private:
    /** Entry of an unused way; no real tag shifts to it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /** Way of @p tag in a live @p row, or `ways` if absent. */
    std::uint32_t find(const std::uint64_t* row, Addr tag) const;

    /** Where a line sits: its set's row and its way in it. */
    struct Slot
    {
        std::uint64_t* row;
        std::uint32_t way; ///< `ways` if not cached or the row is stale
    };
    Slot locate(Addr paddr) const;

    CacheParams params_;
    std::uint32_t sets_;
    std::uint32_t setBits_;
    /** sets_ rows of `ways` entries, MRU first; starts uninitialised. */
    std::unique_ptr<std::uint64_t[]> entries_;
    std::vector<std::uint64_t> setEpoch_; ///< epoch of each row's contents
    std::uint64_t epoch_ = 1;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter writebacks_;
};

} // namespace qei

#endif // QEI_MEM_CACHE_HH
