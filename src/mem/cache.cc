#include "cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace qei {

Cache::Cache(const CacheParams& params)
    : SimObject(params.name), params_(params)
{
    const std::uint64_t lines = params_.sizeBytes / kCacheLineBytes;
    simAssert(lines >= params_.ways && params_.ways > 0,
              "{}: bad geometry ({} B, {} ways)", params_.name,
              params_.sizeBytes, params_.ways);
    sets_ = static_cast<std::uint32_t>(lines / params_.ways);
    simAssert(isPowerOfTwo(sets_), "{}: set count {} not a power of two",
              params_.name, sets_);
    setBits_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
    // Every row starts stale (epoch 0 < epoch_), so no entry is read
    // before its row's first fill writes it.
    entries_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        static_cast<std::size_t>(sets_) * params_.ways);
    setEpoch_.assign(sets_, 0);
}

void
Cache::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "hits", hits_, "demand hits");
    registry.addCounter(base + "misses", misses_, "demand misses");
    registry.addCounter(base + "evictions", evictions_,
                        "lines evicted");
    registry.addCounter(base + "writebacks", writebacks_,
                        "dirty victims written back");
    registry.addFormula(
        base + "hit_rate", [this] { return hitRate(); },
        "hits / (hits + misses)");
}

std::uint32_t
Cache::find(const std::uint64_t* row, Addr tag) const
{
    std::uint32_t w = 0;
    while (w < params_.ways && (row[w] >> 1) != tag)
        ++w;
    return w;
}

Cache::Slot
Cache::locate(Addr paddr) const
{
    const Addr line = paddr / kCacheLineBytes;
    const auto set = static_cast<std::uint32_t>(line & (sets_ - 1));
    std::uint64_t* row = entries_.get() + std::size_t{set} * params_.ways;
    if (setEpoch_[set] != epoch_)
        return {row, params_.ways};
    return {row, find(row, line >> setBits_)};
}

bool
Cache::access(Addr paddr, bool is_write)
{
    const auto [row, w] = locate(paddr);
    if (w == params_.ways) {
        misses_.inc();
        return false;
    }
    const std::uint64_t entry = row[w] | static_cast<std::uint64_t>(is_write);
    std::memmove(row + 1, row, w * sizeof(*row));
    row[0] = entry;
    hits_.inc();
    return true;
}

bool
Cache::probe(Addr paddr) const
{
    return locate(paddr).way != params_.ways;
}

CacheAccess
Cache::fill(Addr paddr, bool dirty)
{
    CacheAccess result;
    const Addr line = paddr / kCacheLineBytes;
    const auto set = static_cast<std::uint32_t>(line & (sets_ - 1));
    const Addr tag = line >> setBits_;
    std::uint64_t* row = entries_.get() + std::size_t{set} * params_.ways;
    if (setEpoch_[set] != epoch_) {
        setEpoch_[set] = epoch_;
        std::fill_n(row, params_.ways, kEmpty);
    }

    // Already present (e.g. racing fills): just refresh, as a hit.
    std::uint32_t w = find(row, tag);
    if (w != params_.ways) {
        result.hit = true;
        dirty = dirty || (row[w] & 1);
    } else {
        // Insert at the MRU end; a full set's LRU entry falls off.
        w = params_.ways - 1;
        const std::uint64_t victim = row[w];
        if (victim != kEmpty) {
            evictions_.inc();
            if (victim & 1) {
                writebacks_.inc();
                result.writeback =
                    (((victim >> 1) << setBits_) | set) * kCacheLineBytes;
            }
        }
    }
    std::memmove(row + 1, row, w * sizeof(*row));
    row[0] = (tag << 1) | static_cast<std::uint64_t>(dirty);
    return result;
}

void
Cache::invalidate(Addr paddr)
{
    const auto [row, w] = locate(paddr);
    if (w == params_.ways)
        return;
    std::memmove(row + w, row + w + 1,
                 (params_.ways - 1 - w) * sizeof(*row));
    row[params_.ways - 1] = kEmpty;
}

void
Cache::flushAll()
{
    ++epoch_;
}

} // namespace qei
