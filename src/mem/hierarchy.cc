#include "hierarchy.hh"

#include "common/hash.hh"
#include "common/logging.hh"

namespace qei {

MemoryHierarchy::MemoryHierarchy(const HierarchyParams& params)
    : SimObject("memory"), params_(params), mesh_(params.mesh),
      dram_(params.dram)
{
    simAssert(params_.cores <= mesh_.tiles(),
              "{} cores on a {}-tile mesh", params_.cores, mesh_.tiles());
    adopt(mesh_);
    adopt(dram_);
    // '.' is the hierarchy path separator, so cache names use
    // underscores ("l1d_3" -> "system.memory.l1d_3.hits").
    for (int i = 0; i < params_.cores; ++i) {
        CacheParams l1p = params_.l1d;
        l1p.name = "l1d_" + std::to_string(i);
        l1d_.push_back(std::make_unique<Cache>(l1p));
        adopt(*l1d_.back());
        CacheParams l2p = params_.l2;
        l2p.name = "l2_" + std::to_string(i);
        l2_.push_back(std::make_unique<Cache>(l2p));
        adopt(*l2_.back());
        CacheParams llp = params_.llcSlice;
        llp.name = "llc_" + std::to_string(i);
        llc_.push_back(std::make_unique<Cache>(llp));
        adopt(*llc_.back());
    }
}

void
MemoryHierarchy::regStats(StatsRegistry& registry)
{
    registry.addFormula(
        fullPath() + ".llc_hit_rate", [this] { return llcHitRate(); },
        "aggregate hit rate over all LLC slices");
}

void
MemoryHierarchy::setTraceSink(trace::TraceSink* sink)
{
    trace_ = sink;
    mesh_.setTraceSink(sink);
    if (sink != nullptr) {
        traceComp_ = sink->internComponent("memory");
        traceLevel_[static_cast<std::size_t>(ServedBy::L1)] =
            sink->internName("l1");
        traceLevel_[static_cast<std::size_t>(ServedBy::L2)] =
            sink->internName("l2");
        traceLevel_[static_cast<std::size_t>(ServedBy::Llc)] =
            sink->internName("llc");
        traceLevel_[static_cast<std::size_t>(ServedBy::Dram)] =
            sink->internName("dram");
    }
}

int
MemoryHierarchy::homeSlice(Addr paddr) const
{
    // Skylake distributes lines over slices with an undocumented hash;
    // mix64 of the line address gives the same uniform spread.
    const std::uint64_t h = mix64(paddr / kCacheLineBytes);
    return static_cast<int>(h % static_cast<std::uint64_t>(
                                    params_.cores));
}

MemAccess
MemoryHierarchy::llcPath(int requester_tile, Addr paddr, bool is_write,
                         Cycles now, Cycles accumulated)
{
    MemAccess out;
    const int slice = homeSlice(paddr);
    out.homeSlice = slice;
    Cache& sliceCache = *llc_[static_cast<std::size_t>(slice)];
    // The set's tags are a random host miss; load them while the
    // request traversal is charged.
    sliceCache.prefetch(paddr);

    Cycles latency = accumulated;
    if (slice != requester_tile) {
        latency += mesh_.traverse(requester_tile, slice,
                                  params_.reqBytes, now);
    }

    latency += sliceCache.latency();
    if (sliceCache.access(paddr, is_write)) {
        out.servedBy = ServedBy::Llc;
    } else {
        // DRAM behind the slice's nearest memory controller.
        latency += dram_.access(paddr, now + latency);
        sliceCache.fill(paddr, is_write);
        out.servedBy = ServedBy::Dram;
    }

    if (slice != requester_tile) {
        latency += mesh_.traverse(slice, requester_tile,
                                  params_.respBytes, now + latency);
    }
    out.latency = latency;
    return out;
}

MemAccess
MemoryHierarchy::coreAccess(int core, Addr paddr, bool is_write,
                            Cycles now)
{
    simAssert(core >= 0 && core < params_.cores, "core {} out of range",
              core);
    Cache& l1 = *l1d_[static_cast<std::size_t>(core)];
    Cache& l2 = *l2_[static_cast<std::size_t>(core)];

    Cycles latency = l1.latency();
    if (l1.access(paddr, is_write)) {
        const MemAccess out{latency, ServedBy::L1, core};
        traceAccess(out, now);
        return out;
    }

    latency += l2.latency();
    if (l2.access(paddr, is_write)) {
        l1.fill(paddr, is_write);
        const MemAccess out{latency, ServedBy::L2, core};
        traceAccess(out, now);
        return out;
    }

    MemAccess out = llcPath(core, paddr, is_write, now, latency);
    l2.fill(paddr, is_write);
    l1.fill(paddr, is_write);
    traceAccess(out, now);
    return out;
}

MemAccess
MemoryHierarchy::l2Access(int core, Addr paddr, bool is_write, Cycles now)
{
    simAssert(core >= 0 && core < params_.cores, "core {} out of range",
              core);
    Cache& l2 = *l2_[static_cast<std::size_t>(core)];

    if (l2.access(paddr, is_write)) {
        const MemAccess out{l2.latency(), ServedBy::L2, core};
        traceAccess(out, now);
        return out;
    }

    // On a miss QEI only pays the tag probe before the request goes
    // out on the L2's miss path — it shares the L2's access hardware
    // but not its data-array pipeline (Sec. V-A).
    constexpr Cycles kTagProbe = 4;
    MemAccess out = llcPath(core, paddr, is_write, now, kTagProbe);
    // QEI deliberately avoids polluting the private caches with queried
    // data: lines fetched on its behalf are NOT filled into L2/L1.
    // Only the LLC keeps a copy.
    traceAccess(out, now);
    return out;
}

MemAccess
MemoryHierarchy::chaAccess(int tile, Addr paddr, bool is_write,
                           Cycles now)
{
    simAssert(tile >= 0 && tile < params_.cores, "tile {} out of range",
              tile);
    const MemAccess out = llcPath(tile, paddr, is_write, now, 0);
    traceAccess(out, now);
    return out;
}

MemAccess
MemoryHierarchy::deviceAccess(int tile, Addr paddr, bool is_write,
                              Cycles now)
{
    // Identical path to a CHA access: the device stop issues a request
    // to the home slice over the mesh. Kept separate for readability
    // and stats at the call sites.
    const MemAccess out = llcPath(tile, paddr, is_write, now, 0);
    traceAccess(out, now);
    return out;
}

Cycles
MemoryHierarchy::messageRoundTrip(int from, int to, Cycles now)
{
    return mesh_.roundTrip(from, to, params_.reqBytes, params_.reqBytes,
                           now);
}

Cycles
MemoryHierarchy::messageOneWay(int from, int to, Cycles now)
{
    return mesh_.traverse(from, to, params_.reqBytes, now);
}

double
MemoryHierarchy::llcHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const auto& slice : llc_) {
        hits += slice->hits();
        total += slice->hits() + slice->misses();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

void
MemoryHierarchy::preloadLlc(Addr paddr)
{
    llc_[static_cast<std::size_t>(homeSlice(paddr))]->fill(paddr, false);
}

void
MemoryHierarchy::flushAllCaches()
{
    for (auto& c : l1d_)
        c->flushAll();
    for (auto& c : l2_)
        c->flushAll();
    for (auto& c : llc_)
        c->flushAll();
}

void
MemoryHierarchy::resetCacheStats()
{
    for (auto& c : l1d_)
        c->resetStats();
    for (auto& c : l2_)
        c->resetStats();
    for (auto& c : llc_)
        c->resetStats();
}

} // namespace qei
