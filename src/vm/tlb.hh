/**
 * @file
 * TLB and MMU timing models.
 *
 * The MMU composes an L1 data TLB and an L2 (second-level) TLB in front
 * of a page-walk latency model. QEI's Core-integrated scheme borrows
 * the L2-TLB; the CHA-TLB scheme instantiates a dedicated 1024-entry
 * Tlb per CHA; the CHA-noTLB scheme pays a NoC round trip to the core
 * MMU instead.
 *
 * A Tlb is true LRU: a hit moves its entry to MRU, a fill of a VPN
 * already present changes nothing, a fill into a full TLB evicts the
 * LRU entry, and prefill() stops at capacity. Its entries sit in two
 * arrays sized at construction (an index-linked LRU list and an
 * open-addressed VPN index), so lookups and fills allocate nothing;
 * tests/test_tlb.cc checks every rule against a std::list model.
 */

#ifndef QEI_VM_TLB_HH
#define QEI_VM_TLB_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/**
 * Fully-associative LRU TLB over 4 KB pages.
 *
 * Entries live in a fixed array of `capacity` nodes, doubly linked by
 * index from MRU (head) to LRU (tail). An open-addressed index of
 * twice the capacity (rounded up to a power of two, linear probing)
 * maps a VPN to its node and deletes by backward shift, so no probe
 * chain ever holds a hole. Nothing is allocated after construction.
 */
class Tlb : public SimObject
{
  public:
    Tlb(std::size_t entries, Cycles hit_latency,
        std::string name = "tlb")
        : SimObject(std::move(name)), capacity_(entries),
          hitLatency_(hit_latency)
    {
        simAssert(entries > 0 && entries < kNil, "{}: {} TLB entries",
                  this->name(), entries);
        const std::size_t slots = std::bit_ceil(2 * entries);
        mask_ = slots - 1;
        shift_ = 64 - std::countr_zero(slots);
        // One block: the index, then the nodes (slots is even, so the
        // nodes start 8-byte aligned).
        storage_ = std::make_unique_for_overwrite<std::byte[]>(
            slots * sizeof(std::uint32_t) + entries * sizeof(Node));
        index_ = reinterpret_cast<std::uint32_t*>(storage_.get());
        nodes_ = reinterpret_cast<Node*>(index_ + slots);
        std::fill_n(index_, slots, kNil);
    }

    void
    regStats(StatsRegistry& registry) override
    {
        const std::string base = fullPath() + ".";
        registry.addCounter(base + "hits", hits_, "lookup hits");
        registry.addCounter(base + "misses", misses_, "lookup misses");
        registry.addCounter(base + "flushes", flushes_,
                            "full flushes");
        registry.addFormula(
            base + "hit_rate", [this] { return hitRate(); },
            "hits / (hits + misses)");
    }

    /** True and refreshed-to-MRU when @p vpn is cached. */
    bool
    lookup(Addr vpn)
    {
        const std::uint32_t n = index_[slotOf(vpn)];
        if (n == kNil) {
            misses_.inc();
            return false;
        }
        if (n != head_) {
            unlink(n);
            pushFront(n);
        }
        hits_.inc();
        return true;
    }

    /** Install @p vpn, evicting the LRU entry when full. */
    void
    fill(Addr vpn)
    {
        std::size_t slot = slotOf(vpn);
        if (index_[slot] != kNil)
            return;
        std::uint32_t n = size_;
        if (size_ == capacity_) {
            n = tail_;
            erase(slotOf(nodes_[n].vpn));
            unlink(n);
            // The backward shift may have opened a nearer slot.
            slot = slotOf(vpn);
        } else {
            ++size_;
        }
        nodes_[n].vpn = vpn;
        pushFront(n);
        index_[slot] = n;
    }

    /** Pre-fill with up to capacity entries (steady-state warm TLB). */
    void
    prefill(const std::vector<Addr>& vpns)
    {
        for (Addr vpn : vpns) {
            if (size_ >= capacity_)
                break;
            fill(vpn);
        }
    }

    /** Drop all entries (context switch / shootdown). */
    void
    flush()
    {
        std::fill_n(index_, mask_ + 1, kNil);
        head_ = kNil;
        tail_ = kNil;
        size_ = 0;
        flushes_.inc();
    }

    Cycles hitLatency() const { return hitLatency_; }
    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    double
    hitRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(hits_.value()) / total : 0.0;
    }

  private:
    /** No node: an empty index slot, or the end of the LRU list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node
    {
        Addr vpn;
        std::uint32_t prev; ///< towards the MRU end
        std::uint32_t next; ///< towards the LRU end
    };

    /** Index slot a probe for @p vpn starts at (Fibonacci hashing). */
    std::size_t
    home(Addr vpn) const
    {
        return static_cast<std::size_t>((vpn * 0x9E3779B97F4A7C15ULL) >>
                                        shift_);
    }

    /** Slot holding @p vpn, or the empty slot that ends its chain. */
    std::size_t
    slotOf(Addr vpn) const
    {
        std::size_t s = home(vpn);
        while (index_[s] != kNil && nodes_[index_[s]].vpn != vpn)
            s = (s + 1) & mask_;
        return s;
    }

    /**
     * Empty slot @p hole, then pull back each later entry of its chain
     * whose home is at or before the hole, so every entry stays
     * reachable from its home without passing an empty slot.
     */
    void
    erase(std::size_t hole)
    {
        for (std::size_t s = (hole + 1) & mask_; index_[s] != kNil;
             s = (s + 1) & mask_) {
            const std::size_t h = home(nodes_[index_[s]].vpn);
            if (((s - h) & mask_) >= ((s - hole) & mask_)) {
                index_[hole] = index_[s];
                hole = s;
            }
        }
        index_[hole] = kNil;
    }

    void
    unlink(std::uint32_t n)
    {
        const Node& node = nodes_[n];
        if (node.prev != kNil)
            nodes_[node.prev].next = node.next;
        else
            head_ = node.next;
        if (node.next != kNil)
            nodes_[node.next].prev = node.prev;
        else
            tail_ = node.prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        nodes_[n].prev = kNil;
        nodes_[n].next = head_;
        if (head_ != kNil)
            nodes_[head_].prev = n;
        else
            tail_ = n;
        head_ = n;
    }

    std::size_t capacity_;
    Cycles hitLatency_;
    std::unique_ptr<std::byte[]> storage_;
    std::uint32_t* index_; ///< node per slot, or kNil
    /** Nodes [0, size_) are live; a full TLB reuses its tail. */
    Node* nodes_;
    std::size_t mask_ = 0;
    int shift_ = 0;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    std::uint32_t size_ = 0;
    Counter hits_;
    Counter misses_;
    Counter flushes_;
};

/** Outcome of one translation through the MMU. */
struct Translation
{
    bool valid = false;   ///< false ⇒ page fault
    Addr paddr = 0;
    Cycles latency = 0;   ///< total translation cost
    bool l1Hit = false;
    bool l2Hit = false;
    bool walked = false;
};

/** MMU parameters (Skylake-like defaults; see Tab. II discussion). */
struct MmuParams
{
    std::size_t l1Entries = 64;
    Cycles l1HitLatency = 1;
    std::size_t l2Entries = 1536;
    Cycles l2HitLatency = 9;
    Cycles pageWalkLatency = 90;
};

/** Two-level TLB + page-walk front door for one core. */
class Mmu : public SimObject
{
  public:
    Mmu(const VirtualMemory& vm, const MmuParams& params = {})
        : SimObject("mmu"), vm_(vm), params_(params),
          l1_(params.l1Entries, params.l1HitLatency, "l1tlb"),
          l2_(params.l2Entries, params.l2HitLatency, "l2tlb")
    {
        adopt(l1_);
        adopt(l2_);
    }

    /**
     * Translate @p vaddr and report the latency of the translation
     * path actually taken (L1 hit / L2 hit / full walk). @p now is
     * only used to timestamp trace events.
     */
    Translation
    translate(Addr vaddr, Cycles now = 0)
    {
        Translation t;
        const Addr vpn = pageNumber(vaddr);
        auto paddr = vm_.tryTranslate(vaddr);
        if (!paddr) {
            t.valid = false;
            t.latency = params_.pageWalkLatency;
            traceLookup(t, now);
            return t;
        }
        t.valid = true;
        t.paddr = *paddr;
        if (l1_.lookup(vpn)) {
            t.l1Hit = true;
            t.latency = params_.l1HitLatency;
            traceLookup(t, now);
            return t;
        }
        if (l2_.lookup(vpn)) {
            t.l2Hit = true;
            t.latency = params_.l1HitLatency + params_.l2HitLatency;
            l1_.fill(vpn);
            traceLookup(t, now);
            return t;
        }
        t.walked = true;
        t.latency = params_.l1HitLatency + params_.l2HitLatency +
                    params_.pageWalkLatency;
        l2_.fill(vpn);
        l1_.fill(vpn);
        vm_.notePageWalk(now, params_.pageWalkLatency);
        traceLookup(t, now);
        return t;
    }

    /**
     * Translate as QEI's Core-integrated scheme does: straight into the
     * L2-TLB (the accelerator sits next to it and does not touch the
     * core's L1 dTLB).
     */
    Translation
    translateViaL2(Addr vaddr, Cycles now = 0)
    {
        Translation t;
        const Addr vpn = pageNumber(vaddr);
        auto paddr = vm_.tryTranslate(vaddr);
        if (!paddr) {
            t.valid = false;
            t.latency = params_.pageWalkLatency;
            traceLookup(t, now);
            return t;
        }
        t.valid = true;
        t.paddr = *paddr;
        if (l2_.lookup(vpn)) {
            t.l2Hit = true;
            t.latency = params_.l2HitLatency;
            traceLookup(t, now);
            return t;
        }
        t.walked = true;
        t.latency = params_.l2HitLatency + params_.pageWalkLatency;
        l2_.fill(vpn);
        vm_.notePageWalk(now, params_.pageWalkLatency);
        traceLookup(t, now);
        return t;
    }

    /** Pre-warm the second-level TLB (steady-state experiments). */
    void
    prefillL2(const std::vector<Addr>& vpns)
    {
        l2_.prefill(vpns);
    }

    void
    flush()
    {
        l1_.flush();
        l2_.flush();
    }

    Tlb& l1() { return l1_; }
    Tlb& l2() { return l2_; }
    const MmuParams& params() const { return params_; }

    /**
     * Attach a trace sink: every translation records a Tlb event naming
     * the path taken (l1_hit / l2_hit / walk / fault). Call after the
     * MMU is adopted into the object tree so the component path is
     * fully qualified.
     */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        trace_ = sink;
        if (sink != nullptr) {
            traceComp_ = sink->internComponent(fullPath());
            traceL1Hit_ = sink->internName("l1_hit");
            traceL2Hit_ = sink->internName("l2_hit");
            traceWalk_ = sink->internName("walk");
            traceFault_ = sink->internName("fault");
        }
    }

  private:
    void
    traceLookup(const Translation& t, Cycles now)
    {
        if (!trace::active(trace_))
            return;
        const std::uint32_t name = !t.valid ? traceFault_
                                   : t.l1Hit ? traceL1Hit_
                                   : t.l2Hit ? traceL2Hit_
                                             : traceWalk_;
        trace_->record(trace::Category::Tlb, traceComp_, name,
                       trace::kNoQuery, now, t.latency);
    }

    const VirtualMemory& vm_;
    MmuParams params_;
    Tlb l1_;
    Tlb l2_;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::uint32_t traceL1Hit_ = 0;
    std::uint32_t traceL2Hit_ = 0;
    std::uint32_t traceWalk_ = 0;
    std::uint32_t traceFault_ = 0;
};

} // namespace qei

#endif // QEI_VM_TLB_HH
