/**
 * @file
 * Simulated per-process virtual memory: a dense page table, a fragmenting
 * frame allocator, and a bump allocator for laying data structures out in the
 * simulated address space.
 *
 * Fragmentation matters to QEI: the paper argues queried data
 * structures seldom sit in contiguous physical memory (so huge-page
 * tricks fail and accelerators need real translation). The frame
 * allocator therefore hands out physical frames in a pseudo-random
 * order by default.
 */

#ifndef QEI_VM_VIRTUAL_MEMORY_HH
#define QEI_VM_VIRTUAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/sim_memory.hh"
#include "trace/trace.hh"

namespace qei {

/**
 * Physical frame allocator.
 *
 * In Fragmented mode (the default) frames are served from a shuffled
 * free list, so consecutive virtual pages land on scattered frames —
 * the memory layout of a long-running server. Contiguous mode exists
 * for tests and for modelling the huge-page assumption of prior work.
 */
class FrameAllocator
{
  public:
    enum class Mode { Fragmented, Contiguous };

    FrameAllocator(std::uint64_t total_frames, Mode mode,
                   std::uint64_t seed = 1);

    /** Allocate one frame; fatal() when physical memory is exhausted. */
    Addr allocate();

    std::uint64_t allocated() const { return allocatedCount_; }
    std::uint64_t totalFrames() const { return totalFrames_; }
    Mode mode() const { return mode_; }

  private:
    std::uint64_t totalFrames_;
    Mode mode_;
    std::uint64_t rngSeed_;
    std::uint64_t allocatedCount_ = 0;
    std::uint64_t nextSequential_ = 0;
    std::vector<Addr> shuffled_;
    std::size_t shuffledNext_ = 0;
};

/**
 * A process address space over a SimMemory.
 *
 * Provides a bump allocator (alloc) plus translated typed accessors.
 * Host-side code (data-structure builders, reference queries) uses
 * these accessors; the timing models translate separately via the MMU.
 */
class VirtualMemory : public SimObject
{
  public:
    VirtualMemory(SimMemory& memory, FrameAllocator::Mode mode =
                      FrameAllocator::Mode::Fragmented,
                  std::uint64_t seed = 1);

    void
    regStats(StatsRegistry& registry) override
    {
        const std::string base = fullPath() + ".";
        registry.addFormula(
            base + "pages_mapped",
            [this] { return static_cast<double>(frames_.allocated()); },
            "virtual pages with a frame");
        registry.addFormula(
            base + "bytes_allocated",
            [this] { return static_cast<double>(bytesAllocated()); },
            "heap bytes handed out");
        registry.addFormula(
            base + "frames_allocated",
            [this] { return static_cast<double>(frames_.allocated()); },
            "physical frames in use");
        registry.addCounter(base + "page_walks", pageWalks_,
                            "page-table walks charged by any MMU");
    }

    /**
     * Attach a trace sink: every notePageWalk() records a Vm span for
     * the walk of this address space's page table.
     */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        trace_ = sink;
        if (sink != nullptr) {
            traceComp_ = sink->internComponent("vm");
            traceWalk_ = sink->internName("page_walk");
        }
    }

    /**
     * Account a page-table walk of this address space. Called from the
     * MMUs and from QEI's dedicated TLBs — the walker hardware differs,
     * the walked structure is this one. const because translation
     * consumers hold a const reference; only instrumentation mutates.
     */
    void
    notePageWalk(Cycles now, Cycles latency) const
    {
        pageWalks_.inc();
        if (trace::active(trace_)) {
            trace_->record(trace::Category::Vm, traceComp_, traceWalk_,
                           trace::kNoQuery, now, latency);
        }
    }

    /** Zero the walk count (fresh measurement window). */
    void resetPageWalks() { pageWalks_.reset(); }

    /** Allocate @p bytes with @p align alignment; maps pages eagerly. */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 8);

    /** Allocate a fresh cacheline-aligned block. */
    Addr
    allocLines(std::uint64_t bytes)
    {
        return alloc(bytes, kCacheLineBytes);
    }

    /** Translate a virtual address; panics when unmapped. */
    Addr translate(Addr vaddr) const;

    /** Translate; nullopt when unmapped (for fault modelling). */
    std::optional<Addr>
    tryTranslate(Addr vaddr) const
    {
        const PageSlot* slot = slotOf(vaddr);
        if (slot == nullptr)
            return std::nullopt;
        return slot->pfn * kPageBytes + pageOffset(vaddr);
    }

    /**
     * Read through translation (may cross page boundaries). A mapped
     * page that was never written reads as zeros and stays lazy.
     */
    void readBytes(Addr vaddr, void* out, std::size_t len) const;

    /** Write through translation (may cross page boundaries). */
    void writeBytes(Addr vaddr, const void* src, std::size_t len);

    /**
     * The bytes at [@p vaddr, +@p len) in place, when the range lies in
     * one mapped page that has been written; nullptr otherwise (across
     * a page boundary, unmapped, or never written), and the caller
     * copies with readBytes instead.
     */
    const std::uint8_t*
    span(Addr vaddr, std::size_t len) const
    {
        const std::uint32_t off = pageOffset(vaddr);
        if (off + len > kPageBytes)
            return nullptr;
        const PageSlot* slot = slotOf(vaddr);
        if (slot == nullptr || slot->data == nullptr)
            return nullptr;
        return slot->data + off;
    }

    /**
     * span() when it succeeds; otherwise copy the range into @p scratch
     * (which readBytes checks like any other read) and return that.
     */
    const std::uint8_t*
    spanOrCopy(Addr vaddr, std::size_t len,
               std::vector<std::uint8_t>& scratch) const
    {
        if (const std::uint8_t* in_place = span(vaddr, len))
            return in_place;
        scratch.resize(len);
        readBytes(vaddr, scratch.data(), len);
        return scratch.data();
    }

    template <typename T>
    T
    read(Addr vaddr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        if (const std::uint8_t* in_place = span(vaddr, sizeof(T)))
            std::memcpy(&value, in_place, sizeof(T));
        else
            readBytes(vaddr, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    write(Addr vaddr, const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(vaddr, &value, sizeof(T));
    }

    /**
     * Call @p fn(vpn, pfn) for every mapped page in ascending VPN order,
     * skipping the gaps an aligned alloc leaves. The order is the LLC
     * warm's and the TLB prefill's, so it must not depend on anything
     * but the allocation sequence.
     */
    template <typename Fn>
    void
    forEachMapping(Fn&& fn) const
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].pfn != kNoFrame)
                fn(kHeapBaseVpn + i, slots_[i].pfn);
        }
    }

    SimMemory& memory() { return memory_; }
    const SimMemory& memory() const { return memory_; }
    std::uint64_t bytesAllocated() const { return brk_ - kHeapBase; }

    /** Heap base: a non-zero base keeps kNullAddr unmapped. */
    static constexpr Addr kHeapBase = 0x10000000ULL;

  private:
    /**
     * One heap page of the dense table: its frame (kNoFrame in the gaps
     * an aligned alloc skips) and, once this address space has written
     * it, the frame's bytes.
     */
    struct PageSlot
    {
        Addr pfn = kNoFrame;
        std::uint8_t* data = nullptr;
    };

    static constexpr Addr kNoFrame = ~Addr{0};
    static constexpr Addr kHeapBaseVpn = kHeapBase / kPageBytes;

    /** The slot of @p vaddr's page; nullptr when unmapped. */
    const PageSlot*
    slotOf(Addr vaddr) const
    {
        // Below the heap, the index wraps to a huge value.
        const Addr index = pageNumber(vaddr) - kHeapBaseVpn;
        if (index >= slots_.size() || slots_[index].pfn == kNoFrame)
            return nullptr;
        return &slots_[index];
    }

    /** The index of @p vaddr's slot; panics when unmapped. */
    std::size_t
    mappedIndex(Addr vaddr) const
    {
        simAssert(slotOf(vaddr) != nullptr,
                  "unmapped virtual address {:#x}", vaddr);
        return pageNumber(vaddr) - kHeapBaseVpn;
    }

    void ensureMapped(Addr vaddr, std::uint64_t bytes);

    SimMemory& memory_;
    // Every mapping, densely indexed from kHeapBaseVpn: alloc() is a
    // bump allocator and ensureMapped() the only writer of a frame.
    std::vector<PageSlot> slots_;
    FrameAllocator frames_;
    Addr brk_ = kHeapBase;
    mutable Counter pageWalks_;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::uint32_t traceWalk_ = 0;
};

} // namespace qei

#endif // QEI_VM_VIRTUAL_MEMORY_HH
