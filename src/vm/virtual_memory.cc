#include "virtual_memory.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace qei {

FrameAllocator::FrameAllocator(std::uint64_t total_frames, Mode mode,
                               std::uint64_t seed)
    : totalFrames_(total_frames), mode_(mode), rngSeed_(seed)
{
}

Addr
FrameAllocator::allocate()
{
    simAssert(allocatedCount_ < totalFrames_,
              "out of physical frames ({} used)", allocatedCount_);
    ++allocatedCount_;
    if (mode_ == Mode::Contiguous)
        return nextSequential_++;

    if (shuffledNext_ >= shuffled_.size()) {
        // Refill: shuffle the next block of frame numbers, lazily, so a
        // 64 GB memory never needs a 16M-entry shuffle up front.
        constexpr std::uint64_t kBlock = 1 << 16;
        const std::uint64_t base = nextSequential_;
        const std::uint64_t count =
            std::min<std::uint64_t>(kBlock, totalFrames_ - base);
        simAssert(count > 0, "frame allocator refill underflow");
        shuffled_.resize(count);
        std::iota(shuffled_.begin(), shuffled_.end(), base);
        Rng rng(rngSeed_ + base);
        for (std::size_t i = count; i > 1; --i)
            std::swap(shuffled_[i - 1], shuffled_[rng.below(i)]);
        shuffledNext_ = 0;
        nextSequential_ = base + count;
    }
    return shuffled_[shuffledNext_++];
}

VirtualMemory::VirtualMemory(SimMemory& memory, FrameAllocator::Mode mode,
                             std::uint64_t seed)
    : SimObject("vm"), memory_(memory),
      frames_(memory.sizeBytes() / kPageBytes, mode, seed)
{
}

Addr
VirtualMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    simAssert(bytes > 0, "zero-byte allocation");
    simAssert(isPowerOfTwo(align), "alignment {} not a power of two",
              align);
    brk_ = (brk_ + align - 1) & ~(align - 1);
    const Addr base = brk_;
    brk_ += bytes;
    ensureMapped(base, bytes);
    return base;
}

void
VirtualMemory::ensureMapped(Addr vaddr, std::uint64_t bytes)
{
    const Addr first = pageNumber(vaddr);
    const Addr last = pageNumber(vaddr + bytes - 1);
    if (last - kHeapBaseVpn >= slots_.size())
        slots_.resize(last - kHeapBaseVpn + 1);
    for (Addr vpn = first; vpn <= last; ++vpn) {
        PageSlot& slot = slots_[vpn - kHeapBaseVpn];
        if (slot.pfn == kNoFrame)
            slot.pfn = frames_.allocate();
    }
}

Addr
VirtualMemory::translate(Addr vaddr) const
{
    auto paddr = tryTranslate(vaddr);
    simAssert(paddr.has_value(), "unmapped virtual address {:#x}", vaddr);
    return *paddr;
}

void
VirtualMemory::readBytes(Addr vaddr, void* out, std::size_t len) const
{
    auto* dst = static_cast<std::uint8_t*>(out);
    while (len > 0) {
        const std::uint32_t off = pageOffset(vaddr);
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        const PageSlot& slot = slots_[mappedIndex(vaddr)];
        // A page another address space over the same memory wrote has
        // no cached pointer here; one nobody wrote reads as zeros.
        const std::uint8_t* page = slot.data != nullptr
                                       ? slot.data
                                       : memory_.findPage(slot.pfn);
        if (page != nullptr)
            std::memcpy(dst, page + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        vaddr += chunk;
        len -= chunk;
    }
}

void
VirtualMemory::writeBytes(Addr vaddr, const void* src, std::size_t len)
{
    const auto* from = static_cast<const std::uint8_t*>(src);
    while (len > 0) {
        const std::uint32_t off = pageOffset(vaddr);
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        PageSlot& slot = slots_[mappedIndex(vaddr)];
        if (slot.data == nullptr)
            slot.data = memory_.pageData(slot.pfn);
        std::memcpy(slot.data + off, from, chunk);
        from += chunk;
        vaddr += chunk;
        len -= chunk;
    }
}

} // namespace qei
