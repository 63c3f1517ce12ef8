/**
 * @file
 * Sparse byte-addressable physical memory backing store.
 *
 * All simulated data structures live here. The store is functional
 * only — timing comes from the cache/DRAM models. Pages are allocated
 * lazily on first touch so multi-GB physical address spaces are cheap.
 */

#ifndef QEI_MEM_SIM_MEMORY_HH
#define QEI_MEM_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "common/types.hh"

namespace qei {

/** Physical memory: sparse 4 KB pages, zero-filled on first use. */
class SimMemory
{
  public:
    explicit SimMemory(std::uint64_t size_bytes = 64ULL << 30)
        : sizeBytes_(size_bytes)
    {
    }

    std::uint64_t sizeBytes() const { return sizeBytes_; }

    /** Number of physical pages actually materialised. */
    std::size_t touchedPages() const { return pages_.size(); }

    /** Read @p len bytes at physical @p addr into @p out. */
    void
    read(Addr addr, void* out, std::size_t len) const
    {
        boundsCheck(addr, len);
        auto* dst = static_cast<std::uint8_t*>(out);
        while (len > 0) {
            const Addr page = pageNumber(addr);
            const std::uint32_t off = pageOffset(addr);
            const std::size_t chunk =
                std::min<std::size_t>(len, kPageBytes - off);
            auto it = pages_.find(page);
            if (it == pages_.end()) {
                std::memset(dst, 0, chunk);
            } else {
                std::memcpy(dst, it->second->data() + off, chunk);
            }
            dst += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /** Write @p len bytes from @p src to physical @p addr. */
    void
    write(Addr addr, const void* src, std::size_t len)
    {
        boundsCheck(addr, len);
        const auto* from = static_cast<const std::uint8_t*>(src);
        while (len > 0) {
            const Addr page = pageNumber(addr);
            const std::uint32_t off = pageOffset(addr);
            const std::size_t chunk =
                std::min<std::size_t>(len, kPageBytes - off);
            std::memcpy(pageFor(page).data() + off, from, chunk);
            from += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /** Typed read of a trivially-copyable value. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Typed write of a trivially-copyable value. */
    template <typename T>
    void
    write(Addr addr, const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &value, sizeof(T));
    }

    /** Fill @p len bytes at @p addr with @p byte. */
    void
    fill(Addr addr, std::uint8_t byte, std::size_t len)
    {
        boundsCheck(addr, len);
        while (len > 0) {
            const Addr page = pageNumber(addr);
            const std::uint32_t off = pageOffset(addr);
            const std::size_t chunk =
                std::min<std::size_t>(len, kPageBytes - off);
            std::memset(pageFor(page).data() + off, byte, chunk);
            addr += chunk;
            len -= chunk;
        }
    }

    /**
     * The bytes of frame @p pfn, materialising (zero-filled) it on first
     * use. Pages are never freed, so the pointer stays valid for the
     * life of this memory.
     */
    std::uint8_t*
    pageData(Addr pfn)
    {
        boundsCheck(pfn * kPageBytes, kPageBytes);
        return pageFor(pfn).data();
    }

    /** The bytes of frame @p pfn; nullptr when it was never touched. */
    const std::uint8_t*
    findPage(Addr pfn) const
    {
        auto it = pages_.find(pfn);
        return it == pages_.end() ? nullptr : it->second->data();
    }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    void
    boundsCheck(Addr addr, std::size_t len) const
    {
        simAssert(addr + len <= sizeBytes_ && addr + len >= addr,
                  "physical access [{:#x}, +{}) out of {}-byte memory",
                  addr, len, sizeBytes_);
    }

    Page&
    pageFor(Addr page_number)
    {
        auto& slot = pages_[page_number];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->fill(0);
        }
        return *slot;
    }

    std::uint64_t sizeBytes_;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

} // namespace qei

#endif // QEI_MEM_SIM_MEMORY_HH
