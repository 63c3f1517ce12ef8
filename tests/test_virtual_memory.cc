#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "vm/virtual_memory.hh"

using namespace qei;

namespace {

SimMemory&
sharedMemory()
{
    static SimMemory mem(1ULL << 32);
    return mem;
}

} // namespace

TEST(VirtualMemory, AllocRespectsAlignment)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(10, 8);
    const Addr b = vm.alloc(10, 64);
    const Addr c = vm.alloc(10, 4096);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 4096, 0u);
}

TEST(VirtualMemory, AllocationsDoNotOverlap)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(100);
    const Addr b = vm.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST(VirtualMemory, ReadWriteThroughTranslation)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(4096 * 3);
    // Spans multiple (scattered) physical pages.
    std::vector<std::uint8_t> pattern(4096 * 3);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7);
    vm.writeBytes(a, pattern.data(), pattern.size());
    std::vector<std::uint8_t> out(pattern.size());
    vm.readBytes(a, out.data(), out.size());
    EXPECT_EQ(pattern, out);
}

TEST(VirtualMemory, FragmentedModeScattersFrames)
{
    SimMemory mem(1 << 28);
    VirtualMemory vm(mem, FrameAllocator::Mode::Fragmented, 3);
    const Addr base = vm.alloc(kPageBytes * 16, kPageBytes);
    bool contiguous = true;
    Addr prev = vm.translate(base);
    for (int p = 1; p < 16; ++p) {
        const Addr cur = vm.translate(base + p * kPageBytes);
        if (cur != prev + kPageBytes)
            contiguous = false;
        prev = cur;
    }
    EXPECT_FALSE(contiguous)
        << "fragmented allocator produced a contiguous mapping";
}

TEST(VirtualMemory, ContiguousModeIsContiguous)
{
    SimMemory mem(1 << 28);
    VirtualMemory vm(mem, FrameAllocator::Mode::Contiguous);
    const Addr base = vm.alloc(kPageBytes * 16, kPageBytes);
    for (int p = 1; p < 16; ++p) {
        EXPECT_EQ(vm.translate(base + p * kPageBytes),
                  vm.translate(base) + static_cast<Addr>(p) *
                                           kPageBytes);
    }
}

TEST(VirtualMemory, TranslatePreservesPageOffset)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(100, 8);
    EXPECT_EQ(pageOffset(vm.translate(a)), pageOffset(a));
}

TEST(VirtualMemory, TryTranslateUnmappedIsNull)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    EXPECT_FALSE(vm.tryTranslate(0x10).has_value());
    EXPECT_FALSE(vm.tryTranslate(VirtualMemory::kHeapBase +
                                 (1ULL << 33))
                     .has_value());
}

TEST(VirtualMemory, NullAddressNeverMapped)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(1 << 20);
    EXPECT_FALSE(vm.tryTranslate(kNullAddr).has_value());
}

TEST(VirtualMemory, FramesNeverReused)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    std::set<Addr> frames;
    const Addr base = vm.alloc(kPageBytes * 64, kPageBytes);
    for (int p = 0; p < 64; ++p)
        frames.insert(pageNumber(vm.translate(base + p * kPageBytes)));
    EXPECT_EQ(frames.size(), 64u);
}

TEST(VirtualMemory, BytesAllocatedTracksBrk)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(100, 8);
    EXPECT_GE(vm.bytesAllocated(), 100u);
}

TEST(VirtualMemoryDeath, TranslateUnmappedPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.translate(0x20), "unmapped");
}

TEST(VirtualMemoryDeath, ZeroAllocPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.alloc(0), "zero-byte");
}

TEST(VirtualMemoryDeath, BadAlignmentPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.alloc(8, 3), "power of two");
}

TEST(VirtualMemory, OverAlignedAllocLeavesUnmappedGap)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(8);
    const Addr b = vm.alloc(8, 4 * kPageBytes);
    // alloc is a bump allocator: the pages strictly between a's page
    // and b's page were skipped by the alignment and stay unmapped.
    ASSERT_GE(pageNumber(b), pageNumber(a) + 2);
    for (Addr vpn = pageNumber(a) + 1; vpn < pageNumber(b); ++vpn)
        EXPECT_FALSE(vm.tryTranslate(vpn * kPageBytes).has_value());
    EXPECT_TRUE(vm.tryTranslate(a).has_value());
    EXPECT_TRUE(vm.tryTranslate(b).has_value());
    // The walk yields the two mapped pages in ascending VPN order, with
    // their frames, and skips the gap between them.
    std::vector<std::pair<Addr, Addr>> walked;
    vm.forEachMapping(
        [&walked](Addr vpn, Addr pfn) { walked.emplace_back(vpn, pfn); });
    ASSERT_EQ(walked.size(), 2u);
    EXPECT_EQ(walked[0].first, pageNumber(a));
    EXPECT_EQ(walked[1].first, pageNumber(b));
    EXPECT_EQ(walked[0].second, pageNumber(vm.translate(a)));
    EXPECT_EQ(walked[1].second, pageNumber(vm.translate(b)));
    StatsRegistry registry;
    vm.regStats(registry);
    EXPECT_EQ(registry.value("vm.pages_mapped"), 2.0);
}

TEST(VirtualMemory, BelowHeapBaseIsUnmapped)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(kPageBytes * 4);
    EXPECT_FALSE(vm.tryTranslate(VirtualMemory::kHeapBase - 1)
                     .has_value());
    EXPECT_FALSE(vm.tryTranslate(VirtualMemory::kHeapBase - kPageBytes)
                     .has_value());
    EXPECT_TRUE(vm.tryTranslate(VirtualMemory::kHeapBase).has_value());
}

TEST(VirtualMemory, AccessCrossingPageBoundary)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr base = vm.alloc(kPageBytes * 2, kPageBytes);
    const Addr a = base + kPageBytes - 3;
    const std::uint64_t value = 0x0102030405060708ULL;
    vm.write<std::uint64_t>(a, value);
    EXPECT_EQ(vm.read<std::uint64_t>(a), value);
    // The two halves landed on the two (scattered) frames.
    std::uint8_t low[3];
    mem.read(vm.translate(a), low, 3);
    EXPECT_EQ(std::memcmp(low, &value, 3), 0);
    std::uint8_t high[5];
    mem.read(vm.translate(base + kPageBytes), high, 5);
    EXPECT_EQ(std::memcmp(high, reinterpret_cast<const std::uint8_t*>(
                                    &value) + 3, 5),
              0);
}

TEST(VirtualMemory, UnwrittenPageReadsZeroWithoutMaterialising)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(kPageBytes * 3, kPageBytes);
    vm.write<std::uint64_t>(a, 7);
    const std::size_t touched = mem.touchedPages();
    std::vector<std::uint8_t> out(kPageBytes * 2, 0xFF);
    vm.readBytes(a + kPageBytes, out.data(), out.size());
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_EQ(vm.span(a + kPageBytes, 8), nullptr);
    EXPECT_EQ(mem.touchedPages(), touched);
}

TEST(VirtualMemory, SpanStaysWithinOnePage)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr base = vm.alloc(kPageBytes * 2, kPageBytes);
    std::vector<std::uint8_t> pattern(kPageBytes * 2);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 13);
    vm.writeBytes(base, pattern.data(), pattern.size());

    const std::uint8_t* inPage = vm.span(base + kPageBytes - 8, 8);
    ASSERT_NE(inPage, nullptr);
    EXPECT_EQ(std::memcmp(inPage, pattern.data() + kPageBytes - 8, 8), 0);
    EXPECT_EQ(vm.span(base + kPageBytes - 4, 8), nullptr);
    EXPECT_EQ(vm.span(kNullAddr, 8), nullptr);

    // spanOrCopy falls back to a copy across the boundary.
    std::vector<std::uint8_t> scratch;
    const std::uint8_t* copied =
        vm.spanOrCopy(base + kPageBytes - 4, 8, scratch);
    EXPECT_EQ(copied, scratch.data());
    EXPECT_EQ(std::memcmp(copied, pattern.data() + kPageBytes - 4, 8), 0);
}

TEST(VirtualMemoryDeath, ReadInAlignmentGapPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(8);
    vm.alloc(8, 4 * kPageBytes);
    std::uint64_t v = 0;
    EXPECT_DEATH(vm.readBytes(pageAlign(a) + kPageBytes, &v, sizeof(v)),
                 "unmapped virtual address");
}

TEST(VirtualMemoryDeath, PanicNamesTheCallingFile)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    // The location is the caller's line, not one inside logging.hh.
    EXPECT_DEATH(simAssert(vm.bytesAllocated() > 0, "empty heap"),
                 "empty heap.*test_virtual_memory\\.cc:[0-9]+");
    EXPECT_DEATH((void)vm.translate(0x20),
                 "unmapped.*virtual_memory\\.cc:[0-9]+");
}
