#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "mem/cache.hh"

using namespace qei;

namespace {

CacheParams
smallCache()
{
    return CacheParams{"t", 1024, 2, 3}; // 8 sets x 2 ways
}

} // namespace

TEST(Cache, MissOnCold)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    c.fill(0x40);
    EXPECT_TRUE(c.access(0x40, false));
    EXPECT_TRUE(c.access(0x7F, false)); // same line
}

TEST(Cache, GeometryDerived)
{
    Cache c(smallCache());
    EXPECT_EQ(c.sets(), 8u);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (stride = sets*64 = 512B).
    c.fill(0x000);
    c.fill(0x200);
    EXPECT_TRUE(c.access(0x000, false)); // 0x000 MRU
    c.fill(0x400);                       // evicts 0x200
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_TRUE(c.probe(0x400));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    c.fill(0x000, /*dirty=*/true);
    c.fill(0x200);
    const CacheAccess out = c.fill(0x400);
    ASSERT_TRUE(out.writeback.has_value());
    EXPECT_EQ(*out.writeback, 0x000u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, WriteAccessSetsDirty)
{
    Cache c(smallCache());
    c.fill(0x000);
    EXPECT_TRUE(c.access(0x000, /*is_write=*/true));
    c.fill(0x200);
    const CacheAccess out = c.fill(0x400);
    EXPECT_TRUE(out.writeback.has_value());
}

TEST(Cache, FillOfPresentLineIsHit)
{
    Cache c(smallCache());
    c.fill(0x40);
    const CacheAccess out = c.fill(0x40);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallCache());
    c.fill(0x40);
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, FlushAllEmpties)
{
    Cache c(smallCache());
    for (Addr a = 0; a < 1024; a += 64)
        c.fill(a);
    c.flushAll();
    for (Addr a = 0; a < 1024; a += 64)
        EXPECT_FALSE(c.probe(a));
}

TEST(Cache, ProbeDoesNotCount)
{
    Cache c(smallCache());
    c.probe(0x40);
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.fill(0x40);
    c.access(0x40, false);
    c.resetStats();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_TRUE(c.probe(0x40));
}

TEST(CacheDeath, NonPowerOfTwoSetsPanics)
{
    EXPECT_DEATH(Cache(CacheParams{"bad", 192, 1, 1}),
                 "power of two");
}

// Property sweep: for several geometries, a working set equal to the
// capacity must fully hit on a second pass (true LRU, no thrash).
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheGeometry, CapacityWorkingSetFullyHits)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheParams{"p", size, ways, 1});
    const std::uint64_t lines = size / kCacheLineBytes;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.fill(i * kCacheLineBytes);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * kCacheLineBytes, false));
    EXPECT_EQ(c.evictions(), 0u);
}

TEST_P(CacheGeometry, OverCapacityEvicts)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheParams{"p", size, ways, 1});
    const std::uint64_t lines = size / kCacheLineBytes;
    for (std::uint64_t i = 0; i < lines * 2; ++i)
        c.fill(i * kCacheLineBytes);
    EXPECT_EQ(c.evictions(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{1024, 1},
                      std::pair<std::uint64_t, std::uint32_t>{1024, 2},
                      std::pair<std::uint64_t, std::uint32_t>{4096, 4},
                      std::pair<std::uint64_t, std::uint32_t>{32768, 8},
                      std::pair<std::uint64_t, std::uint32_t>{65536,
                                                              16}));

namespace {

/**
 * The true-LRU model Cache replaced, kept as the reference: each line
 * holds a valid bit, a dirty bit and the `lastUse` stamp of a global
 * use clock; a fill takes the first invalid way, else the line with
 * the smallest stamp.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size_bytes, std::uint32_t ways)
        : ways_(ways),
          sets_(static_cast<std::uint32_t>(size_bytes / kCacheLineBytes /
                                           ways)),
          lines_(static_cast<std::size_t>(sets_) * ways)
    {
    }

    bool
    access(Addr paddr, bool is_write)
    {
        if (Line* line = find(paddr)) {
            line->lastUse = ++useClock_;
            line->dirty = line->dirty || is_write;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    bool probe(Addr paddr) { return find(paddr) != nullptr; }

    CacheAccess
    fill(Addr paddr, bool dirty)
    {
        CacheAccess result;
        if (Line* line = find(paddr)) {
            line->lastUse = ++useClock_;
            line->dirty = line->dirty || dirty;
            result.hit = true;
            return result;
        }
        Line* base = row(paddr);
        Line* victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->valid) {
            ++evictions;
            if (victim->dirty) {
                ++writebacks;
                result.writeback =
                    (victim->tag * sets_ + setOf(paddr)) * kCacheLineBytes;
            }
        }
        *victim = Line{tagOf(paddr), true, dirty, ++useClock_};
        return result;
    }

    void
    invalidate(Addr paddr)
    {
        if (Line* line = find(paddr))
            *line = Line{};
    }

    void
    flushAll()
    {
        for (Line& line : lines_)
            line.valid = line.dirty = false;
    }

    void resetStats() { hits = misses = evictions = writebacks = 0; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(Addr paddr) const
    {
        return (paddr / kCacheLineBytes) % sets_;
    }
    Addr tagOf(Addr paddr) const { return paddr / kCacheLineBytes / sets_; }
    Line* row(Addr paddr) { return &lines_[setOf(paddr) * ways_]; }

    Line*
    find(Addr paddr)
    {
        Line* base = row(paddr);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == tagOf(paddr))
                return &base[w];
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint32_t sets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

void
expectSameCounters(const Cache& c, const ReferenceCache& ref, int step)
{
    ASSERT_EQ(c.hits(), ref.hits) << "step " << step;
    ASSERT_EQ(c.misses(), ref.misses) << "step " << step;
    ASSERT_EQ(c.evictions(), ref.evictions) << "step " << step;
    ASSERT_EQ(c.writebacks(), ref.writebacks) << "step " << step;
}

} // namespace

// One seeded stream of every operation drives Cache and the reference
// true-LRU model; every return value, writeback address and counter
// must agree after every step.
class CacheDifferential
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheDifferential, MatchesReferenceLru)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheParams{"d", size, ways, 1});
    ReferenceCache ref(size, ways);
    const std::uint64_t sets = c.sets();
    Rng rng(0xCAC4E + ways);
    for (int step = 0; step < 200000; ++step) {
        // A few hot sets with about twice their ways in tags, so sets
        // fill, hit and evict; now and then a far tag or any set.
        const std::uint64_t set =
            rng.chance(0.9) ? rng.below(std::min<std::uint64_t>(sets, 4))
                            : rng.below(sets);
        const std::uint64_t tag = rng.chance(0.02)
                                      ? (std::uint64_t{1} << 40) + rng.below(4)
                                      : rng.below(2 * ways + 2);
        const Addr paddr =
            (tag * sets + set) * kCacheLineBytes + rng.below(kCacheLineBytes);
        const std::uint64_t op = rng.below(1000);
        if (op < 400) {
            const bool write = rng.chance(0.5);
            ASSERT_EQ(c.access(paddr, write), ref.access(paddr, write))
                << "step " << step;
        } else if (op < 750) {
            const bool dirty = rng.chance(0.5);
            const CacheAccess got = c.fill(paddr, dirty);
            const CacheAccess want = ref.fill(paddr, dirty);
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.writeback, want.writeback) << "step " << step;
        } else if (op < 870) {
            ASSERT_EQ(c.probe(paddr), ref.probe(paddr)) << "step " << step;
        } else if (op < 990) {
            c.invalidate(paddr);
            ref.invalidate(paddr);
        } else if (op < 995) {
            c.flushAll();
            ref.flushAll();
        } else {
            c.resetStats();
            ref.resetStats();
        }
        ASSERT_NO_FATAL_FAILURE(expectSameCounters(c, ref, step));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(
        std::pair<std::uint64_t, std::uint32_t>{1024, 1},
        std::pair<std::uint64_t, std::uint32_t>{1024, 2},
        std::pair<std::uint64_t, std::uint32_t>{32768, 8},
        // One LLC slice of Tab. II: 2048 sets x 11 ways.
        std::pair<std::uint64_t, std::uint32_t>{33 * 1024 * 1024 / 24, 11},
        std::pair<std::uint64_t, std::uint32_t>{65536, 16}));

TEST(Cache, InvalidateMiddleWayKeepsRecency)
{
    Cache c(CacheParams{"s", 4 * kCacheLineBytes, 4, 1});
    for (Addr line = 0; line < 4; ++line)
        c.fill(line * kCacheLineBytes, /*dirty=*/true); // 3 MRU, 0 LRU
    c.invalidate(2 * kCacheLineBytes);
    EXPECT_FALSE(c.fill(4 * kCacheLineBytes).writeback); // takes the gap
    // The rest still leave in their old LRU order: 0, 1, 3, then 4.
    for (Addr victim : {0, 1, 3}) {
        const CacheAccess out = c.fill((10 + victim) * kCacheLineBytes);
        ASSERT_TRUE(out.writeback.has_value());
        EXPECT_EQ(*out.writeback, victim * kCacheLineBytes);
    }
    EXPECT_TRUE(c.probe(4 * kCacheLineBytes));
    EXPECT_EQ(c.evictions(), 3u);
}

TEST(Cache, ProbeDoesNotReorder)
{
    Cache c(CacheParams{"s", 2 * kCacheLineBytes, 2, 1});
    c.fill(0x000, /*dirty=*/true);
    c.fill(0x040);
    EXPECT_TRUE(c.probe(0x000)); // still LRU
    const CacheAccess out = c.fill(0x080);
    ASSERT_TRUE(out.writeback.has_value());
    EXPECT_EQ(*out.writeback, 0x000u);
    EXPECT_TRUE(c.probe(0x040));
}

TEST(Cache, SetFromBeforeFlushIsReusedCleanly)
{
    Cache c(CacheParams{"s", 4 * kCacheLineBytes, 4, 1});
    for (Addr line = 0; line < 4; ++line)
        c.fill(line * kCacheLineBytes, /*dirty=*/true);
    c.flushAll();
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.access(0, false));
    c.invalidate(kCacheLineBytes); // no-op on a stale set
    // Refilling the flushed set evicts nothing and writes nothing back
    // until it is full again, and no old line reappears.
    for (Addr line = 10; line < 14; ++line)
        EXPECT_FALSE(c.fill(line * kCacheLineBytes).writeback);
    EXPECT_EQ(c.evictions(), 0u);
    for (Addr line = 0; line < 4; ++line)
        EXPECT_FALSE(c.probe(line * kCacheLineBytes));
    const CacheAccess out = c.fill(20 * kCacheLineBytes);
    EXPECT_FALSE(out.writeback); // LRU line 10 was filled clean
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.probe(10 * kCacheLineBytes));
    EXPECT_TRUE(c.probe(11 * kCacheLineBytes));
}
