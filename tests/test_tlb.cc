#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "common/random.hh"
#include "vm/tlb.hh"

using namespace qei;

TEST(Tlb, MissThenHit)
{
    Tlb tlb(4, 2);
    EXPECT_FALSE(tlb.lookup(0x10));
    tlb.fill(0x10);
    EXPECT_TRUE(tlb.lookup(0x10));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2, 1);
    tlb.fill(1);
    tlb.fill(2);
    EXPECT_TRUE(tlb.lookup(1)); // 1 becomes MRU
    tlb.fill(3);                // evicts 2
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, DuplicateFillIsIdempotent)
{
    Tlb tlb(2, 1);
    tlb.fill(1);
    tlb.fill(1);
    tlb.fill(2);
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_TRUE(tlb.lookup(2));
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb(8, 1);
    for (Addr v = 0; v < 8; ++v)
        tlb.fill(v);
    tlb.flush();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_FALSE(tlb.lookup(3));
}

TEST(Tlb, PrefillStopsAtCapacity)
{
    Tlb tlb(4, 1);
    tlb.prefill({1, 2, 3, 4, 5, 6});
    EXPECT_EQ(tlb.size(), 4u);
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(6));
}

TEST(Tlb, HitRate)
{
    Tlb tlb(4, 1);
    tlb.fill(1);
    tlb.lookup(1);
    tlb.lookup(2);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

namespace {

/** The std::list + std::unordered_map TLB that Tlb replaced. */
class RefTlb
{
  public:
    explicit RefTlb(std::size_t entries) : capacity_(entries) {}

    bool
    lookup(Addr vpn)
    {
        auto it = index_.find(vpn);
        if (it == index_.end()) {
            ++misses_;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return true;
    }

    void
    fill(Addr vpn)
    {
        if (index_.contains(vpn))
            return;
        if (lru_.size() >= capacity_) {
            index_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(vpn);
        index_[vpn] = lru_.begin();
    }

    void
    prefill(const std::vector<Addr>& vpns)
    {
        for (Addr vpn : vpns) {
            if (lru_.size() >= capacity_)
                break;
            fill(vpn);
        }
    }

    void
    flush()
    {
        lru_.clear();
        index_.clear();
    }

    /** Cached VPNs, most recently used first. */
    std::vector<Addr> entries() const { return {lru_.begin(), lru_.end()}; }
    std::size_t size() const { return lru_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::size_t capacity_;
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * A VPN for a TLB of @p capacity: mostly from a dense range of three
 * times the capacity (so the TLB stays full, probe chains run into
 * each other and most fills evict), sometimes a scattered 36-bit page
 * number that is almost always a miss.
 */
Addr
drawVpn(Rng& rng, std::size_t capacity)
{
    if (rng.chance(0.9))
        return 0x7F000 + rng.below(3 * capacity);
    return rng.below(Addr{1} << 36);
}

/**
 * Tlb and RefTlb agree on one seeded op stream. Every op on a small
 * TLB, and every 256 ops on a large one, both look up every VPN the
 * reference holds, from LRU to MRU (which keeps their order), so an
 * entry the index lost is found before lost entries can fill it.
 */
void
checkAgainstReference(std::size_t capacity, std::uint64_t seed, int ops)
{
    Tlb tlb(capacity, 1);
    RefTlb ref(capacity);
    Rng rng(seed);
    const int sweepEvery = capacity <= 64 ? 1 : 256;
    for (int op = 0; op < ops; ++op) {
        if (op % sweepEvery == 0) {
            const std::vector<Addr> held = ref.entries();
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
                ref.lookup(*it);
                ASSERT_TRUE(tlb.lookup(*it))
                    << "lost " << *it << " before op " << op;
            }
        }
        const std::uint64_t kind = rng.below(1000);
        if (kind < 550) {
            const Addr vpn = drawVpn(rng, capacity);
            ASSERT_EQ(tlb.lookup(vpn), ref.lookup(vpn))
                << "lookup " << vpn << " at op " << op;
        } else if (kind < 990) {
            const Addr vpn = drawVpn(rng, capacity);
            tlb.fill(vpn);
            ref.fill(vpn);
        } else if (kind < 998) {
            std::vector<Addr> vpns(rng.below(2 * capacity + 1));
            for (Addr& vpn : vpns)
                vpn = drawVpn(rng, capacity);
            tlb.prefill(vpns);
            ref.prefill(vpns);
        } else {
            tlb.flush();
            ref.flush();
        }
        ASSERT_EQ(tlb.size(), ref.size()) << "at op " << op;
        ASSERT_EQ(tlb.hits(), ref.hits()) << "at op " << op;
        ASSERT_EQ(tlb.misses(), ref.misses()) << "at op " << op;
    }
}

} // namespace

TEST(Tlb, MatchesListReferenceOnSeededMix)
{
    for (std::size_t capacity : {1, 2, 64, 1024, 1536}) {
        SCOPED_TRACE(capacity);
        for (std::uint64_t seed : {1, 7, 19})
            checkAgainstReference(capacity, seed, 60 * 1000);
    }
}

TEST(Tlb, FullTlbKeepsTheMostRecentlyUsed)
{
    // Fill past capacity, touching the oldest entry each round: the
    // touched entry survives, the untouched ones go in fill order.
    Tlb tlb(64, 1);
    for (Addr v = 0; v < 64; ++v)
        tlb.fill(v);
    for (Addr v = 64; v < 128; ++v) {
        EXPECT_TRUE(tlb.lookup(0));
        tlb.fill(v);
    }
    EXPECT_EQ(tlb.size(), 64u);
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(64));
    EXPECT_TRUE(tlb.lookup(65));
    EXPECT_TRUE(tlb.lookup(127));
}

namespace {

struct MmuFixture : ::testing::Test
{
    MmuFixture() : mem(1 << 26), vm(mem), mmu(vm)
    {
        base = vm.alloc(kPageBytes * 8, kPageBytes);
    }

    SimMemory mem;
    VirtualMemory vm;
    Mmu mmu;
    Addr base = 0;
};

} // namespace

TEST_F(MmuFixture, ColdTranslationWalks)
{
    const Translation t = mmu.translate(base);
    EXPECT_TRUE(t.valid);
    EXPECT_TRUE(t.walked);
    EXPECT_EQ(t.latency, 1u + 9u + 90u);
    EXPECT_EQ(t.paddr, vm.translate(base));
}

TEST_F(MmuFixture, SecondTranslationHitsL1)
{
    mmu.translate(base);
    const Translation t = mmu.translate(base + 8);
    EXPECT_TRUE(t.l1Hit);
    EXPECT_EQ(t.latency, 1u);
}

TEST_F(MmuFixture, L2HitAfterL1Eviction)
{
    mmu.translate(base);
    // Push the page out of the 64-entry L1 TLB with 80 other pages.
    const Addr filler = vm.alloc(kPageBytes * 90, kPageBytes);
    for (int p = 0; p < 80; ++p)
        mmu.translate(filler + p * kPageBytes);
    const Translation t = mmu.translate(base);
    EXPECT_TRUE(t.l2Hit);
    EXPECT_EQ(t.latency, 1u + 9u);
}

TEST_F(MmuFixture, FaultOnUnmapped)
{
    const Translation t = mmu.translate(0x40);
    EXPECT_FALSE(t.valid);
}

TEST_F(MmuFixture, TranslateViaL2SkipsL1)
{
    const Translation cold = mmu.translateViaL2(base);
    EXPECT_TRUE(cold.walked);
    EXPECT_EQ(cold.latency, 9u + 90u);
    const Translation warm = mmu.translateViaL2(base);
    EXPECT_TRUE(warm.l2Hit);
    EXPECT_EQ(warm.latency, 9u);
    // And the L1 was never filled.
    const Translation l1 = mmu.translate(base);
    EXPECT_FALSE(l1.l1Hit);
}

TEST_F(MmuFixture, PrefillL2MakesWarmTranslations)
{
    mmu.prefillL2({pageNumber(base)});
    const Translation t = mmu.translateViaL2(base);
    EXPECT_TRUE(t.l2Hit);
}

TEST_F(MmuFixture, FlushForgetsEverything)
{
    mmu.translate(base);
    mmu.flush();
    const Translation t = mmu.translate(base);
    EXPECT_TRUE(t.walked);
}
