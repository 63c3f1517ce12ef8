#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.hh"
#include "noc/mesh.hh"

using namespace qei;

TEST(Mesh, CoordTileRoundtrip)
{
    Mesh mesh;
    for (int t = 0; t < mesh.tiles(); ++t)
        EXPECT_EQ(mesh.tileOf(mesh.coordOf(t)), t);
}

TEST(Mesh, HopCountManhattan)
{
    Mesh mesh; // 6x4
    EXPECT_EQ(mesh.hops(0, 0), 0);
    EXPECT_EQ(mesh.hops(0, 5), 5);  // across the top row
    EXPECT_EQ(mesh.hops(0, 23), 8); // opposite corner: 5 + 3
    EXPECT_EQ(mesh.hops(7, 7), 0);
}

TEST(Mesh, HopsSymmetric)
{
    Mesh mesh;
    for (int a = 0; a < mesh.tiles(); a += 5) {
        for (int b = 0; b < mesh.tiles(); b += 3)
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
    }
}

TEST(Mesh, LatencyGrowsWithDistance)
{
    Mesh mesh;
    const Cycles near = mesh.traverse(0, 1, 16, 0);
    const Cycles far = mesh.traverse(0, 23, 16, 0);
    EXPECT_GT(far, near);
}

TEST(Mesh, SelfTraverseIsInjectionOnly)
{
    Mesh mesh;
    EXPECT_EQ(mesh.traverse(3, 3, 64, 0),
              mesh.params().injectionLatency);
}

TEST(Mesh, UncongestedLatencyIsDeterministic)
{
    Mesh mesh;
    const Cycles expected = mesh.params().injectionLatency +
                            static_cast<Cycles>(mesh.hops(0, 23)) *
                                mesh.params().hopLatency;
    EXPECT_EQ(mesh.traverse(0, 23, 16, 0), expected);
}

TEST(Mesh, CongestionAddsQueueingDelay)
{
    MeshParams params;
    params.utilisationWindow = 1000;
    params.linkBytesPerCycle = 4.0; // easy to saturate
    Mesh mesh(params);
    // Hammer one link for a full window, then roll the window.
    for (int i = 0; i < 2000; ++i)
        mesh.traverse(0, 1, 64, 500);
    const Cycles hot = mesh.traverse(0, 1, 16, 2000);
    Mesh cold(params);
    const Cycles base = cold.traverse(0, 1, 16, 2000);
    EXPECT_GT(hot, base);
    EXPECT_GT(mesh.peakLinkUtilisation(), 0.5);
}

TEST(Mesh, RoundTripChargesBothDirections)
{
    Mesh mesh;
    const std::uint64_t before = mesh.totalBytes();
    mesh.roundTrip(0, 5, 16, 72, 0);
    EXPECT_EQ(mesh.totalBytes() - before, 88u);
}

TEST(Mesh, ResetTrafficClearsAccounting)
{
    Mesh mesh;
    mesh.traverse(0, 5, 64, 0);
    mesh.resetTraffic();
    EXPECT_EQ(mesh.totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(mesh.peakLinkUtilisation(), 0.0);
}

TEST(MeshDeath, BadTilePanics)
{
    Mesh mesh;
    EXPECT_DEATH((void)mesh.coordOf(24), "out of range");
    EXPECT_DEATH((void)mesh.traverse(0, 24, 16, 0), "out of range");
    EXPECT_DEATH((void)mesh.traverse(-1, 3, 16, 0), "out of range");
}

namespace {

/**
 * The per-hop walk Mesh replaced: XY routing computed hop by hop, and
 * each link's queueing delay computed from its utilisation on every
 * crossing.
 */
class RefMesh
{
  public:
    explicit RefMesh(const MeshParams& params)
        : params_(params),
          windowBytes_(static_cast<std::size_t>(tiles()) * 4, 0),
          lastUtilisation_(windowBytes_.size(), 0.0)
    {
    }

    Cycles
    traverse(int from, int to, std::uint32_t bytes, Cycles now)
    {
        rollWindow(now);
        totalBytes_ += bytes;
        Cycles latency = params_.injectionLatency;
        if (from == to)
            return latency;
        int x = from % params_.cols;
        int y = from / params_.cols;
        const int dx = to % params_.cols;
        const int dy = to / params_.cols;
        while (x != dx) {
            const int link = (y * params_.cols + x) * 4 + (x < dx ? 0 : 1);
            windowBytes_[static_cast<std::size_t>(link)] += bytes;
            latency += params_.hopLatency + linkDelay(link);
            x += x < dx ? 1 : -1;
        }
        while (y != dy) {
            const int link = (y * params_.cols + x) * 4 + (y < dy ? 3 : 2);
            windowBytes_[static_cast<std::size_t>(link)] += bytes;
            latency += params_.hopLatency + linkDelay(link);
            y += y < dy ? 1 : -1;
        }
        return latency;
    }

    void
    resetTraffic()
    {
        std::fill(windowBytes_.begin(), windowBytes_.end(), 0);
        std::fill(lastUtilisation_.begin(), lastUtilisation_.end(), 0.0);
        windowStart_ = 0;
        peak_ = 0.0;
        mean_ = 0.0;
        totalBytes_ = 0;
    }

    int tiles() const { return params_.cols * params_.rows; }
    double peak() const { return peak_; }
    double mean() const { return mean_; }
    std::uint64_t totalBytes() const { return totalBytes_; }

  private:
    void
    rollWindow(Cycles now)
    {
        if (now < windowStart_ + params_.utilisationWindow)
            return;
        const double capacity =
            params_.linkBytesPerCycle *
            static_cast<double>(params_.utilisationWindow);
        double peak = 0.0;
        double sum = 0.0;
        for (std::size_t i = 0; i < windowBytes_.size(); ++i) {
            const double rho = std::min(
                0.99, static_cast<double>(windowBytes_[i]) / capacity);
            lastUtilisation_[i] = rho;
            peak = std::max(peak, rho);
            sum += rho;
            windowBytes_[i] = 0;
        }
        peak_ = std::max(peak_, peak);
        mean_ = sum / static_cast<double>(windowBytes_.size());
        windowStart_ = now;
    }

    Cycles
    linkDelay(int link) const
    {
        const double rho = lastUtilisation_[static_cast<std::size_t>(link)];
        const double q = std::min(8.0, rho / (1.0 - rho));
        return static_cast<Cycles>(
            std::llround(q * static_cast<double>(params_.hopLatency)));
    }

    MeshParams params_;
    std::vector<std::uint64_t> windowBytes_;
    std::vector<double> lastUtilisation_;
    Cycles windowStart_ = 0;
    double peak_ = 0.0;
    double mean_ = 0.0;
    std::uint64_t totalBytes_ = 0;
};

/**
 * Mesh and RefMesh agree on one seeded message stream of @p messages
 * over about @p windows utilisation windows, with a resetTraffic()
 * halfway. Sets @p worst to the largest latency seen, to show
 * congestion.
 */
void
checkAgainstReference(const MeshParams& params, std::uint64_t seed,
                      int messages, int windows, Cycles& worst)
{
    Mesh mesh(params);
    RefMesh ref(params);
    Rng rng(seed);
    const Cycles span =
        params.utilisationWindow * static_cast<Cycles>(windows);
    const Cycles step = std::max<Cycles>(1, 2 * span / messages);
    Cycles now = 0;
    worst = 0;
    for (int m = 0; m < messages; ++m) {
        if (m == messages / 2) {
            mesh.resetTraffic();
            ref.resetTraffic();
            now = 0;
        }
        // A hot spot at tile 14 (a device stop) plus uniform traffic,
        // sometimes a response sent at now + the request's latency.
        const int from = static_cast<int>(rng.below(24));
        const int to = rng.chance(0.5) ? 14 : static_cast<int>(rng.below(24));
        const auto bytes = static_cast<std::uint32_t>(
            rng.chance(0.5) ? 16 : 72);
        const Cycles at = rng.chance(0.2) ? now + rng.below(200) : now;
        const Cycles got = mesh.traverse(from, to, bytes, at);
        ASSERT_EQ(got, ref.traverse(from, to, bytes, at))
            << from << " -> " << to << " at " << at << ", message " << m;
        ASSERT_EQ(mesh.peakLinkUtilisation(), ref.peak()) << "message " << m;
        ASSERT_EQ(mesh.meanLinkUtilisation(), ref.mean()) << "message " << m;
        ASSERT_EQ(mesh.totalBytes(), ref.totalBytes()) << "message " << m;
        worst = std::max(worst, got);
        now += rng.below(step + 1);
    }
}

} // namespace

TEST(Mesh, MatchesPerHopReferenceOnSeededStream)
{
    MeshParams hot;
    hot.utilisationWindow = 1000;
    hot.linkBytesPerCycle = 4.0; // easy to saturate: delays up to 16
    for (std::uint64_t seed : {1, 7, 19}) {
        Cycles worst = 0;
        checkAgainstReference(hot, seed, 40000, 40, worst);
        // Congestion must add delay on the way.
        EXPECT_GT(worst, hot.injectionLatency + 8 * hot.hopLatency + 16);
        checkAgainstReference(MeshParams{}, seed, 40000, 8, worst);
    }
}
