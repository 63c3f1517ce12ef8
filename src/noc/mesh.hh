/**
 * @file
 * 2-D mesh network-on-chip model with XY routing and a
 * utilisation-dependent queueing delay per link.
 *
 * A Skylake-SP-like 24-tile die is modelled as a 6x4 mesh; each tile
 * carries one core, one LLC slice, and one CHA. Traffic is charged per
 * link so a centralised (Device-based) accelerator concentrates load on
 * the links around its stop — the hotspot effect of Sec. V.
 */

#ifndef QEI_NOC_MESH_HH
#define QEI_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace qei {

/** A tile coordinate on the mesh. */
struct TileCoord
{
    int x = 0;
    int y = 0;

    bool operator==(const TileCoord&) const = default;
};

/** Mesh configuration. */
struct MeshParams
{
    int cols = 6;
    int rows = 4;
    Cycles hopLatency = 2;       ///< link traversal + router, per hop
    Cycles injectionLatency = 1; ///< entering / leaving the fabric
    double linkBytesPerCycle = 32.0; ///< per-direction link bandwidth
    /** Window length (cycles) over which utilisation is averaged. */
    Cycles utilisationWindow = 10000;
};

/**
 * The mesh fabric.
 *
 * Timing model: an N-hop message pays injection + N * hop latency plus,
 * per link crossed, a queueing penalty that grows with that link's
 * recent utilisation (an M/M/1-style rho/(1-rho) term, capped). This
 * is deliberately coarse but reproduces both the distance sensitivity
 * (NUCA) and the congestion/hotspot behaviour the paper leans on.
 */
class Mesh : public SimObject
{
  public:
    explicit Mesh(const MeshParams& params = {});

    void regStats(StatsRegistry& registry) override;

    int tiles() const { return params_.cols * params_.rows; }
    const MeshParams& params() const { return params_; }

    /** Coordinate of tile @p id (row-major). */
    TileCoord coordOf(int tile) const;

    /** Tile id of @p coord. */
    int tileOf(TileCoord coord) const;

    /** Manhattan hop count between two tiles under XY routing. */
    int hops(int from, int to) const;

    /**
     * Send @p bytes from @p from to @p to at time @p now.
     * Accounts traffic on every crossed link and returns the modelled
     * one-way latency including congestion.
     */
    Cycles traverse(int from, int to, std::uint32_t bytes, Cycles now);

    /** Latency of a request/response pair (both directions charged). */
    Cycles
    roundTrip(int from, int to, std::uint32_t req_bytes,
              std::uint32_t resp_bytes, Cycles now)
    {
        return traverse(from, to, req_bytes, now) +
               traverse(to, from, resp_bytes, now);
    }

    /** Peak link utilisation observed over the last complete window. */
    double peakLinkUtilisation() const { return peakUtilisation_; }

    /** Mean utilisation over all links, last complete window. */
    double meanLinkUtilisation() const { return meanUtilisation_; }

    /** Total bytes ever injected. */
    std::uint64_t totalBytes() const { return totalBytes_.value(); }

    /** Reset traffic accounting (not topology). */
    void resetTraffic();

    /** Attach a trace sink: every traverse() records a Noc span. */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        trace_ = sink;
        if (sink != nullptr) {
            traceComp_ = sink->internComponent("noc");
            traceMsg_ = sink->internName("msg");
        }
    }

  private:
    /** Directed link ids: 4 per tile (E, W, N, S). */
    enum Direction { East = 0, West = 1, North = 2, South = 3 };

    int linkId(TileCoord at, Direction dir) const;
    void rollWindow(Cycles now);
    Cycles linkDelay(int link) const;

    MeshParams params_;
    /**
     * XY route of every (from, to) pair as one CSR table: the links of
     * route `from * tiles() + to`, in crossing order, are
     * routeLinks_[routeStart_[r], routeStart_[r + 1]).
     */
    std::vector<std::uint32_t> routeStart_;
    std::vector<std::uint32_t> routeLinks_;
    /** Bytes sent on each directed link in the current window. */
    std::vector<std::uint64_t> windowBytes_;
    /** Utilisation of each link over the previous window. */
    std::vector<double> lastUtilisation_;
    /** linkDelay() of each link, refreshed whenever lastUtilisation_ is. */
    std::vector<Cycles> delay_;
    Cycles windowStart_ = 0;
    double peakUtilisation_ = 0.0;
    double meanUtilisation_ = 0.0;
    Counter totalBytes_;
    Counter messages_;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::uint32_t traceMsg_ = 0;
};

} // namespace qei

#endif // QEI_NOC_MESH_HH
