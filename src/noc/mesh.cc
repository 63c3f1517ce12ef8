#include "mesh.hh"

#include <algorithm>
#include <cmath>

namespace qei {

Mesh::Mesh(const MeshParams& params) : SimObject("mesh"), params_(params)
{
    simAssert(params_.cols > 0 && params_.rows > 0,
              "degenerate mesh {}x{}", params_.cols, params_.rows);
    const std::size_t links =
        static_cast<std::size_t>(tiles()) * 4;
    windowBytes_.assign(links, 0);
    lastUtilisation_.assign(links, 0.0);
    delay_.assign(links, 0);

    // XY routing: move along X first, then Y, one link per hop.
    routeStart_.reserve(static_cast<std::size_t>(tiles()) * tiles() + 1);
    for (int from = 0; from < tiles(); ++from) {
        for (int to = 0; to < tiles(); ++to) {
            routeStart_.push_back(
                static_cast<std::uint32_t>(routeLinks_.size()));
            TileCoord at = coordOf(from);
            const TileCoord dst = coordOf(to);
            while (at.x != dst.x) {
                const Direction dir = at.x < dst.x ? East : West;
                routeLinks_.push_back(
                    static_cast<std::uint32_t>(linkId(at, dir)));
                at.x += at.x < dst.x ? 1 : -1;
            }
            while (at.y != dst.y) {
                const Direction dir = at.y < dst.y ? South : North;
                routeLinks_.push_back(
                    static_cast<std::uint32_t>(linkId(at, dir)));
                at.y += at.y < dst.y ? 1 : -1;
            }
        }
    }
    routeStart_.push_back(static_cast<std::uint32_t>(routeLinks_.size()));
}

void
Mesh::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "bytes", totalBytes_,
                        "bytes injected into the fabric");
    registry.addCounter(base + "messages", messages_,
                        "messages injected");
    registry.addFormula(
        base + "peak_link_utilisation",
        [this] { return peakLinkUtilisation(); },
        "worst link, last complete window");
    registry.addFormula(
        base + "mean_link_utilisation",
        [this] { return meanLinkUtilisation(); },
        "all links, last complete window");
}

TileCoord
Mesh::coordOf(int tile) const
{
    simAssert(tile >= 0 && tile < tiles(), "tile {} out of range", tile);
    return TileCoord{tile % params_.cols, tile / params_.cols};
}

int
Mesh::tileOf(TileCoord coord) const
{
    simAssert(coord.x >= 0 && coord.x < params_.cols && coord.y >= 0 &&
                  coord.y < params_.rows,
              "coord ({}, {}) out of range", coord.x, coord.y);
    return coord.y * params_.cols + coord.x;
}

int
Mesh::hops(int from, int to) const
{
    const TileCoord a = coordOf(from);
    const TileCoord b = coordOf(to);
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

int
Mesh::linkId(TileCoord at, Direction dir) const
{
    return tileOf(at) * 4 + static_cast<int>(dir);
}

void
Mesh::rollWindow(Cycles now)
{
    if (now < windowStart_ + params_.utilisationWindow)
        return;
    const double capacity =
        params_.linkBytesPerCycle *
        static_cast<double>(params_.utilisationWindow);
    double peak = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < windowBytes_.size(); ++i) {
        const double rho =
            std::min(0.99, static_cast<double>(windowBytes_[i]) /
                               capacity);
        lastUtilisation_[i] = rho;
        delay_[i] = linkDelay(static_cast<int>(i));
        peak = std::max(peak, rho);
        sum += rho;
        windowBytes_[i] = 0;
    }
    peakUtilisation_ = std::max(peakUtilisation_, peak);
    meanUtilisation_ = sum / static_cast<double>(windowBytes_.size());
    windowStart_ = now;
}

Cycles
Mesh::linkDelay(int link) const
{
    // M/M/1-flavoured queueing term: rho/(1-rho) extra hop latencies,
    // capped so a saturated link degrades gracefully instead of
    // diverging.
    const double rho = lastUtilisation_[static_cast<std::size_t>(link)];
    const double q = std::min(8.0, rho / (1.0 - rho));
    return static_cast<Cycles>(std::llround(
        q * static_cast<double>(params_.hopLatency)));
}

Cycles
Mesh::traverse(int from, int to, std::uint32_t bytes, Cycles now)
{
    rollWindow(now);
    messages_.inc();
    totalBytes_.inc(bytes);

    simAssert(from >= 0 && from < tiles() && to >= 0 && to < tiles(),
              "route {} -> {} out of range", from, to);
    Cycles latency = params_.injectionLatency;
    if (from == to)
        return latency;

    // The route's links, each charged its bytes, one hop and the
    // queueing delay of the last complete window.
    const std::size_t route =
        static_cast<std::size_t>(from) * static_cast<std::size_t>(tiles()) +
        static_cast<std::size_t>(to);
    for (std::uint32_t i = routeStart_[route]; i < routeStart_[route + 1];
         ++i) {
        const std::uint32_t link = routeLinks_[i];
        windowBytes_[link] += bytes;
        latency += params_.hopLatency + delay_[link];
    }
    if (trace::active(trace_)) {
        trace_->record(trace::Category::Noc, traceComp_, traceMsg_,
                       trace::kNoQuery, now, latency);
    }
    return latency;
}

void
Mesh::resetTraffic()
{
    std::fill(windowBytes_.begin(), windowBytes_.end(), 0);
    std::fill(lastUtilisation_.begin(), lastUtilisation_.end(), 0.0);
    std::fill(delay_.begin(), delay_.end(), 0);
    windowStart_ = 0;
    peakUtilisation_ = 0.0;
    meanUtilisation_ = 0.0;
    totalBytes_.reset();
    messages_.reset();
}

} // namespace qei
