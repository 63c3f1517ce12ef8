#include "trace.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace qei::trace {

const char*
toString(Category cat)
{
    switch (cat) {
      case Category::Sim: return "sim";
      case Category::Core: return "core";
      case Category::Query: return "query";
      case Category::Breakdown: return "breakdown";
      case Category::Qst: return "qst";
      case Category::Microcode: return "ucode";
      case Category::Dpu: return "dpu";
      case Category::Mem: return "mem";
      case Category::Dram: return "dram";
      case Category::Noc: return "noc";
      case Category::Tlb: return "tlb";
      case Category::Vm: return "vm";
      case Category::Metric: return "metric";
    }
    return "unknown";
}

std::uint16_t
TraceSink::internComponent(const std::string& path)
{
    auto it = componentIds_.find(path);
    if (it != componentIds_.end())
        return it->second;
    simAssert(componentNames_.size() <
                  std::numeric_limits<std::uint16_t>::max(),
              "component intern table overflow");
    const auto id =
        static_cast<std::uint16_t>(componentNames_.size());
    componentNames_.push_back(path);
    componentIds_.emplace(path, id);
    return id;
}

std::uint32_t
TraceSink::internName(const std::string& name)
{
    auto it = nameIds_.find(name);
    if (it != nameIds_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(nameTable_.size());
    nameTable_.push_back(name);
    nameIds_.emplace(name, id);
    return id;
}

void
TraceSink::rollbackInterns(const InternMark& mark)
{
    while (componentNames_.size() > mark.components) {
        componentIds_.erase(componentNames_.back());
        componentNames_.pop_back();
    }
    while (nameTable_.size() > mark.names) {
        nameIds_.erase(nameTable_.back());
        nameTable_.pop_back();
    }
}

std::vector<TraceEvent>
TraceSink::ordered() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    if (n < ring_.size()) {
        out.insert(out.end(), ring_.begin(),
                   ring_.begin() + static_cast<std::ptrdiff_t>(n));
    } else {
        // Wrapped: head_ points at the oldest slot.
        out.insert(out.end(),
                   ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                   ring_.end());
        out.insert(out.end(), ring_.begin(),
                   ring_.begin() + static_cast<std::ptrdiff_t>(head_));
    }
    return out;
}

TraceBuffer
TraceSink::drain()
{
    TraceBuffer buf;
    buf.events = ordered();
    buf.components = componentNames_;
    buf.names = nameTable_;
    buf.emitted = emitted_;
    buf.dropped = dropped();
    head_ = 0;
    emitted_ = 0;
    return buf;
}

namespace {

/** ts/dur unit: one simulated cycle rendered as one microsecond. */
Json
metadataEvent(int pid, int tid, const char* what, std::string name)
{
    Json ev = Json::object();
    ev["ph"] = "M";
    ev["pid"] = pid;
    ev["tid"] = tid;
    ev["name"] = what;
    Json args = Json::object();
    args["name"] = std::move(name);
    ev["args"] = std::move(args);
    return ev;
}

} // namespace

void
appendPerfettoEvents(Json& trace_events, const TraceBuffer& buf,
                     int pid, const std::string& process_name)
{
    trace_events.push_back(
        metadataEvent(pid, 0, "process_name", process_name));
    for (std::size_t c = 0; c < buf.components.size(); ++c) {
        trace_events.push_back(metadataEvent(
            pid, static_cast<int>(c), "thread_name",
            buf.components[c]));
    }
    for (const TraceEvent& ev : buf.events) {
        Json out = Json::object();
        out["name"] = ev.nameId < buf.names.size()
                          ? buf.names[ev.nameId]
                          : std::string("?");
        out["cat"] = toString(ev.category);
        out["pid"] = pid;
        out["tid"] = static_cast<int>(ev.componentId);
        out["ts"] = ev.tick;
        if (ev.category == Category::Metric) {
            // Counter track: Perfetto renders one stacked counter per
            // (pid, name); the sampled value rides in args.
            out["ph"] = "C";
            Json args = Json::object();
            args["value"] = ev.value;
            out["args"] = std::move(args);
            trace_events.push_back(std::move(out));
            continue;
        }
        if (ev.duration > 0) {
            out["ph"] = "X";
            out["dur"] = ev.duration;
        } else {
            out["ph"] = "i";
            out["s"] = "t"; // thread-scoped instant
        }
        if (ev.queryId != kNoQuery) {
            Json args = Json::object();
            args["query"] = ev.queryId;
            out["args"] = std::move(args);
        }
        trace_events.push_back(std::move(out));
    }
}

Json
perfettoJson(const TraceBuffer& buf, const std::string& process_name)
{
    Json doc = Json::object();
    Json events = Json::array();
    appendPerfettoEvents(events, buf, /*pid=*/0, process_name);
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc;
}

const char*
toString(LatencyComponent c)
{
    switch (c) {
      case LatencyComponent::Submit: return "submit";
      case LatencyComponent::QueueWait: return "queue_wait";
      case LatencyComponent::CeeWait: return "cee_wait";
      case LatencyComponent::CeeExec: return "cee_exec";
      case LatencyComponent::Translation: return "translation";
      case LatencyComponent::Memory: return "memory";
      case LatencyComponent::Dpu: return "dpu";
      case LatencyComponent::Noc: return "noc";
      case LatencyComponent::Delivery: return "delivery";
      case LatencyComponent::Response: return "response";
      case LatencyComponent::SwFallback: return "sw_fallback";
      case LatencyComponent::Flush: return "flush";
      case LatencyComponent::Other: return "other";
    }
    return "unknown";
}

LatencyBreakdown::LatencyBreakdown()
    : SimObject("breakdown"),
      componentHist_{Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256), Histogram(8.0, 256),
                     Histogram(8.0, 256)},
      endToEndHist_(32.0, 512)
{
}

void
LatencyBreakdown::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        registry.addHistogram(
            base + toString(static_cast<LatencyComponent>(i)),
            componentHist_[i], "per-query cycles in this component");
    }
    registry.addHistogram(base + "end_to_end", endToEndHist_,
                          "per-query end-to-end latency");
}

void
LatencyBreakdown::record(const QueryAttribution& attribution)
{
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        totals_[i] += attribution.cycles[i];
        componentHist_[i].sample(
            static_cast<double>(attribution.cycles[i]));
    }
    endToEndTotal_ += attribution.endToEnd;
    endToEndHist_.sample(static_cast<double>(attribution.endToEnd));
    ++queries_;
}

void
LatencyBreakdown::reset()
{
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        totals_[i] = 0;
        componentHist_[i].reset();
    }
    endToEndTotal_ = 0;
    endToEndHist_.reset();
    queries_ = 0;
}

FoldedBreakdown
foldTrace(const TraceBuffer& buf)
{
    // Map interned name ids back to latency components once.
    std::vector<int> componentOf(buf.names.size(), -1);
    for (std::size_t i = 0; i < kLatencyComponentCount; ++i) {
        const char* name = toString(static_cast<LatencyComponent>(i));
        for (std::size_t n = 0; n < buf.names.size(); ++n) {
            if (buf.names[n] == name)
                componentOf[n] = static_cast<int>(i);
        }
    }
    std::uint32_t queryNameId = ~std::uint32_t{0};
    for (std::size_t n = 0; n < buf.names.size(); ++n) {
        if (buf.names[n] == "query")
            queryNameId = static_cast<std::uint32_t>(n);
    }

    FoldedBreakdown out;
    for (const TraceEvent& ev : buf.events) {
        if (ev.category == Category::Breakdown &&
            ev.nameId < componentOf.size() &&
            componentOf[ev.nameId] >= 0) {
            out.totals[static_cast<std::size_t>(
                componentOf[ev.nameId])] += ev.duration;
        } else if (ev.category == Category::Query &&
                   ev.nameId == queryNameId) {
            out.endToEnd += ev.duration;
            ++out.queries;
        }
    }
    return out;
}

} // namespace qei::trace
