/**
 * @file
 * qei::trace — low-overhead query-lifecycle event tracing.
 *
 * A TraceSink is a per-World ring buffer of typed TraceEvents. Every
 * simulated layer (event queue, core model, accelerator, caches, NoC,
 * TLBs/VM) holds a borrowed sink pointer and records spans — issue,
 * QST admit, microcode steps, DPU ops, NoC hops, TLB/page walks, DRAM
 * accesses, completion — tagged with {tick, category, component,
 * query-id, duration}.
 *
 * Design rules:
 *  - zero heap churn on the hot path: the ring is allocated once at
 *    enable() and wraps (oldest events are overwritten); component and
 *    event names are interned to small ids at setup time;
 *  - per-World: sinks are owned by the World a task simulates, so
 *    parallel matrix rows never share one (the no-shared-mutable-state
 *    rule of docs/performance.md);
 *  - compiled-out-able: configuring with -DQEI_TRACING=OFF removes the
 *    recording path entirely — trace::active() becomes constant false
 *    and every call site dead-codes away.
 *
 * Consumers: perfettoJson() exports Chrome/Perfetto trace_event JSON
 * (load in https://ui.perfetto.dev or chrome://tracing), and
 * LatencyBreakdown folds per-query attribution into StatsRegistry
 * histograms (the paper's Fig. 8-style latency decomposition).
 */

#ifndef QEI_TRACE_TRACE_HH
#define QEI_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace qei::trace {

/** True when the tracing subsystem is compiled in (QEI_TRACING=ON). */
#if defined(QEI_TRACING)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/** Event categories, one per simulated layer / lifecycle stage. */
enum class Category : std::uint8_t {
    Sim,       ///< event-queue activity (run spans)
    Core,      ///< software-baseline query execution
    Query,     ///< whole-query end-to-end spans (issue -> retire)
    Breakdown, ///< per-query latency-attribution spans
    Qst,       ///< QST admit / CEE wait / result delivery
    Microcode, ///< CFA state transitions (header fetch, micro-ops)
    Dpu,       ///< DPU compare / hash occupancy
    Mem,       ///< cache-served memory accesses
    Dram,      ///< DRAM-served memory accesses
    Noc,       ///< mesh messages
    Tlb,       ///< TLB lookups (core MMU and dedicated TLBs)
    Vm,        ///< page walks reaching the in-memory page table
    Metric,    ///< sampled counter-track values (metrics subsystem)
};

inline constexpr std::size_t kCategoryCount = 13;

/** Stable lower-case name of @p cat ("ucode" for Microcode). */
const char* toString(Category cat);

/** queryId value for events not tied to a specific query. */
inline constexpr std::uint64_t kNoQuery = ~std::uint64_t{0};

/** One recorded event: a span when duration > 0, else an instant. */
struct TraceEvent
{
    Cycles tick = 0;
    Cycles duration = 0;
    std::uint64_t queryId = kNoQuery;
    /** Sampled value; meaningful for Category::Metric events only. */
    double value = 0.0;
    std::uint32_t nameId = 0;
    std::uint16_t componentId = 0;
    Category category = Category::Sim;
};

/** A drained sink: events oldest-first plus the intern tables. */
struct TraceBuffer
{
    std::vector<TraceEvent> events;
    std::vector<std::string> components;
    std::vector<std::string> names;
    /** Total events ever recorded (monotonic, survives wrapping). */
    std::uint64_t emitted = 0;
    /** Events overwritten by ring wrap-around. */
    std::uint64_t dropped = 0;
};

/**
 * Ring-buffer event collector for one World.
 *
 * Disabled (the default) a sink records nothing and record() is a
 * single predicate test away from free; interning still works so
 * components can register ids unconditionally at construction time.
 */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    /** Allocate the ring (once) and start recording. */
    void
    enable(std::size_t capacity = kDefaultCapacity)
    {
        if (capacity == 0)
            capacity = kDefaultCapacity;
        if (ring_.size() != capacity) {
            ring_.assign(capacity, TraceEvent{});
            head_ = 0;
            emitted_ = 0;
        }
        enabled_ = true;
    }

    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /**
     * Intern @p path / @p name once at setup; the returned id is what
     * the hot path passes to record(). Re-interning the same string
     * returns the same id.
     */
    std::uint16_t internComponent(const std::string& path);
    std::uint32_t internName(const std::string& name);

    /** Sizes of the two intern tables at one point in time. */
    struct InternMark
    {
        std::size_t components = 0;
        std::size_t names = 0;
    };

    InternMark
    internMark() const
    {
        return {componentNames_.size(), nameTable_.size()};
    }

    /**
     * Forget every component and name interned after @p mark, so the
     * next interns hand out the ids a sink that stopped at @p mark
     * would. Ids issued after the mark become invalid: whoever holds
     * them must be gone (or never record again) before this is called.
     */
    void rollbackInterns(const InternMark& mark);

    /**
     * Append one event. Call sites must guard with trace::active(), so
     * the ring store happens only while recording (and not at all when
     * tracing is compiled out). No allocation: the ring wraps.
     */
    void
    record(Category category, std::uint16_t component,
           std::uint32_t name, std::uint64_t query_id, Cycles tick,
           Cycles duration)
    {
        TraceEvent& slot = ring_[head_];
        slot.tick = tick;
        slot.duration = duration;
        slot.queryId = query_id;
        slot.value = 0.0;
        slot.nameId = name;
        slot.componentId = component;
        slot.category = category;
        if (++head_ == ring_.size())
            head_ = 0;
        ++emitted_;
    }

    /**
     * Append one Category::Metric counter sample — exported as a
     * Perfetto "ph":"C" counter track, so sampled series (QST
     * occupancy, event-queue depth) land in the same timeline as the
     * query spans. Same guard rules as record().
     */
    void
    recordCounter(std::uint16_t component, std::uint32_t name,
                  Cycles tick, double value)
    {
        TraceEvent& slot = ring_[head_];
        slot.tick = tick;
        slot.duration = 0;
        slot.queryId = kNoQuery;
        slot.value = value;
        slot.nameId = name;
        slot.componentId = component;
        slot.category = Category::Metric;
        if (++head_ == ring_.size())
            head_ = 0;
        ++emitted_;
    }

    /** Total events ever recorded (monotonic across wraps). */
    std::uint64_t emitted() const { return emitted_; }

    /** Events lost to wrap-around. */
    std::uint64_t
    dropped() const
    {
        return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
    }

    /** Events currently retained. */
    std::size_t
    size() const
    {
        return emitted_ < ring_.size()
                   ? static_cast<std::size_t>(emitted_)
                   : ring_.size();
    }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> ordered() const;

    const std::vector<std::string>& components() const
    {
        return componentNames_;
    }
    const std::vector<std::string>& names() const { return nameTable_; }

    /**
     * Move the retained events (plus copies of the intern tables) out
     * and reset the event storage; interned ids stay valid, so the
     * sink can keep recording the next cell.
     */
    TraceBuffer drain();

  private:
    bool enabled_ = false;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::uint64_t emitted_ = 0;
    std::vector<std::string> componentNames_;
    std::vector<std::string> nameTable_;
    std::unordered_map<std::string, std::uint16_t> componentIds_;
    std::unordered_map<std::string, std::uint32_t> nameIds_;
};

/**
 * The hot-path guard. Compiled out (QEI_TRACING=OFF) this is constant
 * false, so `if (trace::active(sink)) sink->record(...)` — including
 * the argument computation — is removed entirely by dead-code
 * elimination; emit cost is exactly zero.
 */
inline bool
active(const TraceSink* sink)
{
    if constexpr (!kCompiledIn) {
        (void)sink;
        return false;
    } else {
        return sink != nullptr && sink->enabled();
    }
}

// -- Chrome/Perfetto trace_event export --

/**
 * Append @p buf's events to @p trace_events (a JSON array) in the
 * Chrome trace_event format: one process (@p pid, named
 * @p process_name) whose threads are the interned components; spans
 * become "ph":"X" complete events, zero-duration events become
 * thread-scoped instants. One simulated cycle is rendered as 1 us.
 */
void appendPerfettoEvents(Json& trace_events, const TraceBuffer& buf,
                          int pid, const std::string& process_name);

/** A complete Perfetto document {"traceEvents": [...]} for one cell. */
Json perfettoJson(const TraceBuffer& buf,
                  const std::string& process_name);

// -- per-query latency attribution --

/**
 * The components a query's end-to-end latency decomposes into
 * (Fig. 8-style). Attribution is charged on the simulator's critical
 * path — every scheduled hop of a query is charged to exactly one
 * component — so the components of one query sum exactly to its
 * end-to-end latency.
 */
enum class LatencyComponent : std::uint8_t {
    Submit,      ///< core -> accelerator submission (incl. NoC)
    QueueWait,   ///< Query Queue + full-QST back-off
    CeeWait,     ///< waiting for the CEE issue port
    CeeExec,     ///< CEE state-transition cycles
    Translation, ///< address translation (TLB hits + page walks)
    Memory,      ///< cache / DRAM data accesses
    Dpu,         ///< DPU compare / hash execution
    Noc,         ///< remote-comparator mesh traversals
    Delivery,    ///< Result Queue + result-slot write
    Response,    ///< accelerator -> core response (blocking only)
    SwFallback,  ///< software re-execution after a fault (Sec. IV-D)
    Flush,       ///< interrupt-flush drain before the retry
    Other,       ///< residue (zero by construction)
};

inline constexpr std::size_t kLatencyComponentCount = 13;

/** Stable snake_case name of @p c ("queue_wait", ...). */
const char* toString(LatencyComponent c);

/** One query's fully-attributed latency. */
struct QueryAttribution
{
    std::array<Cycles, kLatencyComponentCount> cycles{};
    Cycles endToEnd = 0;

    void
    add(LatencyComponent c, Cycles n)
    {
        cycles[static_cast<std::size_t>(c)] += n;
    }

    Cycles
    sum() const
    {
        Cycles s = 0;
        for (Cycles c : cycles)
            s += c;
        return s;
    }
};

/**
 * In-process aggregator folding per-query attributions into
 * per-component latency histograms. Registered in the component tree
 * (as "system.breakdown"), so the decomposition lands in every stats
 * dump and BENCH_*.json artifact — no external tooling needed.
 * Integer totals are kept alongside the histograms so artifact sums
 * are exact and bit-comparable across thread counts.
 */
class LatencyBreakdown : public SimObject
{
  public:
    LatencyBreakdown();

    void regStats(StatsRegistry& registry) override;

    void record(const QueryAttribution& attribution);

    /** Zero all histograms and totals (fresh measurement window). */
    void reset();

    std::uint64_t queries() const { return queries_; }
    Cycles endToEndTotal() const { return endToEndTotal_; }
    Cycles
    componentTotal(LatencyComponent c) const
    {
        return totals_[static_cast<std::size_t>(c)];
    }

    const Histogram&
    histogram(LatencyComponent c) const
    {
        return componentHist_[static_cast<std::size_t>(c)];
    }
    const Histogram& endToEndHistogram() const { return endToEndHist_; }

  private:
    std::array<Histogram, kLatencyComponentCount> componentHist_;
    Histogram endToEndHist_;
    std::array<Cycles, kLatencyComponentCount> totals_{};
    Cycles endToEndTotal_ = 0;
    std::uint64_t queries_ = 0;
};

/** foldTrace() result: integer totals recovered from trace spans. */
struct FoldedBreakdown
{
    std::array<Cycles, kLatencyComponentCount> totals{};
    Cycles endToEnd = 0;
    std::uint64_t queries = 0;
};

/**
 * Recover the latency breakdown from a drained trace: sums the
 * Category::Breakdown spans by component name and the Category::Query
 * "query" spans into the end-to-end total. When no events were
 * dropped this reproduces LatencyBreakdown's live totals exactly —
 * the cross-check tests/test_trace.cc performs.
 */
FoldedBreakdown foldTrace(const TraceBuffer& buf);

} // namespace qei::trace

#endif // QEI_TRACE_TRACE_HH
