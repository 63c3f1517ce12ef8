/**
 * @file
 * qei::metrics — serving telemetry: periodic time-series sampling and
 * sliding-window tail-latency monitoring (the observability tentpole).
 *
 * End-of-run aggregates (one p99 per run) cannot show *when* the QST
 * saturated or how QUERY_NB backoff rippled into sojourn time. The
 * MetricsSampler closes that gap: a SimObject that wakes on a daemon
 * event every `interval` simulated cycles and samples
 *  - any dotted-path StatsRegistry entry (probe()), as a gauge or as
 *    a counter-with-rate (per-interval delta);
 *  - arbitrary callback gauges/rates (addSeries) for values with no
 *    registry entry, like live QST occupancy or event-queue depth;
 *  - sliding-window tail percentiles (TailMonitor) over per-query
 *    sample streams pushed from the hot path (onSojourn).
 *
 * Design rules, mirroring qei::trace:
 *  - daemon-scheduled: sampling rides EventQueue::scheduleDaemon, so
 *    it never keeps a run alive, never drags the simulated clock, and
 *    never perturbs query timing — artifacts are byte-identical with
 *    sampling off;
 *  - per-World: a sampler is owned by the run that arms it, and the
 *    switch and the drained series live on the World (RunLog), so
 *    parallel matrix cells and concurrent reports share nothing;
 *  - compiled-out-able: -DQEI_METRICS=OFF folds metrics::active() to
 *    constant false and every hot-path push site dead-codes away,
 *    exactly like QEI_TRACING.
 */

#ifndef QEI_METRICS_METRICS_HH
#define QEI_METRICS_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace qei::metrics {

/** True when the metrics subsystem is compiled in (QEI_METRICS=ON). */
#if defined(QEI_METRICS)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/** Simulated cycles between two samples. */
inline constexpr Cycles kSampleIntervalCycles = 2048;
/** TailMonitor sliding-window capacity (samples). */
inline constexpr std::size_t kTailWindow = 256;

class MetricsSampler;

/**
 * The hot-path guard. Compiled out (QEI_METRICS=OFF) this is constant
 * false, so `if (metrics::active(s)) s->onSojourn(...)` — including
 * the argument computation — is removed entirely by dead-code
 * elimination; push cost is exactly zero.
 */
inline bool active(const MetricsSampler* sampler);

/**
 * Fixed-capacity sliding window of samples with exact percentiles
 * over the retained window.
 *
 * push() is a single ring store (the per-query hot path); the
 * percentile math runs only when the sampler ticks. percentile() is
 * the nearest-rank estimator over the *retained* window: the value at
 * index floor(fraction * (count - 1)) of the sorted window. Tests
 * compare it against offline sorts of the same trailing samples
 * (exact by construction) and against full-stream percentiles (a
 * windowed estimate — docs/observability.md documents the tolerance).
 */
class SlidingWindow
{
  public:
    explicit SlidingWindow(std::size_t capacity = 256)
        : ring_(capacity > 0 ? capacity : 1, 0.0)
    {
    }

    void
    push(double v)
    {
        ring_[head_] = v;
        if (++head_ == ring_.size())
            head_ = 0;
        ++pushed_;
    }

    /** Samples currently retained (<= capacity). */
    std::size_t
    count() const
    {
        return pushed_ < ring_.size()
                   ? static_cast<std::size_t>(pushed_)
                   : ring_.size();
    }

    /** Total samples ever pushed (monotonic across wraps). */
    std::uint64_t pushed() const { return pushed_; }

    /** Empty the window (region-of-interest reset). */
    void
    reset()
    {
        head_ = 0;
        pushed_ = 0;
    }

    /**
     * Nearest-rank percentile over the retained window; 0.0 while
     * empty. @p fraction in [0, 1].
     */
    double percentile(double fraction) const;

  private:
    std::vector<double> ring_;
    std::size_t head_ = 0;
    std::uint64_t pushed_ = 0;
    /** Scratch for percentile()'s partial sort, reused across ticks. */
    mutable std::vector<double> scratch_;
};

/** How a sampled series is interpreted. */
enum class SeriesKind : std::uint8_t {
    Gauge, ///< instantaneous value at the sample tick
    Rate,  ///< per-interval delta of a monotonic counter
};

/** Stable lower-case name of @p kind ("gauge" / "rate"). */
const char* toString(SeriesKind kind);

/** One sample of one series. */
struct Point
{
    Cycles tick = 0;
    double value = 0.0;
};

/** One named, typed time series. */
struct TimeSeries
{
    std::string name;
    SeriesKind kind = SeriesKind::Gauge;
    std::vector<Point> points;
};

/**
 * Sliding-window tail monitor over one per-query sample stream:
 * maintains windowed p50/p99/p999.
 */
class TailMonitor
{
  public:
    TailMonitor(std::string name, std::size_t window)
        : name_(std::move(name)), window_(window)
    {
    }

    /** Hot path: one ring store. Guard call sites with active(). */
    void push(double v) { window_.push(v); }

    const std::string& name() const { return name_; }

    /**
     * Evaluate the window at @p tick; appends the p50/p99/p999 points
     * to @p series (three entries, owned by the sampler).
     */
    void tick(Cycles tick, std::vector<TimeSeries*> series);

    void reset() { window_.reset(); }

  private:
    std::string name_;
    SlidingWindow window_;
};

/** Everything a sampler collected over one run region. */
struct RunSeries
{
    Cycles intervalCycles = 0;
    std::uint64_t samples = 0;
    std::vector<TimeSeries> series;

    /**
     * The artifact block: {"interval_cycles", "samples", "series":
     * {name: {"kind", "points": [[tick, value], ...]}}}.
     * Series are keyed by their dotted names, so BENCH_*.json
     * consumers address them like registry paths
     * ("system.metrics.qst_occupancy").
     */
    Json toJson() const;

    /** Append `cell,series,kind,tick,value` CSV rows for this run. */
    void appendCsv(std::string& out, const std::string& cell) const;
};

/**
 * The sampler itself: adopted into the system tree as
 * "system.metrics", armed per run region alongside the fault daemons,
 * and drained into a RunSeries after the run.
 */
class MetricsSampler : public SimObject
{
  public:
    MetricsSampler() : SimObject("metrics") {}

    void regStats(StatsRegistry& registry) override;

    // -- setup (before the run) --

    /**
     * Take ownership of a registry snapshot to probe; the registry
     * borrows pointers into live components, so the sampler must be
     * destroyed before the system it observes (declare it after the
     * QeiSystem in the owning scope).
     */
    void observeRegistry(StatsRegistry registry);

    /**
     * Sample the registry entry at @p path every tick. Rate series
     * record per-interval deltas of the (monotonic) scalar view.
     * No-op when the path is absent — harnesses can probe
     * topology-dependent paths unconditionally.
     */
    void probe(const std::string& path, SeriesKind kind);

    /** Sample @p read every tick: as an instantaneous gauge, or (for
     *  a monotonic value) as a per-interval rate. */
    void addSeries(std::string name, SeriesKind kind,
                   std::function<double()> read);

    /**
     * Create (or return) the tail monitor named @p name. The first
     * monitor created is the onSojourn() target.
     */
    TailMonitor& addTailMonitor(const std::string& name);

    /**
     * Mirror every sample into @p sink as Category::Metric counter
     * events (Perfetto "ph":"C" counter tracks), when the sink is
     * recording.
     */
    void setTraceSink(trace::TraceSink* sink);

    // -- hot path --

    /** Push one completed query's sojourn (cycles) into the first
     *  tail monitor. Guard call sites with metrics::active(). */
    void
    onSojourn(double cycles)
    {
        if (sojourn_ != nullptr)
            sojourn_->push(cycles);
    }

    // -- run control --

    /**
     * Start periodic sampling on @p events. Daemon contract: the tick
     * re-arms only while pendingWork() is non-zero, so sampling never
     * keeps a run alive and never drags the simulated clock. No-op
     * when already armed (run loops may arm repeatedly, like the
     * watchdog).
     */
    void arm(EventQueue& events);

    bool armed() const { return armed_; }

    /**
     * Move the collected series out and reset for the next run region
     * (points cleared, tail windows emptied, rate baselines dropped).
     */
    RunSeries drain();

  private:
    /** One sampled value: a registry probe or a callback. */
    struct Callback
    {
        std::function<double()> fn;
        SeriesKind kind = SeriesKind::Gauge;
        std::size_t seriesIdx = 0;
        double lastRaw = 0.0;
        bool primed = false;
    };

    std::size_t newSeries(std::string name, SeriesKind kind);
    void tick(EventQueue& events);
    void recordPoint(std::size_t series_idx, Cycles tick, double value);

    StatsRegistry registry_;
    bool haveRegistry_ = false;
    std::vector<TimeSeries> series_;
    std::vector<Callback> callbacks_;
    std::vector<std::unique_ptr<TailMonitor>> monitors_;
    /** Per-monitor base index of its three percentile series. */
    std::vector<std::size_t> monitorSeries_;
    TailMonitor* sojourn_ = nullptr;
    bool armed_ = false;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::vector<std::uint32_t> traceNames_;
    Counter samples_;
    /** samples_ value at the last drain(), for per-run deltas. */
    std::uint64_t drainedSamples_ = 0;
};

inline bool
active(const MetricsSampler* sampler)
{
    if constexpr (!kCompiledIn) {
        (void)sampler;
        return false;
    } else {
        return sampler != nullptr;
    }
}

/** One sampled run, under the cell label the metrics CSV files it by. */
struct LabelledRun
{
    std::string cell;
    std::shared_ptr<const RunSeries> series;
};

/**
 * A World's sampling switch and the runs sampled on it: while
 * enabled, runQei samples every run on the World and leaves its
 * series here under the run's cell label. bench::Sweep enables it for
 * `--metrics` and drains it after each cell, as it arms and drains
 * the World's TraceSink. Compiled out, enable() is a no-op.
 */
class RunLog
{
  public:
    void enable() { enabled_ = kCompiledIn; }
    bool enabled() const { return enabled_; }

    void add(LabelledRun run) { runs_.push_back(std::move(run)); }

    /** Hand over the runs logged since the last drain, oldest first;
     *  sampling stays enabled. */
    std::vector<LabelledRun>
    drain()
    {
        return std::exchange(runs_, {});
    }

  private:
    bool enabled_ = false;
    std::vector<LabelledRun> runs_;
};

/**
 * The `--metrics` CSV: `cell,series,kind,tick,value` rows under a
 * header line, runs sorted by cell label and equal labels kept in the
 * order given. The file is deterministic at any --threads as long as
 * @p runs comes in declaration order.
 */
std::string csv(const std::vector<LabelledRun>& runs);

} // namespace qei::metrics

#endif // QEI_METRICS_METRICS_HH
