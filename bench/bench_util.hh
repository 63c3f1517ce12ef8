/**
 * @file
 * Shared plumbing for the per-figure/table benchmark harnesses:
 * argument parsing, the JSON report, and the one sweep runner every
 * multi-cell harness is built on.
 *
 * A Sweep is rows (how to build and prepare a World), an optional
 * prologue run once per row, and cells (one experiment each on a
 * row's prepared World). The runner builds each row's World as few
 * times as the thread count allows — exactly once at `--threads 1` —
 * and returns results in declaration order, so the numbers are
 * bit-identical at any `--threads` setting. The (workload x scheme)
 * matrix, runWorkloadMatrix(), is one client of it.
 */

#ifndef QEI_BENCH_BENCH_UTIL_HH
#define QEI_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hh"
#include "common/table_printer.hh"
#include "common/thread_pool.hh"
#include "power/energy_model.hh"
#include "trace/trace.hh"
#include "validate/expectation.hh"
#include "workloads/workload.hh"

namespace qei::bench {

/** Command-line options shared by every harness. */
struct BenchOptions
{
    /** Destination of the JSON artifact; empty = text output only. */
    std::string jsonPath;
    /**
     * Destination of the Perfetto timeline (`--trace <path>`); empty
     * disables trace capture. Matrix harnesses additionally write one
     * file per cell next to it.
     */
    std::string tracePath;
    /**
     * Destination of the metrics time-series CSV (`--metrics <path>`);
     * non-empty enables the per-run MetricsSampler (see src/metrics/).
     * Empty — the default — leaves sampling off, so artifacts are
     * byte-identical to a run without the subsystem.
     */
    std::string metricsPath;
    /** Host threads for experiment fan-out (Sweep::run). 1 = serial. */
    int threads = 1;
    /**
     * `--validate`: print the per-expectation PASS/WARN/FAIL table
     * and make any FAIL set a non-zero exit code. The expectation
     * table itself is always evaluated and embedded in the `--json`
     * artifact; this flag only controls the printed report and the
     * exit-code gate.
     */
    bool validate = false;
    /**
     * The machine every World and row the harness builds runs on:
     * Tab. II, with `--faults <spec>` (grammar in
     * fault/fault_config.hh) parsed into `chip.faults`. Harnesses pass
     * it by value to each World, SweepRow and MatrixOptions, so
     * matrix cells on worker threads see exactly this machine.
     */
    ChipConfig chip;
    /** Non-option arguments, in order (the sweep harnesses' query
     *  cap). */
    std::vector<std::string> positional;
};

/**
 * Parse the harness command line. Recognises `--json <path>`,
 * `--json=<path>`, `--trace <path>`, `--trace=<path>`,
 * `--metrics <path>`, `--metrics=<path>` (enables time-series
 * sampling and writes the CSV there; warns and ignores when the build
 * has -DQEI_METRICS=OFF), `--threads <n>`, `--threads=<n>` (n = 0 or
 * "auto" uses every host core, else a whole positive count),
 * `--faults <spec>`, `--faults=<spec>` (sets BenchOptions::chip's
 * faults), and `--validate`. Every setting comes from the command
 * line; nothing is read from the environment. `--list-workloads`,
 * `--list-schemes`, `--list-traffic`, and `--list-topologies` print
 * the available names with descriptions and exit(0), so scripts can
 * enumerate instead of hardcoding. Non-option arguments are collected
 * into BenchOptions::positional. Unknown `--flags`, flags missing
 * their operand and a malformed `--threads` count print a usage
 * message and exit(2) — a typo must not silently run the un-modified
 * experiment.
 */
BenchOptions parseBenchArgs(int argc, char** argv);

/**
 * Collector for one harness's machine-readable results.
 *
 * Harnesses fill data() with their figure-specific payload (and
 * usually mirror the printed table via setTable()); the constructor
 * stamps build provenance (`schema_version`, `git_sha`, `compiler`,
 * `build_flags`); finish() stamps the host-performance fields
 * (`host_wall_ms`, `threads`, and the `host` self-metrics block with
 * `sim_events` / `sim_events_per_sec` and every per-cell
 * `host_wall_ms` found in the payload), aggregates every per-run
 * `breakdown` found in the payload into a top-level `breakdown`,
 * writes the Recorder's metrics CSV to the `--metrics` path, and
 * writes the artifact to the `--json` path, if one was given.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench_name, BenchOptions options);

    /** True when a `--json` destination was given. */
    bool enabled() const { return !options_.jsonPath.empty(); }

    /** Parsed harness options (threads for matrix fan-out). */
    const BenchOptions& options() const { return options_; }

    /** Root object; preloaded with {"bench": <name>}. */
    Json& data() { return root_; }

    /**
     * Report for another figure computed from this harness's runs,
     * written next to its artifact as `<stem>.<bench_name>.json`.
     * Construct it after those runs so its host fields count only its
     * own work: its `host` block lists no cells, even when its payload
     * carries the producer's per-cell `host_wall_ms`. The harness
     * fails if either report's finish() does.
     */
    BenchReport view(std::string bench_name) const;

    /** Mirror the printed table under "table". */
    void setTable(const TablePrinter& table);

    /**
     * Declare the harness's paper expectations. They are evaluated
     * against the payload inside finish() — call this after the
     * figure data has been added to data().
     */
    void setValidation(validate::Suite suite);

    /**
     * Evaluate the expectation suite (when one was set) against the
     * payload and embed the `validation` block; print the
     * PASS/WARN/FAIL table under `--validate`; stamp host-perf
     * fields, print the total host wall time, and write the artifact
     * when enabled. @return false on I/O failure, or — under
     * `--validate` only — when any expectation FAILs.
     */
    bool finish();

  private:
    BenchOptions options_;
    Json root_;
    validate::Suite suite_;
    bool haveSuite_ = false;
    std::chrono::steady_clock::time_point start_;
    /** simEventsExecuted() at construction, for the `host` block's
     *  per-harness delta. */
    std::uint64_t simEventsStart_ = 0;
    /** Built by view(): the cells it reports belong to the producer. */
    bool view_ = false;
};

/** Results for one workload across the baseline and all schemes. */
struct WorkloadRun
{
    std::string name;
    CoreRunResult baseline;
    Prepared prepared;
    /** Keyed by Topology::name() (== SchemeConfig::name() for the
     *  five canonical scheme topologies). */
    std::map<std::string, QeiRunStats> schemes;
    /** Activity deltas for the energy model, keyed like `schemes`,
     *  plus "baseline". */
    std::map<std::string, ChipActivity> activity;
    /** Full component-tree stats dumps, keyed like `schemes`; only
     *  populated under MatrixOptions::captureStats. */
    std::map<std::string, std::string> statsJson;
    /** Drained timeline events, keyed like `activity`; only populated
     *  when the matrix armed trace capture. */
    std::map<std::string, trace::TraceBuffer> traces;
    /**
     * Host wall time of each cell, keyed like `activity`. The first
     * cell on each World also covers building and preparing it (see
     * SweepRunner::wallMs).
     */
    std::map<std::string, double> cellWallMs;
    /** Host wall time of the whole row (the sum of its cells). */
    double hostWallMs = 0.0;

    /** Baseline cycles over the cycles of @p stats, a scheme's run. */
    double
    speedup(const QeiRunStats& stats) const
    {
        return speedupOf(baseline, stats);
    }
};

/** Knobs for a full (workload x scheme) matrix run. */
struct MatrixOptions
{
    /**
     * Machine description every row's World is built from: Tab. II by
     * default; harnesses pass BenchOptions::chip, so `--faults`
     * reaches every cell.
     */
    ChipConfig chip;
    /** Queries per workload; 0 = each workload's default. */
    std::size_t queries = 0;
    /** Deployments to run per workload (one cell each). */
    std::vector<Topology> topologies = Topology::allPaper();
    QueryMode mode = QueryMode::Blocking;
    std::uint64_t seed = 42;
    /** QUERY_BATCH config for every cell; default scalar (size 1). */
    BatchConfig batch;
    bool captureStats = false;
    /** Host threads; 1 runs every cell inline on this thread. */
    int threads = 1;
    /**
     * Merged Perfetto timeline destination; per-cell files are written
     * next to it as `<stem>.<workload>.<scheme>.json`. Non-empty
     * implies trace capture.
     */
    std::string tracePath;
    /** Capture per-cell TraceBuffers into WorkloadRun::traces even
     *  without a tracePath (tests compare event counts). */
    bool captureTrace = false;
    /** Ring capacity when armed; 0 = TraceSink::kDefaultCapacity. */
    std::size_t traceCapacity = 0;
};

/**
 * Run the full (workload x topology) matrix as a Sweep: one row per
 * workload, whose cells are the baseline and one per topology.
 * Results come back in workload order, identical at any thread count.
 */
std::vector<WorkloadRun> runWorkloadMatrix(
    const std::vector<WorkloadFactory>& workloads,
    const MatrixOptions& options);

/** Scheme names in the paper's presentation order. */
std::vector<std::string> schemeNames();

/**
 * What a row's make step returns: the prepared stream, plus whatever
 * must live as long as the World (the Workload that built it, fig10's
 * SimTupleSpace, abl_planner's class ranges), read back by kept<T>().
 */
struct PreparedRow
{
    Prepared prepared;
    std::shared_ptr<const void> keep;

    template <typename T>
    const T&
    kept() const
    {
        return *static_cast<const T*>(keep.get());
    }
};

/** How to make one prepared World; a row's cells all run on one. */
struct SweepRow
{
    std::uint64_t seed = 42;
    ChipConfig chip;
    /** Build and prepare a fresh World; runs once per World built for
     *  the row, so it may depend on nothing else. */
    std::function<PreparedRow(World&)> make;
};

/** Row on @p chip that builds @p factory's workload and prepares
 *  @p queries queries (0 = its default). */
SweepRow workloadRow(WorkloadFactory factory, std::size_t queries,
                     std::uint64_t seed, const ChipConfig& chip);

/** What the mixed row keeps: both builders, and the key-space class
 *  ranges a planner union partitions on. */
struct MixedTrace
{
    std::unique_ptr<Workload> dpdk, flann;
    std::vector<ClassRange> classes;
};

/** abl_planner's mixed trace: dpdk and flann, @p queries_per_class
 *  each, interleaved 1:1 in one World on @p chip; keeps a
 *  MixedTrace. */
SweepRow mixedTraceRow(std::size_t queries_per_class,
                       const ChipConfig& chip);

/**
 * The scheduler behind Sweep::run(): run @p cell(c, ...) for every
 * cell c (on row @p cell_rows[c]) across min(threads, cells) workers,
 * calling @p prologue(row, ...), if set, exactly once per row on the
 * first World built for it. @p wall_ms[c] gets each cell's host time,
 * which includes building its World (and the prologue) only when the
 * cell was that World's first.
 *
 * Each worker keeps the World it built last and takes the next
 * unstarted cell of that row. Only when the row has none left does it
 * build another, picking the row with the most unstarted cells (the
 * first on a tie). So at one thread every row is built exactly once,
 * and no row more than min(threads, its cells) times. runBaseline()
 * and runQei() reset per-run state first, so a cell's result cannot
 * depend on which World it ran on.
 */
using SweepHook =
    std::function<void(std::size_t, World&, const PreparedRow&)>;
void runSweepCells(const std::vector<SweepRow>& rows,
                   const std::vector<std::size_t>& cell_rows,
                   int threads, const SweepHook& prologue,
                   const SweepHook& cell, std::vector<double>& wall_ms);

/** One Perfetto file, process c + 1 = @p traces[c] as @p labels[c];
 *  no-op for an empty @p path. @return false on I/O failure. */
bool writeSweepTrace(const std::string& path,
                     const std::vector<std::string>& labels,
                     const std::vector<trace::TraceBuffer>& traces);

/**
 * The one sweep runner every multi-cell harness uses: rows say how to
 * make a prepared World, an optional prologue runs once per row, and
 * cells are callbacks on (World&, const PreparedRow&, prologue result)
 * — or, for QeiRunStats results, a DriverConfig to run:
 *
 *   Sweep<QeiRunStats, double> sweep;
 *   sweep.prologue(calibrateServiceGap);
 *   const std::size_t r =
 *       sweep.row(workloadRow(factory, 800, 42, options.chip));
 *   sweep.cell(r, "jvm/qst-10", DriverConfig(scheme));
 *   sweep.cell(r, "jvm/open", [](World& w, const PreparedRow& row,
 *                                const double& gap) { ... });
 *   const auto results = sweep.run(options.threads, tracing);
 *   sweep.writeTrace(options.tracePath);
 *
 * The runner owns the thread fan-out (runSweepCells), arms and drains
 * the trace around each cell, and times each cell. Results come back
 * in declaration order, so output is identical at any thread count.
 */
template <typename Result, typename Prologue = std::monostate>
class Sweep
{
  public:
    using CellFn = std::function<Result(World&, const PreparedRow&,
                                        const Prologue&)>;

    /** Declare a row; @return its index. */
    std::size_t
    row(SweepRow row)
    {
        rows_.push_back(std::move(row));
        return rows_.size() - 1;
    }

    void
    prologue(std::function<Prologue(World&, const PreparedRow&)> fn)
    {
        prologue_ = std::move(fn);
    }

    /** Declare a cell on @p row; @p label names its trace process. */
    void
    cell(std::size_t row, std::string label, CellFn fn)
    {
        cellRows_.push_back(row);
        labels_.push_back(std::move(label));
        cells_.push_back(std::move(fn));
    }

    void
    cell(std::size_t row, std::string label, DriverConfig config)
    {
        cell(row, std::move(label),
             [config = std::move(config)](World& world,
                                          const PreparedRow& row,
                                          const Prologue&) {
                 return runQei(world, row.prepared, config);
             });
    }

    /**
     * Run every cell; results in declaration order. With
     * @p capture_trace each cell runs with the World's sink armed
     * (@p trace_capacity events, 0 = the default) and keeps its
     * drained buffer.
     */
    std::vector<Result>
    run(int threads, bool capture_trace = false,
        std::size_t trace_capacity = 0)
    {
        std::vector<std::optional<Result>> results(cells_.size());
        prologues_.assign(rows_.size(), Prologue{});
        traces_.assign(capture_trace ? cells_.size() : 0, {});
        SweepHook prologue;
        if (prologue_) {
            prologue = [this](std::size_t r, World& world,
                              const PreparedRow& row) {
                prologues_[r] = prologue_(world, row);
            };
        }
        runSweepCells(
            rows_, cellRows_, threads, prologue,
            [&](std::size_t c, World& world, const PreparedRow& row) {
                if (capture_trace)
                    world.traceSink.enable(trace_capacity);
                results[c] =
                    cells_[c](world, row, prologues_[cellRows_[c]]);
                if (capture_trace)
                    traces_[c] = world.traceSink.drain();
            },
            wallMs_);
        std::vector<Result> out;
        for (std::optional<Result>& result : results)
            out.push_back(std::move(*result));
        return out;
    }

    std::size_t cells() const { return cells_.size(); }
    const std::string& label(std::size_t c) const { return labels_[c]; }
    /** Cell @p c's drained timeline, when run() captured traces. */
    const trace::TraceBuffer& trace(std::size_t c) const
    {
        return traces_[c];
    }
    /** Cell @p c's host wall time (see runSweepCells). */
    double wallMs(std::size_t c) const { return wallMs_[c]; }
    const Prologue& prologueOf(std::size_t row) const
    {
        return prologues_[row];
    }

    bool
    writeTrace(const std::string& path) const
    {
        return writeSweepTrace(path, labels_, traces_);
    }

  private:
    std::vector<SweepRow> rows_;
    std::function<Prologue(World&, const PreparedRow&)> prologue_;
    std::vector<std::size_t> cellRows_;
    std::vector<std::string> labels_;
    std::vector<CellFn> cells_;
    std::vector<Prologue> prologues_;
    std::vector<trace::TraceBuffer> traces_;
    std::vector<double> wallMs_;
};

/**
 * Closed-loop cycles/query of @p row's stream on the Core-integrated
 * scheme: the saturation service rate the open-loop harnesses anchor
 * their offered load to. Shaped as a Sweep prologue.
 */
double calibrateServiceGap(World& world, const PreparedRow& row);

/**
 * The optional positional query cap of the sweep harnesses (CI smoke
 * runs pass a reduced count); 0 when absent. Anything but one positive
 * integer prints usage and exits 2 — a typo must not silently run the
 * full-size experiment.
 */
std::size_t parseQueryCap(const BenchOptions& options,
                          const char* prog);

/** @p queries, lowered to @p cap when a cap is set. */
inline std::size_t
capQueries(std::size_t queries, std::size_t cap)
{
    return cap != 0 && cap < queries ? cap : queries;
}

// -- JSON views of the result structs, for BenchReport payloads --

Json toJson(const CoreRunResult& result);
Json toJson(const QeiRunStats& stats);

/**
 * One workload's full cross-scheme result: baseline and per-scheme run
 * stats with raw `speedup` doubles and per-cell `host_wall_ms`.
 */
Json toJson(const WorkloadRun& run);

} // namespace qei::bench

#endif // QEI_BENCH_BENCH_UTIL_HH
