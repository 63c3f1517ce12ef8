/**
 * @file
 * Shared plumbing for the per-figure/table benchmark harnesses: build
 * a workload once, run the software baseline and every integration
 * scheme on identical query streams, and report.
 *
 * The (workload x scheme) matrix most harnesses run is parallel by
 * row: each workload builds one World and runs its baseline and every
 * scheme on it in order, and rows share nothing, so
 * runWorkloadMatrix() fans the rows across a qei::ThreadPool. Results
 * are assembled in workload/scheme order regardless of completion
 * order, making the numbers bit-identical at any `--threads` setting.
 */

#ifndef QEI_BENCH_BENCH_UTIL_HH
#define QEI_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
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
    /**
     * Host threads for experiment fan-out (runWorkloadMatrix /
     * parallelMap). 1 = serial; defaults from QEI_BENCH_THREADS.
     */
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
     * `--faults <spec>`: fault-injection mix for this run (see
     * fault/fault_config.hh for the grammar). parseBenchArgs validates
     * the spec and exports it as QEI_FAULTS so every defaultChip()
     * construction in the process — including matrix cells on worker
     * threads — picks it up.
     */
    std::string faultSpec;
    /**
     * `--planner static|cost|shard`: process-wide offload-planner
     * mode. parseBenchArgs validates the name and exports it as
     * QEI_PLANNER, which every runQei() whose DriverConfig leaves the
     * planner mode at Inherit — i.e. every harness cell that does not
     * pin a mode explicitly — resolves at run start (see
     * src/qei/planner.hh). Empty = flag absent.
     */
    std::string plannerMode;
    /** Non-option arguments, in order (debug_probe's workload
     *  filter). */
    std::vector<std::string> positional;
};

/**
 * Parse the harness command line. Recognises `--json <path>`,
 * `--json=<path>`, `--trace <path>`, `--trace=<path>`,
 * `--metrics <path>`, `--metrics=<path>` (enables time-series
 * sampling and writes the CSV there; warns and ignores when the build
 * has -DQEI_METRICS=OFF), `--threads <n>`, `--threads=<n>` (n = 0 or
 * "auto" uses every host core), `--faults <spec>`, `--faults=<spec>`,
 * `--planner <mode>`, `--planner=<mode>` (static|cost|shard; exported
 * as QEI_PLANNER), and `--validate`;
 * QEI_BENCH_THREADS seeds the thread default. `--list-workloads`,
 * `--list-schemes`, `--list-traffic`, and `--list-topologies` print
 * the available names
 * with descriptions and exit(0), so scripts can enumerate instead of
 * hardcoding. Non-option
 * arguments are collected into BenchOptions::positional. Unknown
 * `--flags` and flags missing their operand print a usage message and
 * exit(2) — a typo must not silently run the un-modified experiment.
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
     * Host wall time of each cell, keyed like `activity`. The
     * baseline cell also covers the row's World construction, build
     * and prepare.
     */
    std::map<std::string, double> cellWallMs;
    /** Host wall time of the whole row (the sum of its cells). */
    double hostWallMs = 0.0;

    double
    speedup(const std::string& scheme) const
    {
        auto it = schemes.find(scheme);
        return it == schemes.end()
                   ? 0.0
                   : speedupOf(baseline, it->second);
    }

    /** Speedup for stats already looked up — avoids a second find. */
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
     * Machine description every row's World is built from. The
     * default picks up QEI_FAULTS, so `--faults` reaches matrix
     * harnesses without per-harness wiring; fault harnesses override
     * `chip.faults` explicitly per mix.
     */
    ChipConfig chip = defaultChip();
    /** Queries per workload; 0 = each workload's default. */
    std::size_t queries = 0;
    /** Deployments to run per workload (one cell each). */
    std::vector<Topology> topologies = Topology::allPaper();
    QueryMode mode = QueryMode::Blocking;
    std::uint64_t seed = 42;
    /** Poll batch for QueryMode::NonBlocking. */
    int pollBatch = 32;
    /** QUERY_BATCH config for every cell; default scalar (size 1). */
    BatchConfig batch;
    bool captureStats = false;
    /** Host threads; 1 runs every row inline on this thread. */
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
 * Run one matrix row: construct a World from @p options' seed and
 * chip, build @p workload and prepare its query stream once, then run
 * the software baseline and every topology in order on that World.
 * Every run resets the World's per-run state first, so each cell is
 * bit-identical to one on a fresh World. Stats dumps and trace
 * buffers are captured per cell as @p options asks; `threads` and
 * writing the `tracePath` files are left to runWorkloadMatrix().
 */
WorkloadRun runWorkload(Workload& workload,
                        const MatrixOptions& options = {});

/**
 * Run the full (workload x topology) matrix: one runWorkload() row per
 * workload, fanned across min(threads, workloads) host threads. Rows
 * share nothing and cells are independent of the World they share, so
 * the returned runs are bit-identical at any thread count; results
 * come back in workload order. With only five paper rows, more than
 * five threads cannot help, and the slowest row (jvm) bounds the
 * wall time.
 */
std::vector<WorkloadRun> runWorkloadMatrix(
    const std::vector<WorkloadFactory>& workloads,
    const MatrixOptions& options);

/** Scheme names in the paper's presentation order. */
std::vector<std::string> schemeNames();

/**
 * Trace capture for harnesses that drive Worlds by hand (the latency
 * sweeps and ablations, which don't go through runWorkloadMatrix):
 *
 *   TraceCollector tracer(options.tracePath);
 *   tracer.arm(world);                 // before the timed region
 *   ... run the experiment ...
 *   tracer.collect("dpdk/qei-l2", world);  // drains the sink
 *   ...
 *   tracer.write();                    // one merged Perfetto file
 *
 * All methods are no-ops when no trace path was given, so harness
 * code stays unconditional.
 */
class TraceCollector
{
  public:
    explicit TraceCollector(std::string trace_path,
                            std::size_t capacity = 0);

    bool enabled() const { return !path_.empty(); }

    /** Enable (or re-arm) @p world's sink for the next run. */
    void arm(World& world);

    /** Drain @p world's sink as the Perfetto process @p label. */
    void collect(const std::string& label, World& world);

    /**
     * Merge an already-drained buffer as the process @p label. For
     * harnesses that fan tasks over parallelMap: drain inside the
     * task (the sink is task-private), add serially afterwards.
     */
    void add(const std::string& label, const trace::TraceBuffer& buf);

    /** Write the merged timeline. @return false on I/O failure. */
    bool write();

  private:
    std::string path_;
    std::size_t capacity_;
    Json events_ = Json::array();
    int nextPid_ = 1;
};

/**
 * Write one Perfetto file merging every captured cell of @p runs (one
 * Perfetto process per cell) to @p path, plus one file per cell at
 * `<stem>.<workload>.<scheme>.json`. @return false on I/O failure.
 */
bool writeMatrixTraces(const std::vector<WorkloadRun>& runs,
                       const std::string& path);

// -- JSON views of the result structs, for BenchReport payloads --

Json toJson(const CoreRunResult& result);
Json toJson(const QeiRunStats& stats);

/**
 * One workload's full cross-scheme result: baseline, per-scheme run
 * stats with raw `speedup` doubles and per-cell `host_wall_ms`, and
 * (when captured) the per-scheme component-tree stats dumps under
 * "stats".
 */
Json toJson(const WorkloadRun& run);

} // namespace qei::bench

#endif // QEI_BENCH_BENCH_UTIL_HH
