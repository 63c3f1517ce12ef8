#include "bench_util.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>

#include "fault/fault_config.hh"
#include "metrics/metrics.hh"
#include "qei/planner.hh"
#include "sim/event_queue.hh"

// Build provenance, injected by bench/CMakeLists.txt; the fallbacks
// keep out-of-tree builds (no git, unknown toolchain) compiling.
#ifndef QEI_GIT_SHA
#define QEI_GIT_SHA "unknown"
#endif
#ifndef QEI_COMPILER
#define QEI_COMPILER "unknown"
#endif
#ifndef QEI_BUILD_FLAGS
#define QEI_BUILD_FLAGS "unknown"
#endif

namespace qei::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/**
 * Recursively sum every per-run `breakdown` object in @p node (any
 * object carrying both "components" and "end_to_end_cycles") so the
 * artifact's top level gets one whole-harness decomposition.
 */
void
accumulateBreakdowns(const Json& node,
                     std::map<std::string, std::uint64_t>& components,
                     std::uint64_t& end_to_end, std::uint64_t& queries)
{
    if (node.isObject()) {
        if (node.contains("components") &&
            node.contains("end_to_end_cycles")) {
            end_to_end += node.at("end_to_end_cycles").asUint();
            if (const Json* q = node.find("queries"))
                queries += q->asUint();
            for (const auto& [name, comp] :
                 node.at("components").items()) {
                if (const Json* cycles = comp.find("cycles"))
                    components[name] += cycles->asUint();
            }
            return; // breakdowns don't nest
        }
        for (const auto& [key, child] : node.items()) {
            (void)key;
            accumulateBreakdowns(child, components, end_to_end,
                                 queries);
        }
    } else if (node.isArray()) {
        for (const auto& child : node.elements())
            accumulateBreakdowns(child, components, end_to_end,
                                 queries);
    }
}

/**
 * Recursively collect every per-cell "host_wall_ms" in @p node into
 * @p cells, keyed by the dotted path of the object that carries it
 * ("dpdk.schemes.qei-l2"). The harness's own top-level stamp is
 * excluded by the caller (it scans before stamping).
 */
void
collectCellWalls(const Json& node, const std::string& prefix,
                 Json& cells)
{
    if (node.isObject()) {
        for (const auto& [key, child] : node.items()) {
            if (key == "host_wall_ms" && child.isNumber()) {
                cells[prefix.empty() ? "(top)" : prefix] =
                    child.asDouble();
                continue;
            }
            collectCellWalls(
                child, prefix.empty() ? key : prefix + "." + key,
                cells);
        }
    } else if (node.isArray()) {
        std::size_t idx = 0;
        for (const auto& child : node.elements()) {
            collectCellWalls(child, fmt("{}[{}]", prefix, idx), cells);
            ++idx;
        }
    }
}

/** `out.json` -> `out`; other paths pass through unchanged. */
std::string
jsonStem(const std::string& path)
{
    constexpr const char* kExt = ".json";
    constexpr std::size_t kExtLen = 5;
    if (path.size() > kExtLen &&
        path.compare(path.size() - kExtLen, kExtLen, kExt) == 0)
        return path.substr(0, path.size() - kExtLen);
    return path;
}

[[noreturn]] void
usageError(const char* prog, const std::string& message)
{
    std::fprintf(
        stderr,
        "%s: %s\n"
        "usage: %s [options] [positional args]\n"
        "  --json <path>      write the JSON artifact to <path>\n"
        "  --trace <path>     write the Perfetto timeline to <path>\n"
        "  --metrics <path>   sample time-series metrics, write the "
        "CSV to <path>\n"
        "  --threads <n>      host threads (0 or 'auto' = all cores)\n"
        "  --faults <spec>    fault-injection mix, e.g. "
        "'pf=0.05,flush=20000,seed=7'\n"
        "  --validate         gate the exit code on the expectation "
        "table\n"
        "  --list-workloads   print workload names + descriptions, "
        "exit 0\n"
        "  --list-schemes     print scheme names + descriptions, "
        "exit 0\n"
        "  --list-traffic     print traffic-source names + "
        "descriptions, exit 0\n"
        "  --list-topologies  print deployment topologies + "
        "descriptions, exit 0\n",
        prog, message.c_str(), prog);
    std::exit(2);
}

/** "0" / "auto" = all host cores, else a whole positive count;
 *  anything more or less is a usage error. */
int
parseThreadCount(const char* prog, const char* text)
{
    if (std::strcmp(text, "auto") == 0 || std::strcmp(text, "0") == 0)
        return ThreadPool::hardwareThreads();
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || n < 1 ||
        n > std::numeric_limits<int>::max()) {
        usageError(prog, fmt("--threads wants a positive count, 0 or "
                             "'auto', got '{}'",
                             text));
    }
    return static_cast<int>(n);
}

/** One-line description of a canonical integration scheme. */
const char*
schemeDescription(IntegrationScheme scheme)
{
    switch (scheme) {
    case IntegrationScheme::ChaTlb:
        return "accelerator per CHA with a dedicated TLB "
               "(HALO-style)";
    case IntegrationScheme::ChaNoTlb:
        return "accelerator per CHA, translation via the core MMU "
               "over the NoC";
    case IntegrationScheme::DeviceDirect:
        return "single accelerator on its own NoC stop (DASX-style)";
    case IntegrationScheme::DeviceIndirect:
        return "single accelerator behind a standard device "
               "interface (CXL/OpenCAPI)";
    case IntegrationScheme::CoreIntegrated:
        return "this paper: control by the L2/L2-TLB, comparators in "
               "the CHAs";
    }
    return "?";
}

[[noreturn]] void
listWorkloads()
{
    for (const auto& w : makeAllWorkloads()) {
        std::printf("%-10s %s\n", w->name().c_str(),
                    w->description().c_str());
    }
    std::exit(0);
}

[[noreturn]] void
listSchemes()
{
    for (const Topology& t : Topology::allPaper()) {
        std::printf("%-16s %s\n", t.name().c_str(),
                    schemeDescription(t.params().scheme));
    }
    std::exit(0);
}

[[noreturn]] void
listTraffic()
{
    for (const auto& source : traffic::catalog()) {
        std::printf("%-10s %s\n", source->name().c_str(),
                    source->description().c_str());
    }
    std::exit(0);
}

[[noreturn]] void
listTopologies()
{
    // The five canonical scheme topologies, then the generated
    // deployment families (built per run, not enumerable by name).
    for (const Topology& t : Topology::allPaper()) {
        std::printf("%-18s %2d instance%s, qst=%-3d  %s\n",
                    t.name().c_str(), t.acceleratorCount(),
                    t.acceleratorCount() == 1 ? " " : "s",
                    t.params().qstEntries,
                    schemeDescription(t.params().scheme));
    }
    std::printf("%-18s cost-model pick of the best family per "
                "workload (abl_planner)\n",
                "planner-cost");
    std::printf("%-18s heterogeneous per-class union for mixed "
                "traces (docs/planner.md)\n",
                "planner-mix");
    std::printf("%-18s key-space sharded family, optional QST work "
                "stealing (abl_planner)\n",
                "<family>-shardN");
    std::exit(0);
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char** argv)
{
    BenchOptions options;
    const char* prog = argc > 0 ? argv[0] : "bench";

    // A flag's operand may follow as the next argument or be glued
    // with '='; a flag at the end of the line with no operand is an
    // error, not a warning — benches must never silently run with a
    // half-applied command line.
    auto operand = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc)
            usageError(prog, fmt("{} needs an argument", flag));
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            options.jsonPath = operand(i, "--json");
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            options.jsonPath = arg + 7;
        } else if (std::strcmp(arg, "--trace") == 0) {
            options.tracePath = operand(i, "--trace");
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            options.tracePath = arg + 8;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            options.metricsPath = operand(i, "--metrics");
        } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
            options.metricsPath = arg + 10;
        } else if (std::strcmp(arg, "--threads") == 0) {
            options.threads =
                parseThreadCount(prog, operand(i, "--threads"));
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            options.threads = parseThreadCount(prog, arg + 10);
        } else if (std::strcmp(arg, "--faults") == 0) {
            options.chip.faults = parseFaultSpec(operand(i, "--faults"));
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            options.chip.faults = parseFaultSpec(arg + 9);
        } else if (std::strcmp(arg, "--validate") == 0) {
            options.validate = true;
        } else if (std::strcmp(arg, "--list-workloads") == 0) {
            listWorkloads();
        } else if (std::strcmp(arg, "--list-schemes") == 0) {
            listSchemes();
        } else if (std::strcmp(arg, "--list-traffic") == 0) {
            listTraffic();
        } else if (std::strcmp(arg, "--list-topologies") == 0) {
            listTopologies();
        } else if (std::strncmp(arg, "--", 2) == 0 && arg[2] != '\0') {
            usageError(prog, fmt("unknown option '{}'", arg));
        } else {
            options.positional.push_back(arg);
        }
    }

    if (!options.metricsPath.empty()) {
        if (metrics::kCompiledIn) {
            // Flip the process-wide switch here on the main thread,
            // before any matrix fan-out, so worker-thread runQei()
            // calls only read it.
            metrics::runtimeConfig().enabled = true;
        } else {
            std::fprintf(stderr,
                         "--metrics: this build has QEI_METRICS=OFF; "
                         "no time series will be sampled\n");
            options.metricsPath.clear();
        }
    }
    return options;
}

BenchReport::BenchReport(std::string bench_name, BenchOptions options)
    : options_(std::move(options)), root_(Json::object()),
      start_(Clock::now()), simEventsStart_(simEventsExecuted())
{
    root_["bench"] = std::move(bench_name);
    root_["schema_version"] = 3;
    root_["git_sha"] = QEI_GIT_SHA;
    root_["compiler"] = QEI_COMPILER;
    root_["build_flags"] = QEI_BUILD_FLAGS;
}

BenchReport
BenchReport::view(std::string bench_name) const
{
    BenchOptions options = options_;
    if (enabled())
        options.jsonPath =
            jsonStem(options_.jsonPath) + "." + bench_name + ".json";
    options.metricsPath.clear();
    BenchReport report(std::move(bench_name), std::move(options));
    report.view_ = true;
    return report;
}

void
BenchReport::setTable(const TablePrinter& table)
{
    root_["table"] = table.toJson();
}

void
BenchReport::setValidation(validate::Suite suite)
{
    suite_ = std::move(suite);
    haveSuite_ = true;
}

bool
BenchReport::finish()
{
    const double wallMs = msSince(start_);

    // Evaluate the paper expectations against the payload as filled
    // so far; the block is embedded in every artifact so that
    // qei-validate (and the generated EXPERIMENTS.md) work from the
    // same metadata whether or not --validate was passed.
    bool validationOk = true;
    if (haveSuite_) {
        const std::vector<validate::Outcome> outcomes =
            validate::evaluate(suite_, root_);
        root_["validation"] = validate::toJson(suite_, outcomes);
        if (options_.validate) {
            validate::printOutcomes(root_.at("bench").asString(),
                                    outcomes);
            validationOk =
                validate::overall(outcomes) != validate::Verdict::Fail;
        }
    } else if (options_.validate) {
        std::fprintf(stderr,
                     "--validate: no expectation suite declared\n");
        validationOk = false;
    }
    // Host-side self-metrics: how much simulated work this harness
    // executed and how fast the host chewed through it. The cell scan
    // runs before the top-level host_wall_ms stamp below, so `cells`
    // holds only the per-cell walls the payload carries; a view skips
    // it, since those cells ran in its producer.
    {
        const std::uint64_t simEvents =
            simEventsExecuted() - simEventsStart_;
        Json host = Json::object();
        host["sim_events"] = simEvents;
        host["sim_events_per_sec"] =
            wallMs > 0.0
                ? static_cast<double>(simEvents) / (wallMs / 1000.0)
                : 0.0;
        host["wall_ms"] = wallMs;
        Json cells = Json::object();
        if (!view_)
            collectCellWalls(root_, "", cells);
        host["cells"] = std::move(cells);
        root_["host"] = std::move(host);
    }
    root_["host_wall_ms"] = wallMs;
    root_["threads"] = static_cast<std::int64_t>(options_.threads);

    // Fold every per-run breakdown in the payload into one
    // whole-harness decomposition (the Fig. 8 view of this artifact).
    {
        std::map<std::string, std::uint64_t> components;
        std::uint64_t endToEnd = 0;
        std::uint64_t queries = 0;
        accumulateBreakdowns(root_, components, endToEnd, queries);
        if (queries > 0) {
            Json breakdown = Json::object();
            breakdown["queries"] = queries;
            breakdown["end_to_end_cycles"] = endToEnd;
            breakdown["mean_cycles_per_query"] =
                static_cast<double>(endToEnd) /
                static_cast<double>(queries);
            Json comps = Json::object();
            for (const auto& [name, cycles] : components) {
                Json one = Json::object();
                one["cycles"] = cycles;
                one["cycles_per_query"] =
                    static_cast<double>(cycles) /
                    static_cast<double>(queries);
                one["share"] = endToEnd
                                   ? static_cast<double>(cycles) /
                                         static_cast<double>(endToEnd)
                                   : 0.0;
                comps[name] = std::move(one);
            }
            breakdown["components"] = std::move(comps);
            root_["breakdown"] = std::move(breakdown);
        }
    }
    std::printf("host wall time: %.1f ms (threads=%d)\n", wallMs,
                options_.threads);

    // Render the process-wide Recorder to the --metrics CSV and clear
    // it, so back-to-back reports in one process don't leak runs into
    // each other's files.
    if (!options_.metricsPath.empty()) {
        metrics::Recorder& recorder = metrics::Recorder::global();
        std::ofstream csv(options_.metricsPath);
        if (csv) {
            csv << recorder.csv();
            csv.flush();
        }
        if (!csv) {
            std::fprintf(stderr, "failed to write %s\n",
                         options_.metricsPath.c_str());
            recorder.clear();
            return false;
        }
        std::printf("wrote %s (%zu sampled runs)\n",
                    options_.metricsPath.c_str(), recorder.size());
        recorder.clear();
    }
    if (!enabled())
        return validationOk;
    std::ofstream out(options_.jsonPath);
    if (out) {
        out << root_.dump(2) << '\n';
        out.flush();
    }
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n",
                     options_.jsonPath.c_str());
        return false;
    }
    std::printf("wrote %s\n", options_.jsonPath.c_str());
    return validationOk;
}

namespace {

bool
writeJsonFile(const std::string& path, const Json& doc)
{
    std::ofstream out(path);
    if (out) {
        out << doc.dump() << '\n';
        out.flush();
    }
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

/** Write @p events as one Perfetto timeline file. */
bool
writeTimeline(const std::string& path, Json events)
{
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return writeJsonFile(path, doc);
}

/**
 * Write one Perfetto file merging every captured cell of @p runs (one
 * Perfetto process per cell) to @p path, plus one file per cell at
 * `<stem>.<workload>.<scheme>.json`. @return false on I/O failure.
 */
bool
writeMatrixTraces(const std::vector<WorkloadRun>& runs,
                  const std::string& path)
{
    const std::string stem = jsonStem(path);
    Json merged = Json::array();
    int pid = 1;
    bool ok = true;
    std::size_t files = 0;
    for (const auto& run : runs) {
        for (const auto& [label, buf] : run.traces) {
            const std::string process = run.name + "/" + label;
            trace::appendPerfettoEvents(merged, buf, pid, process);
            ++pid;
            ok = writeJsonFile(stem + "." + run.name + "." + label +
                                   ".json",
                               trace::perfettoJson(buf, process)) &&
                 ok;
            ++files;
        }
    }
    ok = writeTimeline(path, std::move(merged)) && ok;
    if (ok) {
        std::printf("wrote %s (+%zu per-cell traces)\n", path.c_str(),
                    files);
    }
    return ok;
}

/** What one matrix cell yields. */
struct MatrixCell
{
    CoreRunResult baseline;
    QeiRunStats stats;
    ChipActivity activity;
    std::string statsJson;
};

} // namespace

std::vector<WorkloadRun>
runWorkloadMatrix(const std::vector<WorkloadFactory>& workloads,
                  const MatrixOptions& options)
{
    // The prologue keeps a copy of each row's stream for
    // WorkloadRun::prepared.
    Sweep<MatrixCell, Prepared> sweep;
    sweep.prologue(
        [](World&, const PreparedRow& row) { return row.prepared; });
    std::vector<WorkloadRun> runs(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        runs[w].name = workloads[w]()->name();
        const std::size_t row = sweep.row(workloadRow(
            workloads[w], options.queries, options.seed, options.chip));
        sweep.cell(row, "baseline",
                   [](World& world, const PreparedRow& row,
                      const Prepared&) {
                       return MatrixCell{
                           runBaseline(world, row.prepared), {},
                           ChipActivity::capture(world.hierarchy), {}};
                   });
        for (const Topology& topo : options.topologies) {
            const DriverConfig config =
                DriverConfig(topo)
                    .withMode(options.mode)
                    .withBatch(options.batch)
                    .withLabel(runs[w].name + "/" + topo.name());
            sweep.cell(row, topo.name(),
                       [config, stats = options.captureStats](
                           World& world, const PreparedRow& row,
                           const Prepared&) {
                           MatrixCell out;
                           DriverConfig cfg = config;
                           out.stats = runQei(
                               world, row.prepared,
                               cfg.captureStats(
                                   stats ? &out.statsJson : nullptr));
                           out.activity =
                               ChipActivity::capture(world.hierarchy);
                           return out;
                       });
        }
    }
    const bool armTrace =
        options.captureTrace || !options.tracePath.empty();
    std::vector<MatrixCell> cells =
        sweep.run(options.threads, armTrace, options.traceCapacity);

    const std::size_t stride = 1 + options.topologies.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        WorkloadRun& run = runs[c / stride];
        const std::string& label = sweep.label(c);
        if (c % stride == 0) {
            run.prepared = sweep.prologueOf(c / stride);
            run.baseline = cells[c].baseline;
        } else {
            run.schemes[label] = cells[c].stats;
            if (options.captureStats)
                run.statsJson[label] = std::move(cells[c].statsJson);
        }
        run.activity[label] = cells[c].activity;
        if (armTrace)
            run.traces[label] = sweep.trace(c);
        run.cellWallMs[label] = sweep.wallMs(c);
        run.hostWallMs += sweep.wallMs(c);
    }
    if (!options.tracePath.empty())
        writeMatrixTraces(runs, options.tracePath);
    return runs;
}

SweepRow
workloadRow(WorkloadFactory factory, std::size_t queries,
            std::uint64_t seed, const ChipConfig& chip)
{
    return {seed, chip,
            [factory = std::move(factory), queries](World& world) {
                std::shared_ptr<Workload> workload = factory();
                workload->build(world);
                Prepared prepared = workload->prepare(
                    world, queries ? queries : workload->defaultQueries());
                return PreparedRow{std::move(prepared),
                                   std::move(workload)};
            }};
}

SweepRow
mixedTraceRow(std::size_t queries_per_class, const ChipConfig& chip)
{
    // Traces stay index-aligned with jobs so queryId-based fallback
    // lookups keep working.
    SweepRow row;
    row.chip = chip;
    row.make = [queries_per_class](World& world) -> PreparedRow {
        const auto factories = makeWorkloadFactories();
        auto keep = std::make_shared<MixedTrace>();
        keep->dpdk = factories[0]();
        keep->flann = factories[4]();
        keep->dpdk->build(world);
        keep->flann->build(world);
        Prepared a = keep->dpdk->prepare(world, queries_per_class);
        Prepared b = keep->flann->prepare(world, queries_per_class);

        auto rangeOf = [](const Prepared& p, const std::string& name) {
            Addr lo = ~Addr{0};
            Addr hi = 0;
            for (const QueryJob& j : p.jobs) {
                lo = std::min(lo, j.keyAddr);
                hi = std::max(hi, j.keyAddr);
            }
            return ClassRange{lo, hi + 1, name};
        };
        keep->classes = {rangeOf(a, "dpdk"), rangeOf(b, "flann")};

        Prepared mixed;
        mixed.profile = a.profile; // one profile for every compared run
        const std::size_t n = std::min(a.jobs.size(), b.jobs.size());
        mixed.jobs.reserve(2 * n);
        mixed.traces.reserve(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
            mixed.jobs.push_back(a.jobs[i]);
            mixed.traces.push_back(a.traces[i]);
            mixed.jobs.push_back(b.jobs[i]);
            mixed.traces.push_back(b.traces[i]);
        }
        return {std::move(mixed), std::move(keep)};
    };
    return row;
}

void
runSweepCells(const std::vector<SweepRow>& rows,
              const std::vector<std::size_t>& cell_rows, int threads,
              const SweepHook& prologue, const SweepHook& cell,
              std::vector<double>& wall_ms)
{
    const std::size_t n = cell_rows.size();
    wall_ms.assign(n, 0.0);
    // Unstarted cells of each row, in declaration order; guarded by
    // mutex once the workers start.
    std::mutex mutex;
    std::vector<std::deque<std::size_t>> pending(rows.size());
    for (std::size_t c = 0; c < n; ++c) {
        simAssert(cell_rows[c] < rows.size(), "cell on undeclared row");
        pending[cell_rows[c]].push_back(c);
    }
    const auto prologueOnce =
        std::make_unique<std::once_flag[]>(rows.size());

    // The next cell for a worker whose World belongs to @p row.
    auto claim = [&](std::size_t row) -> std::optional<std::size_t> {
        const std::lock_guard<std::mutex> lock(mutex);
        if (row == rows.size() || pending[row].empty()) {
            // The first row with the most unstarted cells.
            row = static_cast<std::size_t>(
                std::max_element(pending.begin(), pending.end(),
                                 [](const auto& a, const auto& b) {
                                     return a.size() < b.size();
                                 }) -
                pending.begin());
            if (pending[row].empty())
                return std::nullopt;
        }
        const std::size_t c = pending[row].front();
        pending[row].pop_front();
        return c;
    };

    auto worker = [&](std::size_t) {
        std::unique_ptr<World> world;
        PreparedRow prepared;
        std::size_t row = rows.size(); // no World yet
        while (const std::optional<std::size_t> c = claim(row)) {
            const auto start = Clock::now();
            if (cell_rows[*c] != row) {
                row = cell_rows[*c];
                prepared = {}; // may reference the old World
                world.reset();
                world = std::make_unique<World>(rows[row].seed,
                                                rows[row].chip);
                prepared = rows[row].make(*world);
                if (prologue) {
                    std::call_once(prologueOnce[row], [&] {
                        prologue(row, *world, prepared);
                    });
                }
            }
            cell(*c, *world, prepared);
            wall_ms[*c] = msSince(start);
        }
        return 0;
    };
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(threads, 1)), n);
    parallelMap(static_cast<int>(workers), workers, worker);
}

bool
writeSweepTrace(const std::string& path,
                const std::vector<std::string>& labels,
                const std::vector<trace::TraceBuffer>& traces)
{
    if (path.empty())
        return true;
    Json events = Json::array();
    for (std::size_t c = 0; c < traces.size(); ++c) {
        trace::appendPerfettoEvents(events, traces[c],
                                    static_cast<int>(c) + 1, labels[c]);
    }
    if (!writeTimeline(path, std::move(events)))
        return false;
    std::printf("wrote %s\n", path.c_str());
    return true;
}

double
calibrateServiceGap(World& world, const PreparedRow& row)
{
    const QeiRunStats closed =
        runQei(world, row.prepared,
               DriverConfig(SchemeConfig::coreIntegrated()));
    return static_cast<double>(closed.cycles) /
           static_cast<double>(closed.queries);
}

std::size_t
parseQueryCap(const BenchOptions& options, const char* prog)
{
    if (options.positional.empty())
        return 0;
    const std::string& text = options.positional.front();
    char* end = nullptr;
    errno = 0;
    const unsigned long long cap =
        std::strtoull(text.c_str(), &end, 10);
    if (options.positional.size() > 1) {
        usageError(prog, fmt("expected one query count, got '{}' too",
                             options.positional[1]));
    }
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || cap == 0) {
        usageError(prog, fmt("expected a positive query count, got "
                             "'{}'",
                             text));
    }
    return static_cast<std::size_t>(cap);
}

Json
toJson(const CoreRunResult& result)
{
    Json out = Json::object();
    out["cycles"] = result.cycles;
    out["instructions"] = result.instructions;
    out["loads"] = result.loads;
    out["stores"] = result.stores;
    out["queries"] = result.queries;
    out["backend_stall_cycles"] = result.backendStallCycles;
    out["frontend_stall_cycles"] = result.frontendStallCycles;
    out["ipc"] = result.ipc();
    out["cycles_per_query"] = result.cyclesPerQuery();
    return out;
}

Json
toJson(const QeiRunStats& stats)
{
    Json out = Json::object();
    out["cycles"] = stats.cycles;
    out["queries"] = stats.queries;
    out["core_instructions"] = stats.coreInstructions;
    out["mismatches"] = stats.mismatches;
    out["exceptions"] = stats.exceptions;
    out["mem_accesses"] = stats.memAccesses;
    out["micro_ops"] = stats.microOps;
    out["remote_compares"] = stats.remoteCompares;
    out["avg_qst_occupancy"] = stats.avgQstOccupancy;
    out["max_inflight_observed"] = stats.maxInFlightObserved;
    out["cycles_per_query"] = stats.cyclesPerQuery();

    // Fault-injection / recovery accounting (zeros when fault-free).
    out["faults_injected"] = stats.faultsInjected;
    out["sw_fallbacks"] = stats.swFallbacks;
    out["sw_fallback_cycles"] = stats.swFallbackCycles;
    out["fault_flushes"] = stats.faultFlushes;
    out["qst_backoffs"] = stats.qstBackoffs;
    // Decimal string: the digest uses all 64 bits and Json numbers
    // are signed.
    out["result_checksum"] = fmt("{}", stats.resultChecksum);

    // QUERY_BATCH amortization block, only for batched runs — scalar
    // artifacts keep their historical shape byte-for-byte.
    if (stats.batches > 0) {
        Json batch = Json::object();
        batch["batches"] = stats.batches;
        batch["batched_queries"] = stats.batchedQueries;
        batch["admission_backoffs"] = stats.batchBackoffs;
        batch["header_hits"] = stats.batchHeaderHits;
        batch["line_hits"] = stats.batchLineHits;
        out["batch"] = std::move(batch);
    }

    // Offload-planner block, only when a planner was consulted —
    // planner-free artifacts keep their historical shape.
    if (stats.plannerDecisions > 0) {
        Json planner = Json::object();
        planner["decisions"] = stats.plannerDecisions;
        planner["core_executes"] = stats.plannerCoreExecutes;
        out["planner"] = std::move(planner);
    }

    // Admission / multi-tenant serving block, only when the serving
    // path ran — every historical artifact keeps its exact shape.
    if (!stats.tenants.empty() || stats.sheddedQueries > 0 ||
        stats.admittedQueries > 0) {
        Json adm = Json::object();
        adm["admitted"] = stats.admittedQueries;
        adm["shed"] = stats.sheddedQueries;
        adm["degraded"] = stats.degradedQueries;
        adm["admitted_checksum"] =
            fmt("{}", stats.admittedChecksum);
        Json tenants = Json::array();
        for (const auto& t : stats.tenants) {
            Json one = Json::object();
            one["tenant"] = t.tenant;
            one["offered"] = t.offered;
            one["admitted"] = t.admitted;
            one["shed"] = t.shed;
            one["degraded"] = t.degraded;
            one["sojourn_p50"] = t.sojournP50;
            one["sojourn_p99"] = t.sojournP99;
            one["sojourn_mean"] = t.sojournMean;
            one["occupancy_mean"] = t.occupancyMean;
            tenants.push_back(std::move(one));
        }
        adm["tenants"] = std::move(tenants);
        out["admission"] = std::move(adm);
    }

    // Sampled time series, only when the run had a sampler attached
    // (--metrics): unsampled artifacts keep their historical shape
    // byte-for-byte.
    if (stats.metrics && stats.metrics->samples > 0)
        out["metrics"] = stats.metrics->toJson();

    // Per-component latency decomposition (Fig. 8 view). Always
    // emitted, even all-zero, so artifacts have a stable shape and
    // BenchReport::finish() can aggregate without special cases.
    Json breakdown = Json::object();
    breakdown["queries"] = stats.breakdownQueries;
    breakdown["end_to_end_cycles"] = stats.breakdownEndToEnd;
    breakdown["mean_cycles_per_query"] =
        stats.breakdownQueries
            ? static_cast<double>(stats.breakdownEndToEnd) /
                  static_cast<double>(stats.breakdownQueries)
            : 0.0;
    Json comps = Json::object();
    for (const auto& [name, cycles] : stats.breakdownCycles) {
        Json one = Json::object();
        one["cycles"] = cycles;
        one["cycles_per_query"] =
            stats.breakdownQueries
                ? static_cast<double>(cycles) /
                      static_cast<double>(stats.breakdownQueries)
                : 0.0;
        one["share"] = stats.breakdownEndToEnd
                           ? static_cast<double>(cycles) /
                                 static_cast<double>(
                                     stats.breakdownEndToEnd)
                           : 0.0;
        comps[name] = std::move(one);
    }
    breakdown["components"] = std::move(comps);
    out["breakdown"] = std::move(breakdown);
    return out;
}

Json
toJson(const WorkloadRun& run)
{
    Json out = Json::object();
    out["workload"] = run.name;
    out["baseline"] = toJson(run.baseline);
    out["host_wall_ms"] = run.hostWallMs;
    {
        auto it = run.cellWallMs.find("baseline");
        if (it != run.cellWallMs.end())
            out["baseline"]["host_wall_ms"] = it->second;
    }
    Json schemes = Json::object();
    for (const auto& [name, stats] : run.schemes) {
        Json s = toJson(stats);
        s["speedup"] = run.speedup(stats);
        auto wall = run.cellWallMs.find(name);
        if (wall != run.cellWallMs.end())
            s["host_wall_ms"] = wall->second;
        schemes[name] = std::move(s);
    }
    out["schemes"] = std::move(schemes);
    return out;
}

std::vector<std::string>
schemeNames()
{
    std::vector<std::string> names;
    for (const auto& s : SchemeConfig::allSchemes())
        names.push_back(s.name());
    return names;
}

} // namespace qei::bench
