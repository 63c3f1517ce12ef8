/**
 * @file
 * The simulator's benchmark. It drives the library's public entry
 * points (World, Workload::build/prepare, runBaseline, runQei,
 * bench::runWorkloadMatrix, TrafficSource::schedule) from outside, on
 * inputs derived from one seed, and reports host time end to end or,
 * with --trace 1, layer by layer. Every simulated result is checked
 * and folded into a digest, so a host-only change can show that the
 * simulated numbers stayed identical.
 *
 * Workloads (all single-threaded; see README.md for why each exists):
 *   paper-matrix  fig07's matrix through runWorkloadMatrix, threads=1
 *   long-closed   each paper workload at 8x its default query count,
 *                 Core-integrated QUERY_B, QUERY_NB and QUERY_BATCH 32
 *   serving       dpdk, rocksdb and flann: open-loop Poisson at 50%
 *                 and 90% of closed-loop capacity, then a 4-tenant mix
 *                 at 2x capacity under Adaptive admission
 *
 * Usage:
 *   qei_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--spans <path>] [--queries <n>]
 *
 * The workload's job runs repeatedly ("passes") until --seconds are
 * used; every host-time figure is built from medians over passes.
 * --queries overrides every World's query count (tests use it to stay
 * small). The last line of stdout is one JSON object: correct,
 * attempted, failed and the metrics. The exit code is 1 when any check
 * failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/hash.hh"
#include "qei/admission.hh"
#include "sim/event_queue.hh"
#include "traffic/traffic.hh"

using namespace qei;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Shortest round-trip decimal form of @p v (non-finite prints 0). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
    /** Query count of every World; 0 keeps each workload's own. */
    std::size_t queries = 0;
};

[[noreturn]] void
usage(const char* prog, const std::string& message)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload "
                 "paper-matrix|long-closed|serving --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans <path>] [--queries <n>]\n",
                 prog, message.c_str(), prog);
    std::exit(2);
}

Options
parseOptions(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], "missing operand for " + flag);
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
            if (!opt.trace && std::strcmp(value, "0") != 0)
                usage(argv[0], "--trace takes 0 or 1");
        } else if (flag == "--spans") {
            opt.spansPath = value;
        } else if (flag == "--queries") {
            opt.queries = std::strtoull(value, &end, 10);
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || end == value))
            usage(argv[0], "bad number for " + flag + ": " + value);
    }
    if (!(opt.seconds > 0.0))
        usage(argv[0], "--seconds must be positive");
    return opt;
}

/** Order-sensitive 64-bit digest of a sequence of values. */
class Digest
{
  public:
    void add(std::uint64_t v) { h_ = mix64(h_ ^ mix64(v + ++n_)); }

    void
    add(const std::string& s)
    {
        add(fnv1a64(s.data(), s.size()));
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

    bool operator==(const Digest& o) const { return h_ == o.h_; }

  private:
    std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
    std::uint64_t n_ = 0;
};

/** One timed call into the library, kept when tracing. */
struct Span
{
    std::string name; ///< "<layer>.<call>"
    std::string id;   ///< pass / workload / cell or path
    int parent = -1;  ///< index of the enclosing span, -1 at the root
    double startMs = 0.0;
    double endMs = 0.0;
};

/**
 * Times every call the benchmark makes into the library. The timing is
 * always taken (the end-to-end metrics need it); with keep() on, each
 * timing is also recorded as a span under the innermost open one.
 */
class Recorder
{
  public:
    bool keep() const { return keep_; }
    void setKeep(bool keep) { keep_ = keep; }
    const std::vector<Span>& spans() const { return spans_; }

    /** Run @p fn as span @p name; @return its host milliseconds. */
    template <typename Fn>
    double
    time(const std::string& name, const std::string& id, Fn&& fn)
    {
        const auto start = Clock::now();
        int index = -1;
        if (keep_) {
            index = static_cast<int>(spans_.size());
            spans_.push_back({name, id, open_.empty() ? -1 : open_.back(),
                              msAt(start), 0.0});
            open_.push_back(index);
        }
        struct Close
        {
            Recorder& rec;
            int index;
            ~Close()
            {
                if (index >= 0) {
                    rec.spans_[static_cast<std::size_t>(index)].endMs =
                        rec.msAt(Clock::now());
                    rec.open_.pop_back();
                }
            }
        } close{*this, index};
        fn();
        return msSince(start);
    }

    /**
     * Self time per layer (the span name before its first '.') over
     * spans [@p from, end): each span's duration less the part its
     * children cover.
     */
    std::map<std::string, double>
    selfMs(std::size_t from) const
    {
        std::vector<double> childMs(spans_.size(), 0.0);
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (s.parent >= 0)
                childMs[static_cast<std::size_t>(s.parent)] +=
                    s.endMs - s.startMs;
        }
        std::map<std::string, double> self;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            self[s.name.substr(0, s.name.find('.'))] +=
                s.endMs - s.startMs - childMs[i];
        }
        return self;
    }

    /** Write every span as JSON to @p path. @return false on failure. */
    bool
    write(const std::string& path, const Options& opt) const
    {
        std::ofstream out(path);
        out << "{\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
                << "\", \"id\": \"" << s.id << "\", \"parent\": "
                << s.parent << ", \"start_ms\": " << num(s.startMs)
                << ", \"end_ms\": " << num(s.endMs) << "}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    double
    msAt(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::milli>(t - origin_)
            .count();
    }

    bool keep_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What a timed segment of a pass counts towards. */
enum class Seg { Setup, Run, Other };

/** One path's simulated totals over a pass's runs. */
struct PathTotals
{
    double cycles = 0.0;
    double queries = 0.0;
    double p99Sum = 0.0;
    double runs = 0.0;
};

/**
 * Everything one pass of a workload's job measured and checked.
 *
 * Host time is kept per segment (one call on one World, keyed the same
 * in every pass), so the end-to-end figures can be summed from
 * per-segment medians: a burst of host noise then inflates only the
 * segments it hit, in the passes it hit.
 */
struct Pass
{
    double wallMs = 0.0;
    /** Segments inside wallMs; the rest of wallMs is the glue. */
    std::map<std::string, double> wallSegs;
    /** World construction, build, prepare and schedule. */
    std::map<std::string, double> setupSegs;
    /** Inside runQei only. */
    std::map<std::string, double> runSegs;
    /** Jobs completed by runQei calls. */
    std::uint64_t jobs = 0;
    /** Host milliseconds of the standalone warm probes (traced only). */
    double probeMs = 0.0;
    /** Per-layer metrics and model values, by metric name. */
    std::map<std::string, double> layer;
    /** Self time per layer, from the spans (traced only). */
    std::map<std::string, double> selfMs;
    /** Simulated totals per path, for the model.* ratios. */
    std::map<std::string, PathTotals> paths;
    /** Simulated-result digest per paper workload, then per run. */
    std::map<std::string, std::map<std::string, Digest>> results;
    /** Generated-input digest per paper workload. */
    std::map<std::string, Digest> inputs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    /** Add @p v to `<base>.<key>` and to `<base>.all`. */
    void
    addBoth(const std::string& base, const std::string& key, double v)
    {
        layer[base + "." + key] += v;
        layer[base + ".all"] += v;
    }

    /** Record segment @p key; @p in_wall is false for work outside
     *  the job whose wall time is measured. */
    void
    seg(const std::string& key, Seg kind, double ms, bool in_wall = true)
    {
        if (in_wall)
            wallSegs[key] += ms;
        if (kind == Seg::Setup)
            setupSegs[key] += ms;
        if (kind == Seg::Run)
            runSegs[key] += ms;
    }

    void
    fail(std::uint64_t queries, const std::string& what)
    {
        failed += queries;
        problems.push_back(what);
    }
};

/** A prepared stream whose arrival timeline was scheduled up front. */
class Prescheduled : public traffic::TrafficSource
{
  public:
    Prescheduled(std::string name, std::vector<traffic::Arrival> arrivals)
        : name_(std::move(name)), arrivals_(std::move(arrivals))
    {
    }

    std::string name() const override { return name_; }
    std::string description() const override
    {
        return "arrivals scheduled before the run";
    }
    std::vector<traffic::Arrival>
    schedule(std::size_t) override
    {
        return arrivals_;
    }

  private:
    std::string name_;
    std::vector<traffic::Arrival> arrivals_;
};

/** One paper workload's built World and prepared streams. */
struct Cell
{
    std::unique_ptr<Workload> workload;
    std::unique_ptr<World> world;
    Prepared prepared;
    std::string name;
    /** Segment and span key: the workload, then the cell label. */
    std::string id;
};

/** Shared state of one benchmark process. */
struct Bench
{
    Options opt;
    Recorder rec;
    int passIndex = 0;

    /** Seed of one named input stream, derived from --seed. */
    std::uint64_t
    streamSeed(const std::string& stream) const
    {
        return mix64(opt.seed ^ fnv1a64(stream.data(), stream.size()));
    }

    std::string
    id(const std::string& rest) const
    {
        return "p" + std::to_string(passIndex) + "/" + rest;
    }

    /**
     * Construct @p factory's World at @p scale times its default query
     * count, build and prepare it (each a set-up segment and span),
     * then, when tracing, probe the per-run LLC warm. The cell is keyed
     * by the workload's name, then @p label when one is given.
     */
    Cell
    setUp(Pass& pass, const WorkloadFactory& factory, std::size_t scale,
          const std::string& label = "", bool in_wall = true)
    {
        Cell c;
        c.workload = factory();
        c.name = c.workload->name();
        c.id = label.empty() ? c.name : c.name + "/" + label;
        const std::string sid = id(c.id);
        const double worldMs = rec.time("workloads.world", sid, [&] {
            c.world = std::make_unique<World>(opt.seed);
        });
        const double buildMs = rec.time(
            "workloads.build", sid, [&] { c.workload->build(*c.world); });
        const std::size_t n = opt.queries != 0
                                  ? opt.queries
                                  : scale * c.workload->defaultQueries();
        const double prepareMs = rec.time("workloads.prepare", sid, [&] {
            c.prepared = c.workload->prepare(*c.world, n);
        });
        pass.addBoth("workloads.world_ms", c.name, worldMs);
        pass.addBoth("workloads.build_ms", c.name, buildMs);
        pass.addBoth("workloads.prepare_ms", c.name, prepareMs);
        pass.seg(c.id + "|world", Seg::Setup, worldMs, in_wall);
        pass.seg(c.id + "|build", Seg::Setup, buildMs, in_wall);
        pass.seg(c.id + "|prepare", Seg::Setup, prepareMs, in_wall);

        if (!pass.inputs.count(c.name)) {
            Digest& in = pass.inputs[c.name];
            for (const QueryJob& job : c.prepared.jobs) {
                in.add(job.headerAddr);
                in.add(job.keyAddr);
                in.add(job.expectFound ? 1 : 0);
                in.add(job.expectValue);
            }
        }
        if (rec.keep()) {
            // The reset + warm every runQei and runBaseline repeats,
            // sized standalone on this World.
            const double warmMs = rec.time("mem.warm", sid, [&] {
                c.world->resetTiming();
                c.world->warmLlc();
            });
            pass.addBoth("mem.warm_ms", c.name, warmMs);
            pass.probeMs += warmMs;
        }
        return c;
    }

    void
    tearDown(Pass& pass, Cell& c, bool in_wall = true)
    {
        const double ms = rec.time("workloads.teardown", id(c.id),
                                   [&] { c.world.reset(); });
        pass.seg(c.id + "|teardown", Seg::Other, ms, in_wall);
    }

    /** Fold one QEI run's simulated results into @p digest. */
    static void
    digestRun(Digest& digest, const QeiRunStats& s)
    {
        digest.add(s.cycles);
        digest.add(s.queries);
        digest.add(s.resultChecksum);
        digest.add(s.memAccesses);
        digest.add(s.microOps);
        digest.add(s.qstBackoffs);
        digest.add(s.batchLineHits);
        digest.add(s.sheddedQueries);
        digest.add(s.degradedQueries);
        digest.add(std::bit_cast<std::uint64_t>(s.sojourn.p50));
        digest.add(std::bit_cast<std::uint64_t>(s.sojourn.p99));
        for (const auto& [component, cycles] : s.breakdownCycles) {
            digest.add(component);
            digest.add(cycles);
        }
    }

    /** Add @p s's simulated counters to the pass's model values. */
    static void
    addModel(Pass& pass, const std::string& path, const QeiRunStats& s)
    {
        PathTotals& t = pass.paths[path];
        t.cycles += static_cast<double>(s.cycles);
        t.queries += static_cast<double>(s.queries);
        t.p99Sum += s.sojourn.p99;
        t.runs += 1.0;
        pass.layer["model.mem_accesses"] +=
            static_cast<double>(s.memAccesses);
        pass.layer["model.micro_ops"] += static_cast<double>(s.microOps);
        pass.layer["model.qst_backoffs"] +=
            static_cast<double>(s.qstBackoffs);
        pass.layer["model.batch_line_hits"] +=
            static_cast<double>(s.batchLineHits);
        for (const auto& [component, cycles] : s.breakdownCycles)
            pass.layer["model.breakdown." + component] +=
                static_cast<double>(cycles);
    }

    /** Check one QEI run's functional results. */
    static void
    checkRun(Pass& pass, const std::string& where, const QeiRunStats& s,
             std::size_t jobs)
    {
        pass.attempted += jobs;
        if (s.queries != jobs) {
            pass.fail(jobs, fmt("{}: {} of {} jobs reported", where,
                                s.queries, jobs));
            return;
        }
        const std::uint64_t bad = s.mismatches + s.exceptions;
        if (bad != 0) {
            pass.fail(std::min<std::uint64_t>(bad, jobs),
                      fmt("{}: {} mismatches, {} exceptions", where,
                          s.mismatches, s.exceptions));
        }
    }

    /**
     * runQei on @p c under @p config as path @p path: timed, counted in
     * events, checked and digested under @p run (default: the path).
     */
    QeiRunStats
    runPath(Pass& pass, Cell& c, const DriverConfig& config,
            const std::string& path, std::string run = "")
    {
        if (run.empty())
            run = path;
        const std::string where = c.name + "/" + run;
        const std::size_t jobs = c.prepared.jobs.size();
        const std::uint64_t events0 = simEventsExecuted();
        QeiRunStats stats;
        bool threw = false;
        const double ms = rec.time("qei.run", id(where), [&] {
            try {
                stats = runQei(*c.world, c.prepared, config);
            } catch (const std::exception& e) {
                threw = true;
                pass.problems.push_back(where + ": " + e.what());
            }
        });
        const double events =
            static_cast<double>(simEventsExecuted() - events0);
        pass.seg(where + "|run", Seg::Run, ms);
        pass.jobs += jobs;
        pass.addBoth("qei.run_ms", path, ms);
        pass.addBoth("sim.events", path, events);
        if (threw) {
            pass.attempted += jobs;
            pass.failed += jobs;
            return stats;
        }
        checkRun(pass, where, stats, jobs);
        addModel(pass, path, stats);
        digestRun(pass.results[c.name][run], stats);
        return stats;
    }

    /** Every run in @p runs must produce @p runs[0]'s checksum. */
    static void
    checkSameResults(
        Pass& pass, const std::string& wl,
        const std::vector<std::pair<std::string, QeiRunStats>>& runs)
    {
        for (const auto& [path, s] : runs) {
            if (s.resultChecksum != runs[0].second.resultChecksum) {
                pass.fail(s.queries,
                          fmt("{}: {} checksum {:#x} differs from {} "
                              "{:#x}",
                              wl, path, s.resultChecksum, runs[0].first,
                              runs[0].second.resultChecksum));
            }
        }
    }
};

// -- paper-matrix ----------------------------------------------------

/**
 * Untraced: time the set-up of each paper workload's default World
 * (what every matrix cell pays before simulating; outside the wall
 * time), then the whole fig07 matrix through runWorkloadMatrix. A cell
 * builds its World inside the timed region, so here the whole matrix
 * counts as the simulated region of sim_qps.
 */
void
paperMatrixPass(Bench& b, Pass& pass)
{
    for (const WorkloadFactory& factory : makeWorkloadFactories()) {
        Cell c = b.setUp(pass, factory, 1, "setup", false);
        b.tearDown(pass, c, false);
    }

    bench::MatrixOptions matrix;
    matrix.threads = 1;
    matrix.seed = b.opt.seed;
    matrix.queries = b.opt.queries;
    std::vector<bench::WorkloadRun> runs;
    pass.wallMs = b.rec.time("matrix.run", b.id("matrix"), [&] {
        runs = bench::runWorkloadMatrix(makeWorkloadFactories(), matrix);
    });

    for (const bench::WorkloadRun& run : runs) {
        for (const auto& [cell, ms] : run.cellWallMs)
            pass.seg(run.name + "/" + cell + "|cell", Seg::Run, ms);
        Digest& base = pass.results[run.name]["baseline"];
        base.add(run.baseline.cycles);
        base.add(run.baseline.instructions);
        std::vector<std::pair<std::string, QeiRunStats>> paths;
        for (const auto& [topo, stats] : run.schemes) {
            const std::size_t jobs = run.prepared.jobs.size();
            pass.jobs += jobs;
            Bench::checkRun(pass, run.name + "/" + topo, stats, jobs);
            Bench::digestRun(pass.results[run.name][topo], stats);
            paths.emplace_back(topo, stats);
        }
        Bench::checkSameResults(pass, run.name, paths);
        double cellMs = 0.0;
        for (const auto& [cell, ms] : run.cellWallMs)
            cellMs += ms;
        pass.addBoth("matrix.cell_ms", run.name, cellMs);
    }
}

/**
 * Traced: replay every matrix cell by hand, as runWorkloadMatrix runs
 * it, with a span around each call. Cells run the paper's blocking
 * queries, so every topology cell is path "b".
 */
void
paperMatrixTracedPass(Bench& b, Pass& pass)
{
    const auto start = Clock::now();
    b.rec.time("bench.pass", b.id("paper-matrix"), [&] {
        for (const WorkloadFactory& factory : makeWorkloadFactories()) {
            const std::string wl = factory()->name();
            std::vector<std::pair<std::string, QeiRunStats>> paths;
            auto cell = [&](const std::string& label,
                            const std::function<void(Cell&)>& run) {
                const double probeBefore = pass.probeMs;
                const double ms =
                    b.rec.time("matrix.cell", b.id(wl + "/" + label), [&] {
                        Cell c = b.setUp(pass, factory, 1, label);
                        run(c);
                        b.tearDown(pass, c);
                    });
                pass.addBoth("matrix.replay_ms", wl,
                             ms - (pass.probeMs - probeBefore));
            };
            cell("baseline", [&](Cell& c) {
                CoreRunResult base;
                const double ms = b.rec.time(
                    "core.baseline", b.id(wl + "/baseline"),
                    [&] { base = runBaseline(*c.world, c.prepared); });
                pass.addBoth("core.baseline_ms", wl, ms);
                Digest& digest = pass.results[wl]["baseline"];
                digest.add(base.cycles);
                digest.add(base.instructions);
            });
            // The paper's blocking queries: every topology is path b.
            for (const Topology& topo : Topology::allPaper()) {
                cell(topo.name(), [&](Cell& c) {
                    PlannerConfig planner;
                    planner.workload = wl;
                    paths.emplace_back(
                        topo.name(),
                        b.runPath(pass, c,
                                  DriverConfig(topo)
                                      .withLabel(wl + "/" + topo.name())
                                      .withPlanner(planner),
                                  "b", topo.name()));
                });
            }
            Bench::checkSameResults(pass, wl, paths);
        }
    });
    pass.wallMs = msSince(start);
}

// -- long-closed -----------------------------------------------------

/** Each paper workload at 8x its queries: QUERY_B, _NB and _BATCH 32. */
void
longClosedPass(Bench& b, Pass& pass)
{
    const auto start = Clock::now();
    b.rec.time("bench.pass", b.id("long-closed"), [&] {
        for (const WorkloadFactory& factory : makeWorkloadFactories()) {
            Cell c = b.setUp(pass, factory, 8);
            const DriverConfig core(SchemeConfig::coreIntegrated());
            BatchConfig batch;
            batch.size = 32;
            std::vector<std::pair<std::string, QeiRunStats>> paths;
            paths.emplace_back("b", b.runPath(pass, c, core, "b"));
            paths.emplace_back(
                "nb", b.runPath(pass, c,
                                DriverConfig(core)
                                    .withMode(QueryMode::NonBlocking)
                                    .withPollBatch(32),
                                "nb"));
            paths.emplace_back(
                "batch32",
                b.runPath(pass, c, DriverConfig(core).withBatch(batch),
                          "batch32"));
            Bench::checkSameResults(pass, c.name, paths);
            b.tearDown(pass, c);
        }
    });
    pass.wallMs = msSince(start);
}

// -- serving ---------------------------------------------------------

/** Queries per serving World, as a multiple of the default. */
constexpr std::size_t kServingScale = 12;

/**
 * dpdk, rocksdb and flann: closed-loop capacity on the prepared stream,
 * then Poisson at 50% and 90% of it, then a 4-tenant mix at 2x under
 * Adaptive admission with shed-to-core degradation.
 */
void
servingPass(Bench& b, Pass& pass)
{
    const auto start = Clock::now();
    b.rec.time("bench.pass", b.id("serving"), [&] {
        for (const WorkloadFactory& factory : makeWorkloadFactories()) {
            const std::string name = factory()->name();
            if (name != "dpdk" && name != "rocksdb" && name != "flann")
                continue;
            Cell c = b.setUp(pass, factory, kServingScale);
            const std::size_t n = c.prepared.jobs.size();
            const DriverConfig core(SchemeConfig::coreIntegrated());

            // Schedule up front, timed as set-up, so runQei measures
            // only the simulated region.
            auto schedule = [&](traffic::TrafficSource& source,
                                const std::string& path) {
                std::vector<traffic::Arrival> arrivals;
                const double ms = b.rec.time(
                    "traffic.schedule", b.id(c.name + "/" + path),
                    [&] { arrivals = source.schedule(n); });
                pass.addBoth("traffic.schedule_ms", path, ms);
                pass.seg(c.id + "/" + path + "|schedule", Seg::Setup, ms);
                Digest& in = pass.inputs[c.name];
                for (const traffic::Arrival& a : arrivals) {
                    in.add(a.tick);
                    in.add(a.queryIndex);
                    in.add(static_cast<std::uint64_t>(a.tenant));
                }
                return std::make_shared<Prescheduled>(source.name(),
                                                      std::move(arrivals));
            };

            std::vector<std::pair<std::string, QeiRunStats>> paths;
            const QeiRunStats closed = b.runPath(pass, c, core, "b");
            paths.emplace_back("b", closed);
            const double gap =
                closed.queries ? static_cast<double>(closed.cycles) /
                                     static_cast<double>(closed.queries)
                               : 1.0;

            for (const auto& [path, load] :
                 {std::pair<std::string, double>{"open50", 0.5},
                  {"open90", 0.9}}) {
                traffic::PoissonOpenLoop poisson(
                    gap / load, b.streamSeed(c.name + "/" + path));
                paths.emplace_back(
                    path, b.runPath(pass, c,
                                    DriverConfig(core).withTraffic(
                                        schedule(poisson, path)),
                                    path));
            }

            // 4 equal Poisson tenants, together at 2x capacity.
            std::vector<traffic::TenantMix::Stream> streams;
            for (int t = 0; t < 4; ++t) {
                streams.push_back(
                    {std::make_shared<traffic::PoissonOpenLoop>(
                         gap * 2.0,
                         b.streamSeed(c.name + "/serve/" +
                                      std::to_string(t))),
                     1.0});
            }
            traffic::TenantMix mix(std::move(streams));
            AdmissionConfig admission;
            admission.policy = AdmissionPolicy::Adaptive;
            admission.degradeToCore = true;
            // SLO: 2.5x the tail at 90% load (paths.back() is open90).
            admission.sloP99 = 2.5 * paths.back().second.sojourn.p99;
            admission.window = 64;
            admission.minSamples = 16;
            const QeiRunStats serve = b.runPath(
                pass, c,
                DriverConfig(core)
                    .withTraffic(schedule(mix, "serve"))
                    .withAdmission(admission),
                "serve");
            paths.emplace_back("serve", serve);
            pass.layer["qei.admission.admitted"] +=
                static_cast<double>(serve.admittedQueries);
            pass.layer["qei.admission.shed"] +=
                static_cast<double>(serve.sheddedQueries);
            pass.layer["qei.admission.degraded"] +=
                static_cast<double>(serve.degradedQueries);
            pass.layer["qei.admission.offered"] +=
                static_cast<double>(serve.queries);
            // Degradation runs every shed query on the core, so all
            // offered work completes.
            if (serve.admittedQueries + serve.degradedQueries !=
                serve.queries) {
                pass.fail(serve.queries,
                          fmt("{}/serve: admitted {} + degraded {} != "
                              "offered {}",
                              c.name, serve.admittedQueries,
                              serve.degradedQueries, serve.queries));
            }
            Bench::checkSameResults(pass, c.name, paths);
            b.tearDown(pass, c);
        }
    });
    pass.wallMs = msSince(start);
}

// -- reporting -------------------------------------------------------

/** Derive the per-pass ratios from the summed counters. */
void
finishPass(Pass& pass)
{
    std::map<std::string, double> derived;
    for (const auto& [name, events] : pass.layer) {
        if (name.rfind("sim.events.", 0) == 0 && events > 0.0) {
            const std::string path = name.substr(11);
            derived["sim.ns_per_event." + path] =
                pass.layer.at("qei.run_ms." + path) * 1e6 / events;
        }
    }
    for (const auto& [path, t] : pass.paths) {
        derived["model.cycles_per_query." + path] = t.cycles / t.queries;
        derived["model.sojourn_p99_cycles." + path] = t.p99Sum / t.runs;
    }
    pass.layer.insert(derived.begin(), derived.end());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/** Median over @p passes of @p get. */
template <typename Get>
double
medianOf(const std::vector<Pass>& passes, Get get)
{
    std::vector<double> v;
    for (const Pass& p : passes)
        v.push_back(get(p));
    return median(v);
}

double
total(const std::map<std::string, double>& segs)
{
    double sum = 0.0;
    for (const auto& [key, ms] : segs)
        sum += ms;
    return sum;
}

/** Per key, the median over @p passes of the map @p get returns. */
template <typename Get>
std::map<std::string, double>
medianByKey(const std::vector<Pass>& passes, Get get)
{
    std::map<std::string, std::vector<double>> byKey;
    for (const Pass& p : passes)
        for (const auto& [key, v] : get(p))
            byKey[key].push_back(v);
    std::map<std::string, double> out;
    for (const auto& [key, v] : byKey)
        out[key] = median(v);
    return out;
}

std::string
unitOf(const std::string& name)
{
    if (name.find("_ms.") != std::string::npos ||
        name.rfind("self_ms.", 0) == 0)
        return "ms";
    if (name.rfind("sim.ns_per_event", 0) == 0)
        return "ns";
    if (name == "trace.overhead_pct")
        return "%";
    if (name == "qei.admission.shed_ratio" ||
        name.rfind("matrix.replay_ratio", 0) == 0 ||
        name.rfind("share.", 0) == 0)
        return "ratio";
    if (name.rfind("model.cycles_per_query", 0) == 0 ||
        name.rfind("model.sojourn", 0) == 0 ||
        name.rfind("model.breakdown", 0) == 0)
        return "cycles";
    return "count";
}

/**
 * The per-layer metrics the final JSON line carries: those every
 * workload measures. BENCHMARK.json's per_layer list mirrors it; the
 * full per-workload and per-path set is printed above the JSON line.
 */
std::vector<std::string>
jsonLayerMetrics()
{
    std::vector<std::string> names;
    for (const char* wl : {"dpdk", "rocksdb", "flann", "all"}) {
        for (const char* m :
             {"workloads.world_ms", "workloads.build_ms",
              "workloads.prepare_ms", "mem.warm_ms"})
            names.push_back(std::string(m) + "." + wl);
    }
    for (const char* path : {"b", "all"}) {
        for (const char* m :
             {"qei.run_ms", "sim.events", "sim.ns_per_event"})
            names.push_back(std::string(m) + "." + path);
    }
    names.push_back("trace.overhead_pct");
    for (const char* m :
         {"model.cycles_per_query.b", "model.sojourn_p99_cycles.b",
          "model.mem_accesses", "model.micro_ops", "model.qst_backoffs",
          "model.batch_line_hits"})
        names.push_back(m);
    for (const char* c :
         {"submit", "queue_wait", "cee_wait", "cee_exec", "translation",
          "memory", "dpu", "noc", "delivery", "response"})
        names.push_back(std::string("model.breakdown.") + c);
    return names;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char** argv)
{
    Bench b;
    b.opt = parseOptions(argc, argv);
    const Options& opt = b.opt;

    std::function<void(Bench&, Pass&)> untracedPass;
    std::function<void(Bench&, Pass&)> tracedPass;
    if (opt.workload == "paper-matrix") {
        untracedPass = paperMatrixPass;
        tracedPass = paperMatrixTracedPass;
    } else if (opt.workload == "long-closed") {
        untracedPass = tracedPass = longClosedPass;
    } else if (opt.workload == "serving") {
        untracedPass = tracedPass = servingPass;
    } else {
        usage(argv[0], "unknown workload " + opt.workload);
    }

    // Passes until --seconds are used: untraced only, or, with --trace
    // 1, an untraced pass paired with a traced one (the pair measures
    // the tracing overhead).
    constexpr int kMaxPasses = 64;
    std::vector<Pass> untraced;
    std::vector<Pass> traced;
    const auto runStart = Clock::now();
    double lastMs = 0.0;
    while (untraced.empty() ||
           (msSince(runStart) + lastMs <= opt.seconds * 1000.0 &&
            static_cast<int>(untraced.size()) < kMaxPasses)) {
        const auto passStart = Clock::now();
        Pass u;
        b.rec.setKeep(false);
        untracedPass(b, u);
        finishPass(u);
        untraced.push_back(std::move(u));
        if (opt.trace) {
            Pass t;
            const std::size_t firstSpan = b.rec.spans().size();
            b.rec.setKeep(true);
            tracedPass(b, t);
            b.rec.setKeep(false);
            finishPass(t);
            t.selfMs = b.rec.selfMs(firstSpan);
            traced.push_back(std::move(t));
        }
        const Pass& u0 = untraced.back();
        std::fprintf(stderr,
                     "pass %d: wall %.1f ms, setup %.1f ms, simulated "
                     "region %.1f ms, %llu jobs\n",
                     b.passIndex, u0.wallMs, total(u0.setupSegs),
                     total(u0.runSegs),
                     static_cast<unsigned long long>(u0.jobs));
        ++b.passIndex;
        lastMs = msSince(passStart);
    }

    // Every pass simulates the same inputs, so every simulated result
    // must repeat exactly, traced or not.
    std::vector<Pass*> all;
    for (Pass& p : untraced)
        all.push_back(&p);
    for (Pass& p : traced)
        all.push_back(&p);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const Pass& first = untraced.front();
    for (Pass* p : all) {
        for (const auto& [wl, runs] : p->results) {
            auto it = first.results.find(wl);
            if (it == first.results.end() || it->second != runs) {
                p->fail(p->jobs, fmt("{}: simulated results differ "
                                     "between passes",
                                     wl));
            }
        }
        attempted += p->attempted;
        failed += std::min(p->failed, p->attempted);
        for (const std::string& what : p->problems)
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    const bool correct = failed == 0;

    std::printf("perfbench workload=%s seed=%llu passes=%zu traced=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), untraced.size(),
                traced.size());
    {
        Digest whole;
        for (const auto& [wl, runs] : first.results) {
            Digest digest;
            for (const auto& [run, d] : runs) {
                digest.add(run);
                digest.add(d.hex());
            }
            std::printf("digest %s %s\n", wl.c_str(), digest.hex().c_str());
            whole.add(wl);
            whole.add(digest.hex());
        }
        std::printf("digest all %s\n", whole.hex().c_str());
    }
    for (const auto& [wl, digest] : first.inputs)
        std::printf("inputs %s %s\n", wl.c_str(), digest.hex().c_str());
    std::printf("fail_rate %s (%llu failed of %llu attempted)\n",
                num(attempted ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0)
                    .c_str(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    if (!opt.trace) {
        // Each figure sums per-segment medians; the glue between
        // segments is one more segment.
        const double wallS =
            (total(medianByKey(untraced,
                               [](const Pass& p) { return p.wallSegs; })) +
             medianOf(untraced,
                      [](const Pass& p) {
                          return p.wallMs - total(p.wallSegs);
                      })) /
            1000.0;
        const double setupS =
            total(medianByKey(untraced,
                              [](const Pass& p) { return p.setupSegs; })) /
            1000.0;
        const double runS =
            total(medianByKey(untraced,
                              [](const Pass& p) { return p.runSegs; })) /
            1000.0;
        const double qps =
            runS > 0.0 ? static_cast<double>(first.jobs) / runS : 0.0;
        metrics = {{"wall_s", {wallS, "s"}},
                   {"setup_s", {setupS, "s"}},
                   {"sim_qps", {qps, "1/s"}},
                   {"peak_rss_mb", {peakRssMb(), "MB"}}};
        for (const auto& [name, value] : metrics)
            std::printf("metric %s %s %s\n", name.c_str(),
                        num(value.first).c_str(), value.second.c_str());
    } else {
        // Every per-layer value, then the overhead and the shares the
        // layer map predicts.
        std::map<std::string, double> layer =
            medianByKey(traced, [](const Pass& p) { return p.layer; });
        // paper-matrix: runWorkloadMatrix's own cell times, against the
        // traced replay's.
        for (const auto& [name, v] :
             medianByKey(untraced, [](const Pass& p) { return p.layer; })) {
            if (name.rfind("matrix.cell_ms.", 0) != 0)
                continue;
            const std::string wl = name.substr(15);
            layer[name] = v;
            layer["matrix.replay_ratio." + wl] =
                v > 0.0 ? layer["matrix.replay_ms." + wl] / v : 0.0;
        }
        for (const auto& [l, v] :
             medianByKey(traced, [](const Pass& p) { return p.selfMs; }))
            layer["self_ms." + l] = v;
        const double untracedMs =
            medianOf(untraced, [](const Pass& p) { return p.wallMs; });
        const double tracedMs = medianOf(traced, [](const Pass& p) {
            return p.wallMs - p.probeMs;
        });
        layer["trace.overhead_pct"] =
            untracedMs > 0.0 ? 100.0 * (tracedMs - untracedMs) / untracedMs
                             : 0.0;
        if (layer.count("qei.admission.offered")) {
            const double offered = layer["qei.admission.offered"];
            layer["qei.admission.shed_ratio"] =
                offered > 0.0 ? layer["qei.admission.shed"] / offered
                              : 0.0;
        }
        layer["share.build_of_wall"] =
            untracedMs > 0.0
                ? layer["workloads.build_ms.all"] / untracedMs
                : 0.0;
        layer["share.qei_run_of_wall"] =
            untracedMs > 0.0 ? layer["qei.run_ms.all"] / untracedMs : 0.0;
        for (const auto& [name, v] : layer)
            std::printf("layer %s %s %s\n", name.c_str(), num(v).c_str(),
                        unitOf(name).c_str());
        for (const std::string& name : jsonLayerMetrics()) {
            auto it = layer.find(name);
            metrics.push_back(
                {name, {it == layer.end() ? 0.0 : it->second,
                        unitOf(name)}});
        }
        if (!opt.spansPath.empty() && !b.rec.write(opt.spansPath, opt)) {
            std::fprintf(stderr, "failed to write %s\n",
                         opt.spansPath.c_str());
            return 1;
        }
    }

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].first +
                "\": {\"value\": " + num(metrics[i].second.first) +
                ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
