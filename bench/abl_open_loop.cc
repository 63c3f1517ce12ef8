/**
 * Ablation — open-loop serving latency. The paper evaluates QEI with
 * back-to-back queries (a closed loop); this harness asks the serving
 * question instead: with queries arriving as a seeded Poisson process
 * at a fraction of the accelerator's saturation rate, what do the
 * p50/p99/p999 sojourn times (queue-wait + service) look like?
 *
 * Each workload first calibrates its closed-loop service rate, then
 * offers load at 30/50/70/80/90% of that rate through
 * traffic::PoissonOpenLoop, and finally locates the knee of the
 * p99-vs-load curve (the largest slope break across the sweep).
 * Expectation bands are self-anchored: the paper has no open-loop
 * numbers, so the gates assert the queueing shape (tails grow with
 * load, percentiles are ordered, light load leaves the queue empty,
 * the knee sits at high load) rather than absolute cycles.
 *
 * Usage: abl_open_loop [queries] — the optional positional argument
 * caps queries per workload (CI smoke runs use a reduced count).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hh"
#include "traffic/traffic.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Offered load as a percentage of the calibrated service rate. */
const std::vector<int> kLoadsPct{30, 50, 70, 80, 90};

/** Knee of the p99-vs-load curve (largest slope break). */
struct Knee
{
    int loadPct = 0;       ///< 0 until detectKnee ran
    double p99 = 0.0;      ///< windowed at the knee point
    double slopeBreak = 0.0; ///< outgoing − incoming slope, cyc/load-%
};

/**
 * Find the load point where the p99 curve bends hardest: for each
 * interior point of the sweep, compare the outgoing and incoming
 * cycles-per-load-percent slopes and keep the largest increase. A
 * second-difference test is robust where slope *ratios* are not —
 * the low-load side of a queueing curve is nearly flat, so a ratio
 * would divide by almost zero.
 */
Knee
detectKnee(const std::vector<int>& loads,
           const std::vector<double>& p99)
{
    Knee best;
    for (std::size_t i = 1; i + 1 < loads.size(); ++i) {
        const double incoming =
            (p99[i] - p99[i - 1]) /
            static_cast<double>(loads[i] - loads[i - 1]);
        const double outgoing =
            (p99[i + 1] - p99[i]) /
            static_cast<double>(loads[i + 1] - loads[i]);
        const double slopeBreak = outgoing - incoming;
        if (best.loadPct == 0 || slopeBreak > best.slopeBreak) {
            best.loadPct = loads[i];
            best.p99 = p99[i];
            best.slopeBreak = slopeBreak;
        }
    }
    return best;
}

/** Mean inter-arrival gap offering @p load_pct% of the service rate
 *  whose closed-loop gap is @p service_gap. */
double
offeredGap(double service_gap, int load_pct)
{
    return service_gap * 100.0 / static_cast<double>(load_pct);
}

/** Self-anchored expectations: queueing shape, not absolute cycles. */
validate::Suite
paperExpectations(const std::map<std::string, Knee>& knees)
{
    validate::Suite suite;
    suite.title = "Ablation — open-loop serving latency";
    suite.preamble =
        "No paper counterpart: the paper evaluates back-to-back "
        "queries only, so these gates are self-anchored. They assert "
        "the queueing-theory shape any correct open-loop harness must "
        "show — sojourn tails grow with offered load, percentiles "
        "are ordered, and at 30% load the queue is essentially "
        "empty — plus functional correctness under Poisson arrivals.";
    const std::string kSelfAnchored =
        "self-anchored: asserts open-loop shape, no paper band";
    for (const char* w : {"dpdk", "jvm"}) {
        const std::string base = std::string(w) + ".";
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-p99-grows-with-load"), "Sec. VII (ext.)",
            std::string(w) +
                " p99 sojourn at 90% load exceeds 30% load",
            base + "[load_pct=90].sojourn_p99", Relation::Gt,
            base + "[load_pct=30].sojourn_p99", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-percentiles-ordered"), "Sec. VII (ext.)",
            std::string(w) + " p50 <= p99 at 90% load",
            base + "[load_pct=90].sojourn_p50", Relation::Le,
            base + "[load_pct=90].sojourn_p99", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::ordering(
            w + std::string("-light-load-queue-empty"),
            "Sec. VII (ext.)",
            std::string(w) +
                " queue-wait stays below service time at 30% load",
            base + "[load_pct=30].queue_wait_mean", Relation::Lt,
            base + "[load_pct=30].service_mean", 0.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            w + std::string("-no-mismatches"), "Sec. IV",
            std::string(w) +
                " functional correctness under Poisson arrivals",
            std::string(w) + "_summary.mismatches", "queries",
            0.0, kSelfAnchored));
        // Knee-of-curve gates: any correct open-loop sweep of a
        // queueing system bends in the upper half of the load range —
        // a knee at light load means the calibration (or the queue
        // model) is wrong. The band is self-anchored like the rest.
        suite.expectations.push_back(Expectation::range(
            w + std::string("-knee-in-band"), "Sec. VII (ext.)",
            std::string(w) + " detected p99 knee sits at high load",
            std::string(w) + "_summary.knee_load_pct", "% load",
            60.0, 90.0, 0.15, kSelfAnchored));
        const Knee& knee = knees.at(w);
        suite.expectations.push_back(Expectation::shape(
            w + std::string("-knee-detected"), "Sec. VII (ext.)",
            std::string(w) +
                " p99-vs-load curve is convex at the knee (positive "
                "slope break)",
            knee.slopeBreak > 0.0,
            fmt("knee at {}% load, slope break {:.2f} cycles/% ",
                knee.loadPct, knee.slopeBreak),
            kSelfAnchored));
    }
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    const std::size_t cap = parseQueryCap(options, argv[0]);
    BenchReport report("abl_open_loop", options);
    std::printf("=== Ablation: open-loop serving latency ===\n");

    const std::vector<std::string> names{"dpdk", "jvm"};

    // One row per workload; the prologue calibrates its closed-loop
    // service rate, and each cell offers a fraction of that rate.
    Sweep<QeiRunStats, double> sweep;
    sweep.prologue(calibrateServiceGap);
    const auto factories = makeWorkloadFactories();
    const std::vector<std::size_t> rows{
        sweep.row(workloadRow(factories[0], capQueries(1500, cap), 43,
                              options.chip)),
        sweep.row(workloadRow(factories[1], capQueries(800, cap), 42,
                              options.chip)),
    };
    for (std::size_t w = 0; w < rows.size(); ++w) {
        for (std::size_t l = 0; l < kLoadsPct.size(); ++l) {
            const std::string label =
                names[w] + "/load-" + std::to_string(kLoadsPct[l]);
            const std::uint64_t arrivalSeed =
                1000 + w * kLoadsPct.size() + l;
            sweep.cell(rows[w], label,
                       [label, arrivalSeed,
                        loadPct = kLoadsPct[l]](World& world,
                                                const PreparedRow& row,
                                                const double& gap) {
                           return runQei(
                               world, row.prepared,
                               DriverConfig(
                                   SchemeConfig::coreIntegrated())
                                   .withLabel(label)
                                   .withTraffic(std::make_shared<
                                                traffic::PoissonOpenLoop>(
                                       offeredGap(gap, loadPct),
                                       arrivalSeed)));
                       });
        }
    }
    const std::vector<QeiRunStats> results =
        report.run(sweep, !options.tracePath.empty());

    TablePrinter table;
    table.header({"workload", "load", "offered gap", "sojourn p50",
                  "sojourn p99", "sojourn p999", "queue-wait p99"});

    std::map<std::string, Knee> knees;
    for (std::size_t w = 0; w < names.size(); ++w) {
        const double gap = sweep.prologueOf(rows[w]);
        Json points = Json::array();
        std::uint64_t mismatches = 0;
        std::vector<double> p99s;
        for (std::size_t l = 0; l < kLoadsPct.size(); ++l) {
            const int loadPct = kLoadsPct[l];
            const double meanGap = offeredGap(gap, loadPct);
            const QeiRunStats& s = results[w * kLoadsPct.size() + l];
            p99s.push_back(s.sojourn.p99);
            table.row({names[w],
                       std::to_string(loadPct) + "%",
                       TablePrinter::num(meanGap),
                       TablePrinter::num(s.sojourn.p50),
                       TablePrinter::num(s.sojourn.p99),
                       TablePrinter::num(s.sojourn.p999),
                       TablePrinter::num(s.queueWait.p99)});

            Json p = Json::object();
            p["load_pct"] = loadPct;
            p["offered_gap_cycles"] = meanGap;
            p["sojourn_p50"] = s.sojourn.p50;
            p["sojourn_p99"] = s.sojourn.p99;
            p["sojourn_p999"] = s.sojourn.p999;
            p["sojourn_mean"] = s.sojourn.mean;
            p["queue_wait_p99"] = s.queueWait.p99;
            p["queue_wait_mean"] = s.queueWait.mean;
            p["service_p50"] = s.service.p50;
            p["service_mean"] = s.service.mean;
            p["cycles"] = s.cycles;
            points.push_back(std::move(p));
            mismatches += s.mismatches;
        }
        // The per-load points live directly under the workload name
        // so expectations address them as "<w>.[load_pct=90].<key>".
        report.data()[names[w]] = std::move(points);
        const Knee knee = detectKnee(kLoadsPct, p99s);
        knees[names[w]] = knee;
        Json summary = Json::object();
        summary["service_gap_cycles"] = gap;
        summary["mismatches"] = mismatches;
        summary["knee_load_pct"] = knee.loadPct;
        summary["knee_p99"] = knee.p99;
        summary["knee_slope_break"] = knee.slopeBreak;
        report.data()[names[w] + "_summary"] = std::move(summary);
        std::printf("%s: p99 knee at %d%% load (slope break %.2f "
                    "cycles per load-%%)\n",
                    names[w].c_str(), knee.loadPct,
                    knee.slopeBreak);
    }
    table.print();
    std::printf("tails: p99 sojourn grows with offered load while the "
                "service time stays flat — the queue, not the "
                "accelerator, sets the high-load latency\n");

    report.setTable(table);
    report.setValidation(paperExpectations(knees));
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
