/**
 * Ablation — overload resilience. abl_open_loop stops at the knee of
 * the p99-vs-load curve; this harness drives offered load to 2-4x the
 * saturation rate and asks the cloud-serving questions the paper's
 * closed-loop evaluation cannot: does admission control keep the
 * admitted-query tail bounded past saturation, does goodput plateau
 * instead of collapsing, does a tenant quota keep one bursty adversary
 * from starving the background tenants, and is the admitted set
 * bit-stable across shed-to-core degradation on/off?
 *
 * One workload (dpdk), one calibration run, then a cell matrix over
 * (offered load, tenants, admission policy, quota, degradation). All
 * cells share the workload seed, so the full-completion digests are
 * comparable across cells; paired cells (degrade on/off, adversary
 * open/guarded) also share the arrival seed, so their admission
 * decision streams are comparable arrival-for-arrival.
 *
 * Expectation bands are self-anchored (the paper has no overload
 * numbers): they assert the resilience shape — bounded tails, goodput
 * plateau, fairness in band, checksum identity — not absolute cycles.
 *
 * Usage: abl_overload [queries] — the optional positional argument
 * caps queries per cell (CI smoke runs use a reduced count).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "bench_util.hh"
#include "qei/admission.hh"
#include "traffic/traffic.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

struct OverloadCell
{
    const char* name;
    int loadPct; ///< offered load vs the calibrated service rate
    int tenants;
    AdmissionPolicy policy;
    bool degrade;      ///< shed-to-core degradation
    TenantShare share; ///< QST quota between tenants
    bool adversary;    ///< tenant 0 bursty at 5x the background rate
};

/**
 * The cell matrix. Loads are percentages of the calibrated
 * closed-loop service rate, so 200-400 is 2-4x past the knee (the
 * knee sits just below 100 by construction). Paired cells that gates
 * compare keep everything but the probed knob identical.
 */
const std::vector<OverloadCell> kCells{
    // No admission: the melt-down baseline (plain open loop).
    {"none-100", 100, 1, AdmissionPolicy::None, false,
     TenantShare::None, false},
    {"none-400", 400, 1, AdmissionPolicy::None, false,
     TenantShare::None, false},
    // Adaptive shedding + weighted quota: load sweep (shed = drop,
    // so cycles measure the admitted timeline and goodput is honest).
    {"adaptive-100", 100, 4, AdmissionPolicy::Adaptive, false,
     TenantShare::Weighted, false},
    {"adaptive-200", 200, 4, AdmissionPolicy::Adaptive, false,
     TenantShare::Weighted, false},
    {"adaptive-300", 300, 4, AdmissionPolicy::Adaptive, false,
     TenantShare::Weighted, false},
    {"adaptive-400", 400, 4, AdmissionPolicy::Adaptive, false,
     TenantShare::Weighted, false},
    // Same arrivals as adaptive-400, shed queries degraded to the
    // core-execute path instead of dropped: the admitted-set identity
    // pair, and the no-work-vanishes digest cell.
    {"adaptive-400-degrade", 400, 4, AdmissionPolicy::Adaptive, true,
     TenantShare::Weighted, false},
    // The other two policies at the deepest overload point.
    {"queue-400", 400, 4, AdmissionPolicy::QueueLimit, false,
     TenantShare::Weighted, false},
    {"token-400", 400, 4, AdmissionPolicy::TokenBucket, false,
     TenantShare::Weighted, false},
    // Tenant-count sweep at 2x: 1 and 16 tenants bracket the 4 above.
    {"adaptive-1t-200", 200, 1, AdmissionPolicy::Adaptive, true,
     TenantShare::None, false},
    {"adaptive-16t-200", 200, 16, AdmissionPolicy::Adaptive, true,
     TenantShare::Weighted, false},
    // Adversarial tenant 0 vs three Poisson backgrounds: open door
    // vs hard quota + per-tenant token bucket.
    {"adversary-open", 200, 4, AdmissionPolicy::None, false,
     TenantShare::None, true},
    {"adversary-guard", 200, 4, AdmissionPolicy::TokenBucket, false,
     TenantShare::Hard, true},
};

/** Admitted queries; legacy cells (no admission layer) admit all. */
std::uint64_t
admittedOf(const QeiRunStats& s)
{
    return s.admittedQueries > 0 || s.sheddedQueries > 0
               ? s.admittedQueries
               : s.queries;
}

/** Admitted queries per kilocycle. */
double
goodput(const QeiRunStats& s)
{
    return s.cycles > 0 ? 1024.0 * static_cast<double>(admittedOf(s)) /
                              static_cast<double>(s.cycles)
                        : 0.0;
}

/** Arrival source for one cell; paired cells share the seed. */
std::shared_ptr<traffic::TrafficSource>
makeTraffic(const OverloadCell& spec, double gap)
{
    if (!spec.adversary) {
        const double meanGap =
            gap * 100.0 / static_cast<double>(spec.loadPct);
        // Seeded by (load, tenants) so the degrade on/off pair — and
        // any other pair probing a post-arrival knob — sees the
        // identical timeline.
        const std::uint64_t seed =
            1000 + static_cast<std::uint64_t>(spec.loadPct) * 32 +
            static_cast<std::uint64_t>(spec.tenants);
        return std::make_shared<traffic::PoissonOpenLoop>(
            meanGap, seed, spec.tenants);
    }
    // Adversary mix at 200% total: tenant 0 offers 125% of the
    // service rate in bursts, tenants 1-3 offer 25% each as Poisson.
    // Weights match the rate ratio (5:1:1:1) so every stream spans
    // the same horizon.
    std::vector<traffic::TenantMix::Stream> streams;
    streams.push_back(
        {std::make_shared<traffic::Bursty>(gap / 1.25, 8.0, 1.0,
                                           /*seed=*/7),
         5.0});
    for (int t = 1; t < spec.tenants; ++t)
        streams.push_back(
            {std::make_shared<traffic::PoissonOpenLoop>(
                 gap * 4.0, /*seed=*/100 + static_cast<std::uint64_t>(t)),
             1.0});
    return std::make_shared<traffic::TenantMix>(std::move(streams));
}

/** Admission config for one cell. */
AdmissionConfig
makeAdmission(const OverloadCell& spec, double gap, double slo)
{
    AdmissionConfig adm;
    adm.policy = spec.policy;
    adm.degradeToCore = spec.degrade;
    adm.sloP99 = slo;
    // A short window reacts within ~16 completions of a breach; at
    // 4x offered load every completion of detection lag adds ~4
    // queued arrivals, so a 128-deep window would let the admitted
    // tail balloon to several x SLO before the first shed.
    adm.window = 64;
    adm.minSamples = 16;
    adm.recoverFraction = 0.7;
    adm.queueLimit = 48;
    // Fair share: each tenant may sustain 1/tenants of the service
    // rate (1/gap queries per cycle), with a small burst allowance.
    adm.tokensPerKCycle =
        1024.0 / (gap * static_cast<double>(spec.tenants));
    adm.bucketDepth = 8.0;
    return adm;
}

Json
tenantJson(const QeiRunStats::TenantSummary& t)
{
    Json one = Json::object();
    one["tenant"] = t.tenant;
    one["offered"] = t.offered;
    one["admitted"] = t.admitted;
    one["shed"] = t.shed;
    one["degraded"] = t.degraded;
    one["sojourn_p50"] = t.sojournP50;
    one["sojourn_p99"] = t.sojournP99;
    one["occupancy_mean"] = t.occupancyMean;
    return one;
}

/** max/min admitted-count ratio across tenants (1.0 when trivial). */
double
fairnessRatio(const QeiRunStats& stats)
{
    std::uint64_t lo = 0, hi = 0;
    for (const auto& t : stats.tenants) {
        if (lo == 0 || t.admitted < lo)
            lo = t.admitted;
        if (t.admitted > hi)
            hi = t.admitted;
    }
    return lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                  : (hi > 0 ? 1e9 : 1.0);
}

/** Mean background-tenant (id >= 1) sojourn p99. */
double
backgroundP99(const QeiRunStats& stats)
{
    double sum = 0.0;
    int n = 0;
    for (const auto& t : stats.tenants) {
        if (t.tenant == 0 || t.admitted == 0)
            continue;
        sum += t.sojournP99;
        ++n;
    }
    return n > 0 ? sum / n : 0.0;
}

/** One tenant's summary (zeros when absent). */
QeiRunStats::TenantSummary
tenantOf(const QeiRunStats& stats, int tenant)
{
    for (const auto& t : stats.tenants)
        if (t.tenant == tenant)
            return t;
    return {};
}

/** Admitted fraction of one tenant's offered load. */
double
admitFrac(const QeiRunStats& stats, int tenant)
{
    for (const auto& t : stats.tenants)
        if (t.tenant == tenant && t.offered > 0)
            return static_cast<double>(t.admitted) /
                   static_cast<double>(t.offered);
    return 0.0;
}

validate::Suite
expectations(const std::map<std::string, QeiRunStats>& cells)
{
    validate::Suite suite;
    suite.title = "Ablation — overload resilience";
    suite.preamble =
        "No paper counterpart: the paper evaluates back-to-back "
        "queries, so every gate is self-anchored. They assert the "
        "resilience shape an overload layer must show — admitted-"
        "query tails bounded past saturation, goodput plateau "
        "instead of collapse, per-tenant fairness in band, adversary "
        "containment under quota, and bit-stable admitted sets "
        "across degradation on/off.";
    const std::string kSelf =
        "self-anchored: asserts overload shape, no paper band";

    const QeiRunStats& a400 = cells.at("adaptive-400");
    const QeiRunStats& a400deg = cells.at("adaptive-400-degrade");
    const QeiRunStats& none400 = cells.at("none-400");

    // (1) Admitted p99 bounded past saturation: orders of magnitude
    // below the unprotected queue, and within a small multiple of
    // the SLO the Adaptive policy enforces.
    suite.expectations.push_back(Expectation::ordering(
        "adaptive-tail-bounded", "Sec. VII (ext.)",
        "admitted p99 at 4x load: Adaptive shedding far below the "
        "unprotected queue",
        "cells.adaptive-400.sojourn_p99", Relation::Lt,
        "cells.none-400.sojourn_p99", 0.0, kSelf));
    suite.expectations.push_back(Expectation::range(
        "adaptive-p99-near-slo", "Sec. VII (ext.)",
        "admitted p99 at 4x load bounded by the detection-lag "
        "multiple of the SLO",
        "summary.adaptive400_p99_over_slo", "x SLO", 0.0, 4.5, 0.1,
        "completion-fed breach detection lags one sojourn: at Mx "
        "offered load the admitted tail reaches ~Mx SLO before the "
        "first shed (docs/robustness.md)"));
    suite.expectations.push_back(Expectation::range(
        "adaptive-tail-flat-past-knee", "Sec. VII (ext.)",
        "admitted p99 grows sub-linearly from 2x to 4x load",
        "summary.adaptive_p99_400_over_200", "ratio", 0.0, 2.5, 0.2,
        kSelf));

    // (2) Goodput plateau: the admitted-query completion rate at 4x
    // load matches 3x (no collapse), and stays a healthy fraction of
    // the saturated service rate.
    suite.expectations.push_back(Expectation::range(
        "goodput-plateau", "Sec. VII (ext.)",
        "goodput at 4x load within band of 3x load",
        "summary.goodput_400_over_300", "ratio", 0.75, 1.30, 0.1,
        kSelf));
    suite.expectations.push_back(Expectation::range(
        "goodput-retained", "Sec. VII (ext.)",
        "goodput at 4x load retains most of the 1x service rate",
        "summary.goodput_400_over_100", "ratio", 0.55, 1.10, 0.15,
        kSelf));
    suite.expectations.push_back(Expectation::range(
        "shedding-active", "Sec. VII (ext.)",
        "Adaptive sheds a meaningful fraction at 4x load",
        "summary.shed_frac_adaptive400", "fraction", 0.05, 0.95, 0.1,
        kSelf));

    // (3) Fairness under equal offered load.
    suite.expectations.push_back(Expectation::range(
        "fairness-4-tenants", "Sec. VII (ext.)",
        "max/min admitted ratio across 4 equal tenants at 4x load",
        "summary.fairness_ratio_4t", "ratio", 1.0, 1.5, 0.15, kSelf));
    suite.expectations.push_back(Expectation::range(
        "fairness-16-tenants", "Sec. VII (ext.)",
        "max/min admitted ratio across 16 equal tenants at 2x load",
        "summary.fairness_ratio_16t", "ratio", 1.0, 2.5, 0.15,
        kSelf));

    // (4) Adversary containment. The open-door run already isolates
    // latency per tenant (each tenant has its own FIFO), so the
    // quota's job is QST occupancy: the adversary may not hog slots.
    suite.expectations.push_back(Expectation::ordering(
        "adversary-qst-capped", "Sec. VII (ext.)",
        "hard quota caps the adversary's mean QST occupancy far "
        "below its open-door hogging",
        "summary.adv_occ_guard", Relation::Lt,
        "summary.adv_occ_open", 0.0, kSelf));
    suite.expectations.push_back(Expectation::range(
        "adversary-qst-share", "Sec. VII (ext.)",
        "adversary occupancy under hard quota stays at its "
        "guaranteed share",
        "summary.adv_occ_guard", "slots", 0.0, 2.2, 0.15,
        "hard quota: 10-entry QST / 4 tenants = 2 guaranteed slots"));
    suite.expectations.push_back(Expectation::ordering(
        "adversary-isolated", "Sec. VII (ext.)",
        "background tenants see a lower p99 than the adversary "
        "under quota+tokens",
        "summary.bg_p99_guard", Relation::Lt,
        "summary.adv_p99_guard", 0.0, kSelf));
    suite.expectations.push_back(Expectation::ordering(
        "adversary-clipped", "Sec. VII (ext.)",
        "guard admits a larger fraction of background load than of "
        "the adversary's",
        "summary.bg_admit_frac_guard", Relation::Gt,
        "summary.adv_admit_frac_guard", 0.0, kSelf));

    // (5) Determinism / functional identity.
    suite.expectations.push_back(Expectation::shape(
        "admitted-set-stable-under-degradation", "Sec. IV (ext.)",
        "admitted-set checksum identical with shed-to-core "
        "degradation on vs off",
        a400.admittedChecksum == a400deg.admittedChecksum,
        fmt("degrade-off {} vs degrade-on {}", a400.admittedChecksum,
            a400deg.admittedChecksum),
        kSelf));
    suite.expectations.push_back(Expectation::shape(
        "degradation-completes-all-work", "Sec. IV (ext.)",
        "full-run checksum with degradation equals the "
        "admit-everything run (no offered work vanishes)",
        a400deg.resultChecksum == none400.resultChecksum,
        fmt("degraded {} vs unprotected {}", a400deg.resultChecksum,
            none400.resultChecksum),
        kSelf));
    suite.expectations.push_back(Expectation::exact(
        "no-mismatches", "Sec. IV",
        "functional correctness across every overload cell",
        "summary.mismatches", "queries", 0.0, kSelf));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    const std::size_t queries =
        capQueries(1200, parseQueryCap(options, argv[0]));
    BenchReport report("abl_overload", options);
    std::printf("=== Ablation: overload resilience ===\n");

    auto runCell = [&](World& world, const Prepared& prep,
                       const OverloadCell& spec, double gap,
                       double slo) {
        SchemeConfig scheme = SchemeConfig::coreIntegrated();
        scheme.tenantQuota.share = spec.share;
        DriverConfig config{scheme};
        config.withLabel(std::string("overload/") + spec.name)
            .withTraffic(makeTraffic(spec, gap));
        if (spec.policy != AdmissionPolicy::None)
            config.withAdmission(makeAdmission(spec, gap, slo));

        return runQei(world, prep, config);
    };

    // One dpdk row (seed 43, as abl_open_loop). Its prologue measures
    // the closed-loop saturation rate — the load sweep's anchor — and
    // runs the unprotected 1x-load cell, which doubles as the SLO
    // anchor: open-loop queueing inflates p99 well above the
    // closed-loop service time, so the SLO must come from a measured
    // light-load tail, not the service gap.
    struct Anchor
    {
        double gap = 0.0;
        double slo = 0.0;
        QeiRunStats base;
    };
    Sweep<QeiRunStats, Anchor> sweep;
    sweep.prologue([&](World& world, const PreparedRow& row) {
        Anchor anchor;
        anchor.gap = calibrateServiceGap(world, row);
        anchor.base =
            runCell(world, row.prepared, kCells[0], anchor.gap, 0.0);
        anchor.slo = 2.5 * anchor.base.sojourn.p99;
        return anchor;
    });
    const std::size_t row =
        sweep.row(workloadRow(makeWorkloadFactories()[0], queries, 43,
                              options.chip));
    for (std::size_t c = 1; c < kCells.size(); ++c) {
        sweep.cell(row, kCells[c].name,
                   [&, c](World& world, const PreparedRow& row,
                          const Anchor& anchor) {
                       return runCell(world, row.prepared, kCells[c],
                                      anchor.gap, anchor.slo);
                   });
    }
    std::vector<QeiRunStats> results = report.run(sweep);
    const Anchor& anchor = sweep.prologueOf(row);
    const double gap = anchor.gap;
    const double slo = anchor.slo;
    std::printf("calibrated service gap: %.1f cycles/query, 1x-load "
                "p99 = %.0f, adaptive SLO p99 = %.0f cycles\n",
                gap, anchor.base.sojourn.p99, slo);
    results.insert(results.begin(), anchor.base);

    std::map<std::string, QeiRunStats> cells;
    for (std::size_t c = 0; c < kCells.size(); ++c)
        cells[kCells[c].name] = results[c];

    TablePrinter table;
    table.header({"cell", "load", "tenants", "policy", "admitted",
                  "shed", "degraded", "sojourn p99", "goodput/kcyc"});
    Json cellsJson = Json::object();
    std::uint64_t mismatches = 0;
    for (std::size_t c = 0; c < kCells.size(); ++c) {
        const OverloadCell& spec = kCells[c];
        const QeiRunStats& s = results[c];
        mismatches += s.mismatches;
        const std::uint64_t admitted = admittedOf(s);
        table.row({spec.name, std::to_string(spec.loadPct) + "%",
                   std::to_string(spec.tenants),
                   toString(spec.policy),
                   std::to_string(admitted),
                   std::to_string(s.sheddedQueries),
                   std::to_string(s.degradedQueries),
                   TablePrinter::num(s.sojourn.p99),
                   TablePrinter::num(goodput(s))});

        Json cell = Json::object();
        cell["load_pct"] = spec.loadPct;
        cell["tenants"] = spec.tenants;
        cell["policy"] = toString(spec.policy);
        cell["quota"] = toString(spec.share);
        cell["degrade"] = spec.degrade;
        cell["queries"] = s.queries;
        cell["admitted"] = admitted;
        cell["shed"] = s.sheddedQueries;
        cell["degraded"] = s.degradedQueries;
        cell["cycles"] = s.cycles;
        cell["goodput_per_kcycle"] = goodput(s);
        cell["sojourn_p50"] = s.sojourn.p50;
        cell["sojourn_p99"] = s.sojourn.p99;
        cell["sojourn_p999"] = s.sojourn.p999;
        cell["queue_wait_p99"] = s.queueWait.p99;
        cell["mismatches"] = s.mismatches;
        cell["result_checksum"] = fmt("{}", s.resultChecksum);
        cell["admitted_checksum"] = fmt("{}", s.admittedChecksum);
        if (!s.tenants.empty()) {
            Json tenants = Json::array();
            for (const auto& t : s.tenants)
                tenants.push_back(tenantJson(t));
            cell["tenant"] = std::move(tenants);
        }
        cellsJson[spec.name] = std::move(cell);
    }
    table.print();
    report.data()["cells"] = std::move(cellsJson);

    const QeiRunStats& a100 = cells.at("adaptive-100");
    const QeiRunStats& a200 = cells.at("adaptive-200");
    const QeiRunStats& a300 = cells.at("adaptive-300");
    const QeiRunStats& a400 = cells.at("adaptive-400");
    Json summary = Json::object();
    summary["service_gap_cycles"] = gap;
    summary["slo_p99_cycles"] = slo;
    summary["queries_per_cell"] = queries;
    summary["mismatches"] = mismatches;
    summary["adaptive400_p99_over_slo"] =
        a400.sojourn.p99 / slo;
    summary["adaptive_p99_400_over_200"] =
        a200.sojourn.p99 > 0.0
            ? a400.sojourn.p99 / a200.sojourn.p99
            : 0.0;
    summary["goodput_400_over_300"] =
        goodput(a300) > 0.0 ? goodput(a400) / goodput(a300) : 0.0;
    summary["goodput_400_over_100"] =
        goodput(a100) > 0.0 ? goodput(a400) / goodput(a100) : 0.0;
    summary["shed_frac_adaptive400"] =
        a400.queries > 0
            ? static_cast<double>(a400.sheddedQueries) /
                  static_cast<double>(a400.queries)
            : 0.0;
    summary["fairness_ratio_4t"] = fairnessRatio(a400);
    summary["fairness_ratio_16t"] =
        fairnessRatio(cells.at("adaptive-16t-200"));
    const QeiRunStats& advOpen = cells.at("adversary-open");
    const QeiRunStats& advGuard = cells.at("adversary-guard");
    summary["bg_p99_open"] = backgroundP99(advOpen);
    summary["bg_p99_guard"] = backgroundP99(advGuard);
    summary["adv_p99_guard"] = tenantOf(advGuard, 0).sojournP99;
    summary["adv_occ_open"] = tenantOf(advOpen, 0).occupancyMean;
    summary["adv_occ_guard"] = tenantOf(advGuard, 0).occupancyMean;
    summary["adv_admit_frac_guard"] = admitFrac(advGuard, 0);
    summary["bg_admit_frac_guard"] =
        (admitFrac(advGuard, 1) + admitFrac(advGuard, 2) +
         admitFrac(advGuard, 3)) /
        3.0;
    report.data()["summary"] = std::move(summary);

    std::printf("resilience: Adaptive holds admitted p99 near the SLO "
                "at 4x load while goodput plateaus; the quota + token "
                "bucket contain the bursty adversary\n");

    report.setTable(table);
    report.setValidation(expectations(cells));
    return report.finish() ? 0 : 1;
}
