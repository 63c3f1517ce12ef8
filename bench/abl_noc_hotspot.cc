/**
 * Ablation — NoC hotspot pressure: peak and mean link utilisation of
 * the distributed schemes versus the centralised device schemes under
 * a deep non-blocking load (Sec. V: "each QEI accelerator can
 * saturate as much as 8% of the mesh NoC bandwidth" and a centralised
 * stop concentrates it).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

/** Paper expectations for the NoC hotspot ablation. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — NoC hotspot under non-blocking flood";
    suite.preamble =
        "Quantifies the Sec. V hotspot argument: the single-stop "
        "Device schemes concentrate traffic on the links around "
        "the device tile (peak far above mean), while the "
        "distributed CHA and Core-integrated schemes spread the "
        "same load across the mesh.";
    suite.expectations.push_back(Expectation::range(
        "device-direct-peak", "Sec. V",
        "Device-direct peak link utilisation under flood",
        "schemes.[scheme=Device-direct].peak_link_utilisation", "%",
        0.60, 0.95, 0.15));
    suite.expectations.push_back(Expectation::range(
        "cha-tlb-peak", "Sec. V",
        "CHA-TLB peak link utilisation stays modest",
        "schemes.[scheme=CHA-TLB].peak_link_utilisation", "%", 0.10,
        0.40, 0.20));
    suite.expectations.push_back(Expectation::ordering(
        "device-concentrates", "Sec. V",
        "the centralised device stop concentrates traffic versus "
        "the distributed CHA scheme",
        "schemes.[scheme=Device-direct].peak_link_utilisation",
        Relation::Gt,
        "schemes.[scheme=CHA-TLB].peak_link_utilisation"));
    suite.expectations.push_back(Expectation::ordering(
        "device-peak-vs-mean", "Sec. V",
        "Device-direct peak utilisation dwarfs its mean (a true "
        "hotspot, not uniform load)",
        "schemes.[scheme=Device-direct].peak_link_utilisation",
        Relation::Gt,
        "schemes.[scheme=Device-direct].mean_link_utilisation",
        -0.80));
    suite.expectations.push_back(Expectation::ordering(
        "core-int-spreads", "Sec. V",
        "Core-integrated also avoids the device hotspot",
        "schemes.[scheme=Core-integrated].peak_link_utilisation",
        Relation::Lt,
        "schemes.[scheme=Device-direct].peak_link_utilisation"));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    BenchReport report("abl_noc_hotspot", options);
    std::printf("=== Ablation: NoC hotspot (non-blocking flood) ===\n");

    TablePrinter table;
    table.header({"scheme", "peak link util", "mean link util",
                  "NoC bytes/query"});

    // One jvm row; one non-blocking flood cell per scheme, read off the
    // mesh it leaves behind.
    struct Hotspot
    {
        double peak, mean, bytesPerQuery;
    };
    const auto allSchemes = SchemeConfig::allSchemes();
    Sweep<Hotspot> sweep;
    const std::size_t jvm =
        sweep.row(workloadRow(makeWorkloadFactories()[1], 1200, 42,
                              options.chip));
    for (const SchemeConfig& scheme : allSchemes) {
        sweep.cell(jvm, "jvm/" + scheme.name(),
                   [scheme](World& world, const PreparedRow& row,
                            const auto&) {
                       const QeiRunStats stats = runQei(
                           world, row.prepared,
                           DriverConfig(scheme)
                               .withMode(QueryMode::NonBlocking)
                               .withPollBatch(120));
                       const Mesh& mesh = world.hierarchy.mesh();
                       return Hotspot{
                           mesh.peakLinkUtilisation(),
                           mesh.meanLinkUtilisation(),
                           static_cast<double>(mesh.totalBytes()) /
                               static_cast<double>(stats.queries)};
                   });
    }
    const std::vector<Hotspot> results =
        report.run(sweep, !options.tracePath.empty());

    Json schemes = Json::array();
    for (std::size_t i = 0; i < allSchemes.size(); ++i) {
        const Hotspot& h = results[i];
        table.row({allSchemes[i].name(), TablePrinter::percent(h.peak),
                   TablePrinter::percent(h.mean),
                   TablePrinter::num(h.bytesPerQuery, 0)});
        Json s = Json::object();
        s["scheme"] = allSchemes[i].name();
        s["peak_link_utilisation"] = h.peak;
        s["mean_link_utilisation"] = h.mean;
        s["noc_bytes_per_query"] = h.bytesPerQuery;
        schemes.push_back(std::move(s));
    }
    table.print();
    std::printf("expectation: the single-stop Device schemes "
                "concentrate traffic (peak >> mean); the distributed "
                "schemes spread it\n");

    report.data()["schemes"] = std::move(schemes);
    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
