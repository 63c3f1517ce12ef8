/**
 * @file
 * qei-calibrate: fit the offload planner's cost model from the fig07
 * artifact.
 *
 * Reads the fig07 speedup artifact (the per-workload cycles/query of
 * the software baseline and of every integration scheme). The fit has
 * one committed copy, the table in CostModel::builtin()
 * (src/qei/planner.cc), so the simulator needs no filesystem access
 * at run time.
 *
 *   qei-calibrate [--artifact BENCH_out/BENCH_fig07_speedup.json]
 *                 [--check]
 *
 * Without --check, the tool prints the fitted model as the body of
 * builtin()'s initializer, to paste over the old one. With --check, it
 * diffs the fit against builtin() (tolerance 1e-3 cycles/query) and
 * exits 1 on any drift, which is what CI runs.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "qei/planner.hh"

namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "qei-calibrate: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Fit the model from the fig07 artifact's cycles/query numbers. */
qei::CostModel
fitFromArtifact(const qei::Json& doc)
{
    qei::CostModel model;
    const qei::Json* workloads = doc.find("workloads");
    if (workloads == nullptr || !workloads->isArray()) {
        std::fprintf(stderr,
                     "qei-calibrate: artifact has no 'workloads' "
                     "array (is this BENCH_fig07_speedup.json?)\n");
        std::exit(2);
    }
    for (const qei::Json& w : workloads->elements()) {
        qei::CostModel::WorkloadCosts costs;
        costs.core = w.at("baseline")
                         .at("cycles_per_query")
                         .asDouble();
        for (const auto& [scheme, stats] : w.at("schemes").items())
            costs.schemes[scheme] =
                stats.at("cycles_per_query").asDouble();
        model.set(w.at("workload").asString(), std::move(costs));
    }
    return model;
}

/** Max absolute cycles/query difference between two models. */
double
modelDelta(const qei::CostModel& a, const qei::CostModel& b)
{
    double worst = 0.0;
    auto fold = [&](const qei::CostModel& x, const qei::CostModel& y) {
        for (const auto& [name, costs] : x.workloads()) {
            worst = std::max(
                worst, std::abs(costs.core - y.coreCost(name)));
            for (const auto& [scheme, cycles] : costs.schemes) {
                worst = std::max(
                    worst,
                    std::abs(cycles - y.schemeCost(name, scheme)));
            }
        }
    };
    fold(a, b);
    fold(b, a); // catches workloads/schemes present on one side only
    return worst;
}

/** Print @p model as the body of CostModel::builtin()'s initializer. */
void
printInitializer(const qei::CostModel& model)
{
    for (const auto& [name, costs] : model.workloads()) {
        std::printf("        m.set(\"%s\",\n              {%.4f,\n",
                    name.c_str(), costs.core);
        const char* sep = "               {{";
        for (const auto& [scheme, cycles] : costs.schemes) {
            std::printf("%s\"%s\", %.4f}", sep, scheme.c_str(), cycles);
            sep = ",\n                {";
        }
        std::printf("}});\n");
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string artifactPath = "BENCH_out/BENCH_fig07_speedup.json";
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--artifact") == 0 && i + 1 < argc) {
            artifactPath = argv[++i];
        } else if (std::strcmp(arg, "--check") == 0) {
            check = true;
        } else {
            std::fprintf(stderr,
                         "usage: qei-calibrate [--artifact <fig07 "
                         "json>] [--check]\n");
            return 2;
        }
    }

    const qei::Json artifact =
        qei::Json::parse(readFile(artifactPath));
    const qei::CostModel fitted = fitFromArtifact(artifact);

    if (!check) {
        printInitializer(fitted);
        return 0;
    }
    constexpr double kTolerance = 1e-3;
    const double delta = modelDelta(fitted, qei::CostModel::builtin());
    if (delta > kTolerance) {
        std::fprintf(stderr,
                     "CostModel::builtin() drifted from %s by %.4f "
                     "cycles/query: re-run qei-calibrate and paste its "
                     "output into src/qei/planner.cc\n",
                     artifactPath.c_str(), delta);
        return 1;
    }
    std::printf("cost model in sync: builtin == %s (tolerance %.0e)\n",
                artifactPath.c_str(), kTolerance);
    return 0;
}
