/**
 * qei-validate — fold the `validation` blocks of a set of BENCH_*.json
 * artifacts into one suite-wide verdict, and (re)generate
 * EXPERIMENTS.md from the same metadata.
 *
 * Usage:
 *   qei-validate [options] BENCH_a.json BENCH_b.json ...
 *
 * Options:
 *   --emit-experiments PATH   write the generated EXPERIMENTS.md
 *   --check-experiments PATH  fail unless PATH is byte-identical to
 *                             the regeneration (the CI docs gate)
 *   --quiet                   suppress the per-bench summary table
 *
 * Exit code: 0 when every expectation in every artifact is PASS or
 * WARN and the optional --check-experiments comparison matches;
 * 1 otherwise (any FAIL, a missing/unparseable artifact or
 * validation block, two artifacts with the same `bench` name, or a
 * stale committed EXPERIMENTS.md).
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/table_printer.hh"
#include "validate/expectation.hh"
#include "validate/experiments.hh"

using qei::Json;
using qei::TablePrinter;

namespace {

bool
readFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    *out = text.str();
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string emitPath;
    std::string checkPath;
    bool quiet = false;
    std::vector<std::string> artifactPaths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--emit-experiments" && i + 1 < argc) {
            emitPath = argv[++i];
        } else if (arg == "--check-experiments" && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: qei-validate [--emit-experiments PATH] "
                "[--check-experiments PATH] [--quiet] "
                "ARTIFACT.json...\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "qei-validate: unknown option '%s'\n",
                         arg.c_str());
            return 1;
        } else {
            artifactPaths.push_back(arg);
        }
    }
    if (artifactPaths.empty()) {
        std::fprintf(stderr,
                     "qei-validate: no artifacts given (pass the "
                     "BENCH_*.json files produced by "
                     "scripts/run_benches.sh)\n");
        return 1;
    }

    bool ok = true;
    std::vector<Json> artifacts;
    // bench name -> the artifact that carried it first
    std::map<std::string, std::string> benchPaths;
    TablePrinter table("validation summary");
    table.header({"bench", "pass", "warn", "fail", "verdict"});
    int totalPass = 0;
    int totalWarn = 0;
    int totalFail = 0;
    for (const std::string& path : artifactPaths) {
        std::string text;
        if (!readFile(path, &text)) {
            std::fprintf(stderr, "qei-validate: cannot read %s\n",
                         path.c_str());
            ok = false;
            continue;
        }
        Json artifact;
        try {
            artifact = Json::parse(text);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "qei-validate: %s: %s\n", path.c_str(),
                         e.what());
            ok = false;
            continue;
        }
        const std::string bench = artifact.contains("bench")
                                      ? artifact.at("bench").asString()
                                      : path;
        // A second artifact of one bench (say, from a stale binary
        // left in a build tree) would render a duplicate section.
        const auto [first, fresh] = benchPaths.emplace(bench, path);
        if (!fresh) {
            std::fprintf(stderr,
                         "qei-validate: %s and %s both carry bench "
                         "'%s'\n",
                         first->second.c_str(), path.c_str(),
                         bench.c_str());
            ok = false;
            continue;
        }
        if (!artifact.contains("validation")) {
            table.row({bench, "-", "-", "-", "NO SUITE"});
            std::fprintf(stderr,
                         "qei-validate: %s has no validation block "
                         "(harness missing setValidation?)\n",
                         bench.c_str());
            ok = false;
            artifacts.push_back(std::move(artifact));
            continue;
        }
        const Json& block = artifact.at("validation");
        const Json& counts = block.at("counts");
        const int pass = static_cast<int>(counts.at("pass").asInt());
        const int warn = static_cast<int>(counts.at("warn").asInt());
        const int fail = static_cast<int>(counts.at("fail").asInt());
        totalPass += pass;
        totalWarn += warn;
        totalFail += fail;
        table.row({bench, std::to_string(pass), std::to_string(warn),
                   std::to_string(fail),
                   block.at("verdict").asString()});
        if (fail > 0)
            ok = false;
        artifacts.push_back(std::move(artifact));
    }
    if (!quiet) {
        table.print();
        std::printf("overall: %s (%d pass, %d warn, %d fail across %zu "
                    "artifacts)\n",
                    ok ? (totalWarn ? "PASS with warnings" : "PASS")
                       : "FAIL",
                    totalPass, totalWarn, totalFail, artifacts.size());
    }

    if (!emitPath.empty() || !checkPath.empty()) {
        const std::string rendered =
            qei::validate::renderExperiments(artifacts);
        if (!emitPath.empty()) {
            std::ofstream out(emitPath, std::ios::binary);
            out << rendered;
            if (!out) {
                std::fprintf(stderr,
                             "qei-validate: cannot write %s\n",
                             emitPath.c_str());
                ok = false;
            } else if (!quiet) {
                std::printf("wrote %s (%zu bytes)\n", emitPath.c_str(),
                            rendered.size());
            }
        }
        if (!checkPath.empty()) {
            std::string committed;
            if (!readFile(checkPath, &committed)) {
                std::fprintf(stderr,
                             "qei-validate: cannot read %s\n",
                             checkPath.c_str());
                ok = false;
            } else if (committed != rendered) {
                std::fprintf(
                    stderr,
                    "qei-validate: %s is stale (differs from the "
                    "regeneration; run scripts/run_benches.sh "
                    "--validate and copy BENCH_out/EXPERIMENTS.md "
                    "over it)\n",
                    checkPath.c_str());
                ok = false;
            } else if (!quiet) {
                std::printf("%s matches the regeneration\n",
                            checkPath.c_str());
            }
        }
    }
    return ok ? 0 : 1;
}
