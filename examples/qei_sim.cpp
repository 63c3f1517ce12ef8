/**
 * qei_sim: command-line experiment driver. Runs any paper workload
 * against any integration scheme with configurable query counts,
 * modes and seeds — the entry point for exploring the design space
 * beyond the canned figures. Every run goes through runQei(), like
 * every harness cell; --verbose prints each run's stats dump.
 *
 *   qei_sim [--workload dpdk|jvm|rocksdb|snort|flann]
 *           [--scheme cha-tlb|cha-notlb|device-direct|
 *                     device-indirect|core-integrated|all]
 *           [--queries N] [--mode b|nb] [--cores N] [--seed N]
 *           [--poll-batch N] [--verbose]
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads/workload.hh"

using namespace qei;

namespace {

struct Options
{
    std::string workload = "dpdk";
    std::string scheme = "all";
    std::size_t queries = 0; // 0 = workload default
    QueryMode mode = QueryMode::Blocking;
    int cores = 1;
    std::uint64_t seed = 42;
    int pollBatch = 32;
    bool verbose = false;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload dpdk|jvm|rocksdb|snort|flann]\n"
        "          [--scheme cha-tlb|cha-notlb|device-direct|\n"
        "                    device-indirect|core-integrated|all]\n"
        "          [--queries N] [--mode b|nb] [--cores N]\n"
        "          [--seed N] [--poll-batch N] [--verbose]\n"
        "  (--cores is at most %d; --mode nb runs on one core)\n",
        argv0, ChipConfig{}.memory.cores);
    std::exit(2);
}

Options
parse(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        // A typo must not silently run the default.
        auto count = [&](std::uint64_t min, std::uint64_t max) {
            const char* text = value();
            char* end = nullptr;
            errno = 0;
            const std::uint64_t n = std::strtoull(text, &end, 10);
            if (!std::isdigit(static_cast<unsigned char>(*text)) ||
                *end != '\0' || errno != 0 || n < min || n > max)
                usage(argv[0]);
            return n;
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--scheme") {
            opt.scheme = value();
        } else if (arg == "--queries") {
            opt.queries = count(0, UINT64_MAX);
        } else if (arg == "--mode") {
            const std::string m = value();
            if (m == "b") {
                opt.mode = QueryMode::Blocking;
            } else if (m == "nb") {
                opt.mode = QueryMode::NonBlocking;
            } else {
                usage(argv[0]);
            }
        } else if (arg == "--cores") {
            opt.cores = static_cast<int>(
                count(1, static_cast<std::uint64_t>(
                             ChipConfig{}.memory.cores)));
        } else if (arg == "--seed") {
            opt.seed = count(0, UINT64_MAX);
        } else if (arg == "--poll-batch") {
            opt.pollBatch = static_cast<int>(count(1, INT_MAX));
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            usage(argv[0]);
        }
    }
    // Several issuing cores need QUERY_B (drive() rejects the rest).
    if (opt.cores > 1 && opt.mode != QueryMode::Blocking)
        usage(argv[0]);
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    if (opt.verbose)
        setLogLevel(LogLevel::Info);

    // CLI scheme names are the lower-cased SchemeConfig names.
    std::vector<SchemeConfig> schemes;
    for (const SchemeConfig& scheme : SchemeConfig::allSchemes()) {
        std::string name = scheme.name();
        for (char& c : name)
            c = static_cast<char>(std::tolower(c));
        if (opt.scheme == "all" || opt.scheme == name)
            schemes.push_back(scheme);
    }
    if (schemes.empty())
        fatal("unknown scheme '{}'", opt.scheme);

    std::unique_ptr<Workload> workload;
    for (auto& w : makeAllWorkloads()) {
        if (w->name() == opt.workload)
            workload = std::move(w);
    }
    if (!workload)
        fatal("unknown workload '{}'", opt.workload);

    World world(opt.seed);
    std::printf("building %s ...\n", workload->description().c_str());
    workload->build(world);
    const std::size_t n =
        opt.queries ? opt.queries : workload->defaultQueries();
    const Prepared prep = workload->prepare(world, n);
    std::printf("%zu queries prepared (seed %llu)\n\n",
                prep.jobs.size(),
                static_cast<unsigned long long>(opt.seed));

    const CoreRunResult baseline = runBaseline(world, prep);
    std::printf("%-18s %10.1f cyc/q   %8.0f instr/q   ipc %.2f\n",
                "software", baseline.cyclesPerQuery(),
                static_cast<double>(baseline.instructions) /
                    static_cast<double>(baseline.queries),
                baseline.ipc());

    for (const auto& scheme : schemes) {
        std::string statsJson;
        const QeiRunStats stats =
            runQei(world, prep,
                   DriverConfig(scheme)
                       .withMode(opt.mode)
                       .withPollBatch(opt.pollBatch)
                       .withCores(opt.cores)
                       .captureStats(&statsJson));
        if (opt.verbose)
            std::printf("%s\n", statsJson.c_str());
        std::printf("%-18s %10.1f cyc/q   %6.2fx   occ %4.1f   "
                    "mem/q %.1f   mismatches %llu\n",
                    scheme.name().c_str(), stats.cyclesPerQuery(),
                    speedupOf(baseline, stats),
                    stats.avgQstOccupancy,
                    static_cast<double>(stats.memAccesses) /
                        static_cast<double>(stats.queries),
                    static_cast<unsigned long long>(stats.mismatches));
    }
    return 0;
}
