/**
 * Ablation — QUERY_BATCH batched query execution. The paper submits
 * one QUERY instruction per key; this harness asks what batching buys:
 * a QUERY_BATCH descriptor carries a vector of keys, pays one issue +
 * submit + QST-admission decision for all of them, and lets the
 * accelerator coalesce header and structure-level line fetches across
 * the batch's in-flight members (level-wise traversal batching). The
 * driver-side reorderer groups pending jobs by target structure and
 * key locality first, so batch members actually share lines.
 *
 * Sweep: workload x batch size {1, 8, 32}, core-integrated scheme.
 * batch=1 runs the untouched scalar path and anchors the speedups.
 * Expectation bands are self-anchored (the paper has no batching
 * numbers): batch=32 must beat scalar by >= 1.5x on rocksdb, snort,
 * and flann (shared skip-list towers / trie prefixes / probe-table
 * headers), batched results must be bit-identical to scalar per query
 * (result_checksum), and coalescing must cut timed memory accesses
 * per query on the level-reuse traversals.
 *
 * Usage: abl_batch [queries] — the optional positional argument caps
 * queries per workload (CI smoke runs use a reduced count).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;
using validate::Relation;

const std::vector<int> kBatchSizes{1, 8, 32};

/** Self-anchored expectations: amortization shape + bit-identity. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Ablation — QUERY_BATCH batched execution";
    suite.preamble =
        "No paper counterpart: the paper submits one QUERY per key, "
        "so these gates are self-anchored. They assert what batching "
        "must deliver to be worth an ISA extension — >= 1.5x "
        "closed-loop throughput over the scalar path at batch 32 on "
        "rocksdb, snort, and flann, strictly fewer timed memory "
        "accesses per query on the level-reuse traversals (the "
        "coalescing is real, not just overlap), and per-query results "
        "bit-identical to scalar (order-independent result_checksum).";
    const std::string kSelfAnchored =
        "self-anchored: asserts batching shape, no paper band";

    // Calibrated on the default query counts (seed in main); the hi
    // edges leave headroom over the measured speedups (rocksdb 2.5x,
    // flann 2.1x, snort 1.8x).
    struct Band
    {
        const char* name;
        double lo, hi;
    };
    const std::vector<Band> bands{
        {"rocksdb", 1.5, 8.0},
        {"snort", 1.5, 8.0},
        {"flann", 1.5, 8.0},
    };
    for (const Band& b : bands) {
        const std::string base = std::string(b.name) + ".";
        suite.expectations.push_back(Expectation::range(
            std::string(b.name) + "-batch32-speedup", "Sec. IV (ext.)",
            std::string(b.name) +
                " QUERY_BATCH(32) throughput vs scalar QEI",
            base + "[batch=32].speedup_vs_scalar", "x", b.lo, b.hi,
            0.15, kSelfAnchored));
    }
    // Level-wise coalescing must cut timed memory traffic on the
    // level-reuse traversals (flann's win is header amortization
    // across its probe tables, not shared levels, so it is exempt).
    for (const char* w : {"jvm", "rocksdb", "snort"}) {
        const std::string base = std::string(w) + ".";
        suite.expectations.push_back(Expectation::ordering(
            std::string(w) + "-batch32-fewer-mem-accesses",
            "Sec. IV (ext.)",
            std::string(w) +
                " level-wise coalescing cuts timed memory accesses",
            base + "[batch=32].mem_accesses_per_query", Relation::Lt,
            base + "[batch=1].mem_accesses_per_query", 0.0,
            kSelfAnchored));
    }
    // jvm's binary tree only shares the top log2(batch) of ~21
    // levels, so its coalescing ceiling is structural (~1.2x); the
    // band just pins a real but modest win.
    suite.expectations.push_back(Expectation::range(
        "jvm-batch32-speedup", "Sec. IV (ext.)",
        "jvm QUERY_BATCH(32) modest win (shallow shared prefix)",
        "jvm.[batch=32].speedup_vs_scalar", "x", 1.1, 4.0, 0.10,
        kSelfAnchored));
    // Cuckoo hashing has no shared levels (both candidate buckets are
    // hash-scattered): batching amortizes issue/submit/admission only,
    // so the gate just demands it never loses to scalar.
    suite.expectations.push_back(Expectation::range(
        "dpdk-batch32-no-regression", "Sec. IV (ext.)",
        "dpdk QUERY_BATCH(32) at least matches scalar QEI "
        "(header-only amortization)",
        "dpdk.[batch=32].speedup_vs_scalar", "x", 1.0, 4.0, 0.10,
        kSelfAnchored));

    for (const char* w : {"dpdk", "jvm", "rocksdb", "snort", "flann"}) {
        suite.expectations.push_back(Expectation::exact(
            std::string(w) + "-checksum-identical", "Sec. IV (ext.)",
            std::string(w) +
                " batched result_checksum matches scalar at every "
                "batch size",
            std::string(w) + "_summary.checksum_matches_all", "bool",
            1.0, kSelfAnchored));
        suite.expectations.push_back(Expectation::exact(
            std::string(w) + "-no-mismatches", "Sec. IV",
            std::string(w) +
                " functional correctness across the batch sweep",
            std::string(w) + "_summary.mismatches", "queries", 0.0,
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
    BenchReport report("abl_batch", options);
    std::printf("=== Ablation: QUERY_BATCH batched execution ===\n");

    const std::vector<std::string> names{"dpdk", "jvm", "rocksdb",
                                         "snort", "flann"};
    const std::vector<std::size_t> queries{1536, 1024, 512, 256, 512};

    // One row per workload, one cell per batch size; batch=1 is the
    // untouched scalar path.
    Sweep<QeiRunStats> sweep;
    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::size_t row = sweep.row(
            workloadRow(makeWorkloadFactories()[w],
                        capQueries(queries[w], cap), 42, options.chip));
        for (const int batchSize : kBatchSizes) {
            DriverConfig config(SchemeConfig::coreIntegrated());
            if (batchSize > 1) {
                config.withBatch(BatchConfig{
                    batchSize, BatchReorder::ByKeyLocality, true});
            }
            sweep.cell(row, names[w] + "/batch-" + std::to_string(batchSize),
                       config);
        }
    }
    const std::vector<QeiRunStats> results =
        sweep.run(options.threads, !options.tracePath.empty());

    TablePrinter table;
    table.header({"workload", "batch", "cyc/query", "speedup",
                  "mem/query", "hdr hits", "line hits", "checksum"});

    for (std::size_t w = 0; w < names.size(); ++w) {
        const QeiRunStats& scalar =
            results[w * kBatchSizes.size()]; // batch=1 cell
        Json points = Json::array();
        std::uint64_t mismatches = 0;
        bool checksumsMatch = true;
        for (std::size_t b = 0; b < kBatchSizes.size(); ++b) {
            const int batchSize = kBatchSizes[b];
            const QeiRunStats& s = results[w * kBatchSizes.size() + b];
            const double speedup =
                s.cycles ? static_cast<double>(scalar.cycles) /
                               static_cast<double>(s.cycles)
                         : 0.0;
            const double memPerQuery =
                s.queries ? static_cast<double>(s.memAccesses) /
                                static_cast<double>(s.queries)
                          : 0.0;
            const bool checksumOk =
                s.resultChecksum == scalar.resultChecksum;
            checksumsMatch = checksumsMatch && checksumOk;
            mismatches += s.mismatches;

            table.row({names[w], std::to_string(batchSize),
                       TablePrinter::num(s.cyclesPerQuery()),
                       TablePrinter::num(speedup),
                       TablePrinter::num(memPerQuery),
                       std::to_string(s.batchHeaderHits),
                       std::to_string(s.batchLineHits),
                       checksumOk ? "ok" : "MISMATCH"});

            Json p = Json::object();
            p["batch"] = batchSize;
            p["cycles"] = s.cycles;
            p["cycles_per_query"] = s.cyclesPerQuery();
            p["speedup_vs_scalar"] = speedup;
            p["mem_accesses_per_query"] = memPerQuery;
            p["core_instructions"] = s.coreInstructions;
            p["batches"] = s.batches;
            p["admission_backoffs"] = s.batchBackoffs;
            p["header_hits"] = s.batchHeaderHits;
            p["line_hits"] = s.batchLineHits;
            p["checksum_matches_scalar"] = checksumOk ? 1 : 0;
            points.push_back(std::move(p));
        }
        // Points live directly under the workload name so
        // expectations address them as "<w>.[batch=32].<key>".
        report.data()[names[w]] = std::move(points);
        Json summary = Json::object();
        summary["scalar_cycles_per_query"] = scalar.cyclesPerQuery();
        summary["checksum_matches_all"] = checksumsMatch ? 1 : 0;
        summary["mismatches"] = mismatches;
        report.data()[names[w] + "_summary"] = std::move(summary);
    }
    table.print();
    std::printf(
        "batching: one descriptor amortizes issue/submit/admission "
        "and the in-flight window shares header + level lines — the "
        "speedup is amortization, not different answers (checksums "
        "match scalar)\n");

    report.setTable(table);
    report.setValidation(paperExpectations());
    const bool traceOk = sweep.writeTrace(options.tracePath);
    return report.finish() && traceOk ? 0 : 1;
}
