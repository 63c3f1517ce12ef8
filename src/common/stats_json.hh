/**
 * @file
 * Machine-readable serialization of a StatsRegistry.
 *
 * The JSON layout is a flat object keyed by dotted stat path, which
 * keeps dumps trivially greppable and diffable:
 *
 *   {
 *     "system.accel0.queries": 2000,
 *     "system.accel0.qst.occupancy":
 *         {"kind": "scalar", "count": ..., "mean": ..., ...},
 *     "system.memory.llc_hit_rate": 0.934,
 *     ...
 *   }
 *
 * Counters and formulas serialize as bare numbers; scalars and
 * histograms as records. snapshot()/diff support dump-over-dump
 * comparisons (the BENCH_*.json artifacts), and
 * StatsRegistry::resetAll() handles reset-between-ROIs.
 */

#ifndef QEI_COMMON_STATS_JSON_HH
#define QEI_COMMON_STATS_JSON_HH

#include <map>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"

namespace qei {

/** The flat JSON document described above. */
Json statsToJson(const StatsRegistry& registry);

/** One histogram as a JSON record (also used per-entry by
 *  statsToJson). */
Json histogramToJson(const Histogram& h);

/** One scalar stat as a JSON record. */
Json scalarToJson(const ScalarStat& s);

/**
 * Point-in-time numeric capture of every registered stat (counter
 * value / scalar sum / histogram sample count / formula result),
 * for diffing a region of interest without resetting.
 */
using StatsSnapshot = std::map<std::string, double>;

StatsSnapshot statsSnapshot(const StatsRegistry& registry);

/**
 * Per-path delta of the registry's current values against @p before.
 * Paths absent from @p before diff against zero; formula entries
 * report their current value (rates do not subtract meaningfully).
 */
Json statsDiffJson(const StatsRegistry& registry,
                   const StatsSnapshot& before);

} // namespace qei

#endif // QEI_COMMON_STATS_JSON_HH
