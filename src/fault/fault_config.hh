/**
 * @file
 * Configuration for the deterministic fault-injection subsystem
 * (Sec. IV-D): which faults to inject into a run, at which query
 * indices or with which per-query probability, plus the
 * forward-progress watchdog parameters.
 *
 * The whole struct is plain data so it can ride inside ChipConfig and
 * cross thread boundaries with the usual "no shared mutable state"
 * World rules. Every decision derived from it is a pure function of
 * (seed, queryId), never of draw order, so injected runs stay
 * bit-identical at any host thread count.
 */

#ifndef QEI_FAULT_FAULT_CONFIG_HH
#define QEI_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace qei {

/** Everything the FaultInjector needs for one run. */
struct FaultConfig
{
    /** Seed for the per-query decision hash (independent of the
     *  workload seed, so the same fault pattern can be replayed over
     *  different data). */
    std::uint64_t seed = 0xFA17;

    // -- probabilistic injection, per query --
    double pageFaultRate = 0.0;     ///< unmapped VPN on the TLB path
    double badHeaderRate = 0.0;     ///< corrupted StructHeader
    double firmwareFaultRate = 0.0; ///< missing / trapping CFA program

    // -- targeted injection at explicit query indices --
    std::vector<std::uint64_t> pageFaultQueries;
    std::vector<std::uint64_t> badHeaderQueries;
    std::vector<std::uint64_t> firmwareFaultQueries;

    /** Interrupt-flush cadence in cycles; 0 disables the flusher. */
    Cycles flushPeriod = 0;

    /** Cap every accelerator's QST at this many entries (overflow /
     *  backpressure pressure); 0 keeps the scheme's sizing. */
    int qstEntriesOverride = 0;

    // -- forward-progress watchdog --
    /** Scheduler epoch length for the livelock check. */
    Cycles watchdogEpoch = 100000;
    /** Consecutive no-retirement epochs before the watchdog panics. */
    int watchdogStrikes = 8;

    /** True when any fault source is enabled. */
    bool
    any() const
    {
        return pageFaultRate > 0.0 || badHeaderRate > 0.0 ||
               firmwareFaultRate > 0.0 || !pageFaultQueries.empty() ||
               !badHeaderQueries.empty() ||
               !firmwareFaultQueries.empty() || flushPeriod > 0 ||
               qstEntriesOverride > 0;
    }

    bool operator==(const FaultConfig&) const = default;
};

/**
 * Parse a fault-mix spec like "pf=0.05,bh=0.01,flush=20000,qst=4".
 * Keys: `pf` / `bh` / `fw` (per-query rates in [0,1]), `pf@N` /
 * `bh@N` / `fw@N` (inject at query index N), `flush` (cycle cadence),
 * `qst` (QST-capacity override), `seed`, `epoch`, `strikes`
 * (watchdog). An empty spec returns a config with no faults.
 * Unknown keys or malformed values are a fatal() user error.
 */
FaultConfig parseFaultSpec(const std::string& spec);

/** parseFaultSpec for command lines: a malformed spec returns nothing
 *  and leaves the reason in @p error, so the caller can print usage. */
std::optional<FaultConfig> tryParseFaultSpec(const std::string& spec,
                                             std::string& error);

/** One-line human rendition of an injection mix ("pf=0.05 flush=20000"
 *  or "none"). */
std::string describeFaults(const FaultConfig& config);

} // namespace qei

#endif // QEI_FAULT_FAULT_CONFIG_HH
