/**
 * @file
 * Admission control and multi-tenant fairness: the overload-resilience
 * layer between the TrafficSource and the QeiSystem.
 *
 * A cloud front-end must decide *whether to admit* a query before the
 * topology decides *where to run* it. The AdmissionController sits on
 * the Driver's open-loop issue path ("system.admission" in the stats
 * tree) and applies one of four pluggable policies per arrival:
 *
 *  - None:       admit everything (today's behaviour; the controller
 *                is not even constructed, so single-tenant artifacts
 *                stay byte-identical).
 *  - QueueLimit: bounded software pending queue with deterministic
 *                tail-drop — arrivals that would push the pending
 *                depth past the limit are shed.
 *  - TokenBucket: per-tenant rate limit — each tenant accrues tokens
 *                at a configured rate (clamped to a burst depth) and
 *                an arrival without a whole token is shed.
 *  - Adaptive:   SLO-driven shedding — a sliding window over admitted
 *                sojourns (the same windowed-p99 machinery as the
 *                metrics TailMonitor) sheds while the windowed p99
 *                breaches the SLO and recovers with hysteresis once
 *                it falls below recoverFraction * SLO.
 *
 * Shed queries are either dropped or — with degradeToCore — executed
 * on a core via the planner's core-execute path (PR 9), charged to the
 * SwFallback latency component: offered work then completes at reduced
 * speed instead of vanishing. The shed/degrade decision is a pure
 * function of admission state, never of the fault injector, so the
 * (seed, queryId) fault decision streams stay stable whether or not a
 * query is shed.
 *
 * Determinism: every policy is driven only by simulated time, arrival
 * order, and admitted-completion order — all of which are identical at
 * any --threads — so admission decisions (and hence the admitted-set
 * checksum) are bit-stable.
 */

#ifndef QEI_QEI_ADMISSION_HH
#define QEI_QEI_ADMISSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "metrics/metrics.hh"
#include "qei/scheme.hh"

namespace qei {

/** The pluggable admission policies. */
enum class AdmissionPolicy : std::uint8_t {
    None = 0,    ///< admit everything (historical behaviour)
    QueueLimit,  ///< bounded pending queue, deterministic tail drop
    TokenBucket, ///< per-tenant token-bucket rate limit
    Adaptive,    ///< shed while windowed sojourn p99 breaches the SLO
};

/** Stable lower-case name ("none", "queue-limit", ...). */
const char* toString(AdmissionPolicy policy);

/** Stable lower-case name ("none", "hard", "weighted"). */
const char* toString(TenantShare share);

/** Parameters of the admission layer (DriverConfig::admission). */
struct AdmissionConfig
{
    AdmissionPolicy policy = AdmissionPolicy::None;

    /** QueueLimit: pending arrivals allowed to wait for issue. */
    std::size_t queueLimit = 64;

    /** TokenBucket: tokens a tenant accrues per 1024 cycles. */
    double tokensPerKCycle = 8.0;
    /** TokenBucket: burst depth (bucket capacity, tokens). */
    double bucketDepth = 16.0;

    /** Adaptive: windowed-p99 SLO on admitted sojourn (cycles). */
    double sloP99 = 0.0;
    /** Adaptive: recover once p99 <= recoverFraction * sloP99. */
    double recoverFraction = 0.7;
    /** Adaptive: sliding-window capacity (admitted completions). */
    std::size_t window = 128;
    /** Adaptive: completions required before the window is trusted. */
    std::size_t minSamples = 32;

    /**
     * Shed queries degrade to the planner's core-execute path
     * (charged to SwFallback) instead of being dropped.
     */
    bool degradeToCore = false;

    bool active() const { return policy != AdmissionPolicy::None; }
};

/**
 * The admission controller itself: one per run, adopted into the
 * system tree as "system.admission" by runQei when the configured
 * policy is not None. The open-loop issue engine consults decide() per
 * arrival and feeds onAdmittedCompletion() per admitted retire.
 */
class AdmissionController : public SimObject
{
  public:
    explicit AdmissionController(AdmissionConfig config);

    void regStats(StatsRegistry& registry) override;

    const AdmissionConfig& config() const { return config_; }

    /**
     * Admission decision for one arrival: @p tenant at simulated time
     * @p now with @p pending_depth arrivals already waiting for issue.
     * Counts the decision either way.
     */
    bool decide(int tenant, Cycles now, std::size_t pending_depth);

    /**
     * Feed one *admitted* query's sojourn (cycles) into the Adaptive
     * window. Degraded completions must NOT be fed — the admitted-set
     * decision stream has to be identical whether shed queries are
     * dropped or degraded.
     */
    void onAdmittedCompletion(double sojourn_cycles);

    /** Count one shed query that degraded to the core path. */
    void onDegraded() { degraded_.inc(); }

    /** True while the Adaptive policy is in its shedding state. */
    bool shedding() const { return shedding_; }

    std::uint64_t admitted() const { return admitted_.value(); }
    std::uint64_t shed() const { return shed_.value(); }
    std::uint64_t degraded() const { return degraded_.value(); }
    std::uint64_t sloBreaches() const { return breaches_.value(); }

  private:
    /** Per-tenant token state, created on first sight of the tenant. */
    struct Bucket
    {
        double tokens = 0.0;
        Cycles lastRefill = 0;
        bool primed = false;
    };

    Bucket& bucket(int tenant);

    AdmissionConfig config_;
    std::vector<Bucket> buckets_;
    metrics::SlidingWindow window_;
    bool shedding_ = false;

    Counter admitted_;
    Counter shed_;
    Counter degraded_;
    Counter breaches_;
    Counter recoveries_;
};

/**
 * Guaranteed QST slots of @p tenant on an accelerator with
 * @p capacity total entries under @p quota with @p tenants tenants.
 * Always at least one slot, so every tenant can make progress.
 */
int tenantGuaranteedSlots(const TenantQuota& quota, int capacity,
                          int tenant, int tenants);

} // namespace qei

#endif // QEI_QEI_ADMISSION_HH
