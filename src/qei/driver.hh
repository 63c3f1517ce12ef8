/**
 * @file
 * Driver layer: the execution harness between a Workload's prepared
 * query streams and a QeiSystem.
 *
 * DriverConfig replaces runQei's positional-parameter tail with one
 * struct (topology, query mode, poll batch, issuing cores, traffic
 * source). drive() picks the IssueEngine submit policy for the config
 * — QUERY_B, QUERY_NB or QUERY_BATCH — and runs it: a closed loop
 * queues the whole stream at t=0, an open loop hands the engine the
 * traffic source's arrival timeline. Per-query sojourn (queue-wait +
 * service) lands in the system.driver.* histograms either way.
 * runQei (workloads/workload.hh) is drive()'s one caller outside the
 * tests.
 */

#ifndef QEI_QEI_DRIVER_HH
#define QEI_QEI_DRIVER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "qei/admission.hh"
#include "qei/planner.hh"
#include "qei/system.hh"
#include "qei/topology.hh"
#include "traffic/traffic.hh"

namespace qei {

/**
 * Per-tenant serving accounting, adopted as "tenant.<id>" children of
 * DriverMetrics (stats paths system.driver.tenant.<id>.*). Created
 * only by open-loop runs with admission control, several tenants or
 * an active tenant quota, so single-tenant stats dumps are unchanged.
 */
class TenantStats : public SimObject
{
  public:
    TenantStats() : SimObject("tenant") {}

    void regStats(StatsRegistry& registry) override;

    void
    reset()
    {
        offered_.reset();
        admitted_.reset();
        shed_.reset();
        degraded_.reset();
        sojourn_.reset();
        occupancy_.reset();
    }

    Counter& offered() { return offered_; }
    Counter& admitted() { return admitted_; }
    Counter& shed() { return shed_; }
    Counter& degraded() { return degraded_; }
    /** Admitted-only sojourn histogram (32-cycle buckets). */
    const Histogram& sojourn() const { return sojourn_; }
    /** QST slots held by this tenant, sampled at each issue. */
    ScalarStat& occupancy() { return occupancy_; }

  private:
    friend class DriverMetrics;

    Counter offered_;
    Counter admitted_;
    Counter shed_;
    Counter degraded_;
    Histogram sojourn_{32.0, 8192};
    ScalarStat occupancy_;
};

/**
 * Per-query latency histograms, registered as the "driver" child of
 * QeiSystem (stats paths system.driver.sojourn / .queue_wait /
 * .service). Sampled by QeiSystem::retire on every run.
 */
class DriverMetrics : public SimObject
{
  public:
    DriverMetrics() : SimObject("driver") {}

    void
    record(Cycles queue_wait, Cycles service, int tenant = 0)
    {
        queueWait_.sample(static_cast<double>(queue_wait));
        service_.sample(static_cast<double>(service));
        sojourn_.sample(static_cast<double>(queue_wait + service));
        if (TenantStats* t = tenantStats(tenant))
            t->sojourn_.sample(
                static_cast<double>(queue_wait + service));
    }

    /** Fold one shed-and-degraded completion: the degraded histogram
     *  plus the tenant's, never the admitted-only histograms. */
    void
    recordDegraded(int tenant, Cycles queue_wait, Cycles service)
    {
        degradedSojourn_.sample(
            static_cast<double>(queue_wait + service));
        if (TenantStats* t = tenantStats(tenant))
            t->sojourn_.sample(
                static_cast<double>(queue_wait + service));
    }

    void
    reset()
    {
        sojourn_.reset();
        queueWait_.reset();
        service_.reset();
        degradedSojourn_.reset();
        for (auto& t : tenants_)
            t->reset();
    }

    /**
     * Create (and adopt, as "tenant.<id>") per-tenant accounting for
     * tenants [0, @p count). Existing children are kept, so repeated
     * runs on one system reuse them (reset() zeroes the counters).
     */
    void ensureTenants(int count);

    /** Tenant @p tenant's accounting; nullptr when never created
     *  (every single-tenant path). */
    TenantStats*
    tenantStats(int tenant)
    {
        const auto idx = static_cast<std::size_t>(tenant);
        return tenant >= 0 && idx < tenants_.size()
                   ? tenants_[idx].get()
                   : nullptr;
    }

    int tenantCount() const
    {
        return static_cast<int>(tenants_.size());
    }

    const Histogram& sojourn() const { return sojourn_; }
    const Histogram& queueWait() const { return queueWait_; }
    const Histogram& service() const { return service_; }
    const Histogram& degradedSojourn() const
    {
        return degradedSojourn_;
    }

    void regStats(StatsRegistry& registry) override;

    /** Percentile summary of one histogram. */
    static LatencyDigest digest(const Histogram& h);

  private:
    // 32-cycle buckets over [0, 256k): fine enough for p50 at a few
    // hundred cycles, wide enough that device-scheme tails and queue
    // waits near saturation stay in range.
    Histogram sojourn_{32.0, 8192};
    Histogram queueWait_{32.0, 8192};
    Histogram service_{32.0, 8192};
    /** Sojourn of shed-and-degraded queries (serving path only). */
    Histogram degradedSojourn_{32.0, 8192};
    std::vector<std::unique_ptr<TenantStats>> tenants_;
};

/**
 * Everything one QEI run needs beyond the World and the Prepared
 * streams. Construct from a Topology (or a SchemeConfig, implicitly)
 * and chain the fluent setters for the rest:
 *
 *   runQei(world, prepared,
 *          DriverConfig(SchemeConfig::coreIntegrated())
 *              .withMode(QueryMode::NonBlocking)
 *              .withPollBatch(64));
 */
struct DriverConfig
{
    Topology topology;
    QueryMode mode = QueryMode::Blocking;
    /** QUERY_NB completions polled per SNAPSHOT_READ batch. */
    int pollBatch = 32;
    /**
     * Issuing cores [0, cores), jobs dealt round-robin: the Tab. I
     * scalability scenario. More than one needs a closed-loop QUERY_B
     * run.
     */
    int cores = 1;
    /**
     * Arrival process; null means closed loop (the historical
     * behaviour). Shared so DriverConfig stays copyable across the
     * parallel matrix runner's cell captures.
     */
    std::shared_ptr<traffic::TrafficSource> traffic;
    /**
     * QUERY_BATCH execution: size > 1 switches the run to batched,
     * sequence-aware submission (the issue engine's Batch policy).
     * Defaults to scalar — the historical paths are untouched.
     */
    BatchConfig batch;
    /** When non-null, receives the full post-run stats dump. */
    std::string* statsJsonOut = nullptr;
    /**
     * Cell label for telemetry (the metrics CSV's first column);
     * empty falls back to the topology name. Matrix runners label
     * cells "workload/topology" so CSV rows stay unique and the file
     * deterministic at any --threads.
     */
    std::string cellLabel;
    /**
     * Offload planner parameters. The default mode Static attaches
     * no planner; PlannerConfig::cost / shard / mixed engage one.
     * runQei constructs the per-run OffloadPlanner from this value
     * (never shared across matrix cells) and attaches it to the
     * system; plain values keep the config copyable.
     */
    PlannerConfig planner;
    /**
     * Admission-control parameters (src/qei/admission.hh). The
     * default policy None constructs no controller and takes none of
     * the serving-path branches, so historical runs stay
     * byte-identical. A non-None policy (or a multi-tenant arrival
     * stream, or an active tenant quota) turns on the serving side of
     * the open-loop issue engine: per-tenant accounting, quota-aware
     * issue, shedding, and optional shed-to-core degradation.
     * Requires an open-loop, non-batched source.
     */
    AdmissionConfig admission;

    DriverConfig(Topology topo) : topology(std::move(topo)) {}
    DriverConfig(const SchemeConfig& scheme) : topology(scheme) {}
    DriverConfig() = default;

    DriverConfig&
    withMode(QueryMode m)
    {
        mode = m;
        return *this;
    }

    DriverConfig&
    withPollBatch(int batch)
    {
        pollBatch = batch;
        return *this;
    }

    DriverConfig&
    withCores(int n)
    {
        cores = n;
        return *this;
    }

    DriverConfig&
    withTraffic(std::shared_ptr<traffic::TrafficSource> source)
    {
        traffic = std::move(source);
        return *this;
    }

    DriverConfig&
    withBatch(BatchConfig b)
    {
        batch = b;
        return *this;
    }

    DriverConfig&
    captureStats(std::string* out)
    {
        statsJsonOut = out;
        return *this;
    }

    DriverConfig&
    withLabel(std::string label)
    {
        cellLabel = std::move(label);
        return *this;
    }

    DriverConfig&
    withPlanner(PlannerConfig p)
    {
        planner = std::move(p);
        return *this;
    }

    DriverConfig&
    withAdmission(AdmissionConfig a)
    {
        admission = a;
        return *this;
    }
};

/**
 * Execute @p jobs on @p system's IssueEngine from issuing cores
 * [0, config.cores). QUERY_BATCH configs use its Batch policy. Closed
 * loop (null or ClosedLoop traffic): Blocking or NonBlocking by mode.
 * Open loop: Blocking on the source's arrival timeline, which queues
 * each arrival until the core's in-flight window and the target QST
 * allow its issue. Either way the returned stats carry the
 * sojourn/queue-wait/service digests. Rejects a poll batch < 1, more
 * issuing cores than the chip has, and several cores on anything but
 * a closed-loop QUERY_B run.
 */
QeiRunStats drive(QeiSystem& system, const std::vector<QueryJob>& jobs,
                  const RoiProfile& profile, const DriverConfig& config);

} // namespace qei

#endif // QEI_QEI_DRIVER_HH
