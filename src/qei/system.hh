/**
 * @file
 * Chip-level QEI system: instantiates the accelerators for a given
 * integration scheme and dispatches queries to them. The core side of
 * QUERY_B, QUERY_NB and QUERY_BATCH (Sec. IV-A, IV-C) is the
 * IssueEngine (issue_engine.hh), which drives this system.
 */

#ifndef QEI_QEI_SYSTEM_HH
#define QEI_QEI_SYSTEM_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "core/chip_config.hh"
#include "metrics/metrics.hh"
#include "core/core_model.hh"
#include "core/trace.hh"
#include "fault/fault_injector.hh"
#include "qei/accelerator.hh"
#include "qei/batch.hh"
#include "qei/scheme.hh"
#include "qei/topology.hh"
#include "sim/event_queue.hh"
#include "sim/watchdog.hh"
#include "trace/trace.hh"

namespace qei {

class AdmissionController;
class DriverMetrics;
class OffloadPlanner;

/** One query to run: inputs plus the expected functional outcome. */
struct QueryJob
{
    Addr headerAddr = kNullAddr;
    Addr keyAddr = kNullAddr;
    /** Result slot for non-blocking queries (16 B, zeroed). */
    Addr resultAddr = kNullAddr;
    /** Ground truth from the software reference, for validation. */
    bool expectFound = false;
    std::uint64_t expectValue = 0;
};

/**
 * Percentile summary of one per-query latency distribution, filled by
 * drive() (driver.hh) from the system's driver histograms.
 */
struct LatencyDigest
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** Outcome of one QEI run. */
struct QeiRunStats
{
    Cycles cycles = 0;
    std::uint64_t queries = 0;
    /** Dynamic instructions the *core* executed (Fig. 11). */
    std::uint64_t coreInstructions = 0;
    /** Functional disagreements with the software reference. */
    std::uint64_t mismatches = 0;
    std::uint64_t exceptions = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t microOps = 0;
    std::uint64_t remoteCompares = 0;
    double avgQstOccupancy = 0.0;
    double maxInFlightObserved = 0.0;

    // -- robustness (fault injection + recovery, Sec. IV-D) --
    /** Faults the injector planted during this run. */
    std::uint64_t faultsInjected = 0;
    /** Queries re-executed on the core after a fault. */
    std::uint64_t swFallbacks = 0;
    /** Core cycles charged to those re-executions. */
    Cycles swFallbackCycles = 0;
    /** Injected interrupt flushes delivered mid-run. */
    std::uint64_t faultFlushes = 0;
    /** QUERY_NB retries after finding the target QST full. */
    std::uint64_t qstBackoffs = 0;

    // -- overload resilience (admission + multi-tenant serving;
    //    zeros unless an open-loop run keeps tenant accounting) --
    /** Arrivals admitted past the admission layer. */
    std::uint64_t admittedQueries = 0;
    /** Arrivals shed by the admission policy. */
    std::uint64_t sheddedQueries = 0;
    /** Shed queries that degraded to the core-execute path. */
    std::uint64_t degradedQueries = 0;
    /**
     * Order-independent digest over the *admitted* subset only
     * (equals resultChecksum when nothing was shed or degraded).
     * Identical across --threads and across shed-to-core degradation
     * on/off — the admitted-set stability invariant abl_overload
     * asserts.
     */
    std::uint64_t admittedChecksum = 0;

    /** Per-tenant serving outcome (empty on single-tenant paths). */
    struct TenantSummary
    {
        int tenant = 0;
        std::uint64_t offered = 0;
        std::uint64_t admitted = 0;
        std::uint64_t shed = 0;
        std::uint64_t degraded = 0;
        /** Admitted-only sojourn digest. */
        double sojournP50 = 0.0;
        double sojournP99 = 0.0;
        double sojournMean = 0.0;
        /** Mean in-flight QST slots held at issue time. */
        double occupancyMean = 0.0;
    };
    std::vector<TenantSummary> tenants;

    // -- offload planner (zeros when no planner is attached) --
    /** Issue-path planner consultations this run. */
    std::uint64_t plannerDecisions = 0;
    /** Queries the planner kept on the issuing core. */
    std::uint64_t plannerCoreExecutes = 0;

    // -- QUERY_BATCH amortization (zeros for scalar runs) --
    /** Batch descriptors admitted. */
    std::uint64_t batches = 0;
    /** Queries carried by those descriptors. */
    std::uint64_t batchedQueries = 0;
    /** Whole-batch admission retries (no contiguous QST window). */
    std::uint64_t batchBackoffs = 0;
    /** Header fetches coalesced across batch members. */
    std::uint64_t batchHeaderHits = 0;
    /** Level-line fetches coalesced across batch members. */
    std::uint64_t batchLineHits = 0;
    /**
     * Order-independent digest of every query's functional outcome
     * (XOR of a hash of queryId/success/resultValue). Identical
     * between fault-free and fault-injected runs of the same jobs —
     * the recovery invariant abl_fault asserts.
     */
    std::uint64_t resultChecksum = 0;

    /**
     * Per-component latency totals (cycles) from the run's
     * LatencyBreakdown, keyed by trace::LatencyComponent name. Always
     * carries every component (zeros included) so artifacts have a
     * stable shape.
     */
    std::map<std::string, Cycles> breakdownCycles;
    /** Sum of every completed query's end-to-end latency. */
    Cycles breakdownEndToEnd = 0;
    /** Queries folded into the breakdown (== completions). */
    std::uint64_t breakdownQueries = 0;

    /**
     * Per-query latency summaries from the driver histograms
     * (system.driver.*). Sojourn = queue-wait + service; under the
     * closed-loop source queue-wait is identically zero, so sojourn
     * equals service.
     */
    LatencyDigest sojourn;
    LatencyDigest queueWait;
    LatencyDigest service;

    /**
     * Time-series telemetry drained from the run's MetricsSampler;
     * null unless sampling was enabled (--metrics). Shared so
     * QeiRunStats stays cheaply copyable through the matrix runner.
     */
    std::shared_ptr<metrics::RunSeries> metrics;

    double
    cyclesPerQuery() const
    {
        return queries ? static_cast<double>(cycles) /
                             static_cast<double>(queries)
                       : 0.0;
    }
};

/** The QEI deployment on one chip for one integration scheme. */
class QeiSystem : public SimObject
{
  public:
    /**
     * Build the deployment @p topo describes. A plain SchemeConfig
     * converts implicitly, so scheme-era call sites keep compiling
     * (and behave identically — the five schemes are canonical
     * topologies).
     */
    QeiSystem(const ChipConfig& chip, EventQueue& events,
              MemoryHierarchy& memory, VirtualMemory& vm,
              const FirmwareStore& firmware, const Topology& topo,
              trace::TraceSink* trace_sink = nullptr);
    ~QeiSystem();

    /**
     * The accelerator a query is dispatched to. Core-integrated: the
     * issuing core's own instance. CHA-based: distributed over the
     * CHAs by the NUCA hash of the queried key's line (so one hot
     * table still spreads across all slices, as HALO does). Device:
     * the single instance.
     */
    Accelerator& acceleratorFor(Addr key_addr, int issuing_core);

    Accelerator& accelerator(int idx)
    {
        return *accels_[static_cast<std::size_t>(idx)];
    }
    int acceleratorCount() const
    {
        return static_cast<int>(accels_.size());
    }

    /** Interrupt: flush every accelerator (Sec. IV-D). */
    Cycles flushAll();

    /**
     * Provide the software view of the jobs — the same QueryTraces the
     * baseline runs, indexed by queryId — so faulted queries can be
     * re-executed on a simulated core (Sec. IV-D: the OS services the
     * fault and software redoes the query). Without a fallback,
     * injected faults surface as exceptions, as bare hardware would.
     * @p traces must outlive the runs that use it.
     */
    void setSoftwareFallback(const std::vector<QueryTrace>* traces,
                             const RoiProfile& profile);

    /**
     * Attach (or detach, with nullptr) the offload planner: every
     * issue path consults it per query and keeps planned queries on
     * the issuing core. Core execution needs the software view of
     * the jobs (setSoftwareFallback); without one, the planner only
     * counts decisions. The planner is borrowed — the owner (runQei)
     * must outlive the runs that use it.
     */
    void setPlanner(OffloadPlanner* planner) { planner_ = planner; }

    /**
     * Attach (or detach, with nullptr) a telemetry sampler: the issue
     * engine arms it alongside the fault daemons, and retire()
     * pushes every completed query's sojourn into its tail monitor.
     * The sampler is borrowed — the owner (runQei) drains and detaches
     * it before this system dies.
     */
    void setMetricsSampler(metrics::MetricsSampler* sampler)
    {
        metrics_ = sampler;
    }

    /**
     * Attach (or detach, with nullptr) the admission controller:
     * the open-loop issue engine consults it per arrival and feeds it
     * per admitted completion. Borrowed — the owner (runQei) must outlive
     * the runs that use it. Null (the default, and whenever the
     * configured policy is None) means every arrival is admitted and
     * no "system.admission" node exists, keeping historical artifacts
     * byte-identical.
     */
    void setAdmission(AdmissionController* admission)
    {
        admission_ = admission;
    }

    /**
     * Live full-QST deferrals (scalar QUERY_NB retries plus batch
     * admission backoffs), cumulative across runs — the counter the
     * metrics backoff-rate series differentiates.
     */
    std::uint64_t liveBackoffs() const;

    /**
     * Pre-warm every translation structure (dedicated TLBs and core
     * L2-TLBs) with @p vpns — the paper's steady state, where "there
     * are few TLB misses in our tests".
     */
    void warmTlbs(const std::vector<Addr>& vpns);

    /**
     * Build a registry of every counter in the component tree under
     * its dotted path ("system.accel3.qst.occupancy"). The registry
     * borrows pointers into this system: rebuild it after any
     * structural change and drop it before the system dies.
     */
    StatsRegistry statsRegistry();

    /** Full stats dump as pretty-printed JSON (all counters). */
    std::string dumpStatsJson();

    /**
     * Per-query sojourn / queue-wait / service histograms, registered
     * as the "driver" child (system.driver.*). Filled by
     * retire() and reset at the start of every run.
     */
    DriverMetrics& driverMetrics() { return *driverStats_; }

  private:
    /** The core side of every run; drives the internals below. */
    friend class IssueEngine;

    /** Core->accelerator submission latency at time @p now. */
    Cycles submitLatency(int core, const Accelerator& target,
                         Cycles now);
    /** Accelerator->core response latency at time @p now. */
    Cycles responseLatency(int core, const Accelerator& target,
                           Cycles now);

    /**
     * Retire one completed query of @p job into @p stats: fold it into
     * the breakdown and the driver histograms (and, when tracing, emit
     * its Query span plus the Breakdown spans tiling it), count a
     * mismatch against the job's expectation, and fold its digest into
     * the result checksum. @return that digest.
     * @p issue_at is when the core issued the QUERY instruction;
     * @p response_latency the accelerator->core return cost (0 for
     * non-blocking queries, whose polling is charged in aggregate);
     * @p queue_wait the software queueing delay before issue (only
     * non-zero under an open-loop traffic source).
     * @p degraded marks a shed query completing on the core-execute
     * path: it is charged to the breakdown (SwFallback) and the
     * degraded histogram, but excluded from the admitted-only
     * sojourn/queue-wait/service histograms and the metrics tail
     * monitor, so serving percentiles describe admitted work.
     */
    std::uint64_t retire(QeiRunStats& stats, const QueryJob& job,
                         const QstEntry& entry, Cycles issue_at,
                         Cycles response_latency, Cycles queue_wait = 0,
                         bool degraded = false);

    /**
     * Software writes a query's outcome into its non-blocking result
     * slot (the 16 B the polling loop reads), if it has a mapped one.
     */
    void writeResultSlot(const QstEntry& entry);

    /** Validate a completed entry against the job's expectation. */
    static bool matchesExpectation(const QstEntry& entry,
                                   const QueryJob& job);

    /** Mix one query's functional outcome into the run digest. */
    static std::uint64_t resultDigest(const QstEntry& entry);

    /** Copy the breakdown's totals into @p stats. */
    void fillBreakdownStats(QeiRunStats& stats) const;

    /** True when injected faults are recovered by software re-run. */
    bool
    faultRecoveryActive() const
    {
        return faults_ != nullptr && fallbackTraces_ != nullptr;
    }

    /** Lazily build the private core + memory the fallback runs on. */
    void ensureFallbackCore();

    /**
     * Cycles the fallback core spends on query @p query_id's software
     * walk (0 when the software view has no such query).
     */
    Cycles fallbackWalk(std::uint64_t query_id);

    /**
     * Service a faulted completion: re-execute the query on the
     * fallback core, patch @p entry to the functional outcome, and
     * charge the extra cycles to the SwFallback component.
     * @return the extra cycles (0 when no recovery applies).
     */
    Cycles recoverInSoftware(QstEntry& entry, const QueryJob& job);

    /**
     * Run query @p query_id's software walk on the issuing core from
     * @p issue_at — a *planned* core execution, so unlike
     * recoverInSoftware there is no trap/OS overhead — and return its
     * completed entry: the functional outcome from the job's
     * expectation, the whole walk (at least one cycle) charged to
     * SwFallback, enqueued == issue so Submit is zero. Needs the
     * software fallback view of the jobs.
     */
    QstEntry coreExecute(const QueryJob& job, std::uint64_t query_id,
                         Cycles issue_at);

    /**
     * True when the planner keeps this query on the core. Only
     * consults the planner when core execution is actually possible
     * (fallback traces attached).
     */
    bool plannerKeepsOnCore(const QueryJob& job);

    /** The live routing context (with the QST free-slot probe). */
    Topology::RouteContext routeContext();

    /** Arm the watchdog (and, if configured, the interrupt flusher). */
    void armFaultDaemons();

    /** Periodic injected-interrupt daemon (FaultConfig::flushPeriod). */
    void flushTick();

    /** One injected flush: drop in-flight work, hand it to recovery. */
    void injectedFlush();

    /** QST + event-queue snapshot for the watchdog's panic message. */
    std::string dumpForWatchdog() const;

    /**
     * Snapshot of the counters that outlive a run (injector, planner,
     * accelerator batch coalescing), for per-run deltas.
     */
    struct RunCounters
    {
        std::uint64_t injected = 0;
        std::uint64_t swFallbacks = 0;
        Cycles swFallbackCycles = 0;
        std::uint64_t flushes = 0;
        std::uint64_t decisions = 0;
        std::uint64_t coreExecutes = 0;
        std::uint64_t batchHeaderHits = 0;
        std::uint64_t batchLineHits = 0;
    };
    RunCounters runCountersNow() const;

    /**
     * Close a run: accelerator totals, the breakdown, and the counter
     * deltas since @p before.
     */
    void finishRun(QeiRunStats& stats, const RunCounters& before) const;

    ChipConfig chip_;
    EventQueue& events_;
    MemoryHierarchy& memory_;
    VirtualMemory& vm_;
    /** The deployment description (fault overrides applied). */
    Topology topo_;
    /** Convenience copy of topo_.params(), kept in sync. */
    SchemeConfig scheme_;
    RemoteComparators remoteCmps_;
    std::vector<std::unique_ptr<Mmu>> mmus_;
    std::unique_ptr<AccelEnv> env_;
    std::vector<std::unique_ptr<Accelerator>> accels_;

    // -- fault injection + recovery (Sec. IV-D) --
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<sim::Watchdog> watchdog_;
    bool flusherArmed_ = false;
    const std::vector<QueryTrace>* fallbackTraces_ = nullptr;
    RoiProfile fallbackProfile_;
    /**
     * The fallback core runs on a private memory hierarchy (LLC warmed
     * from the page table, like the main one): its interval model
     * restarts its clock per invocation, and feeding non-monotonic
     * times into the shared DRAM/mesh state mid-run would corrupt the
     * accelerator-side timing.
     */
    std::unique_ptr<MemoryHierarchy> fallbackHierarchy_;
    std::unique_ptr<Mmu> fallbackMmu_;
    std::unique_ptr<CoreModel> fallbackCore_;

    trace::LatencyBreakdown breakdown_;
    std::unique_ptr<DriverMetrics> driverStats_;
    std::unique_ptr<BatchMetrics> batchStats_;
    /** Borrowed telemetry sampler; null when sampling is off. */
    metrics::MetricsSampler* metrics_ = nullptr;
    /** Borrowed offload planner; null for static runs. */
    OffloadPlanner* planner_ = nullptr;
    /** Borrowed admission controller; null = admit everything. */
    AdmissionController* admission_ = nullptr;
    /** Scalar QUERY_NB full-QST retries, cumulative across runs. */
    Counter backoffs_;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::uint32_t traceQueryName_ = 0;
    std::array<std::uint32_t, trace::kLatencyComponentCount>
        traceBreakdownName_{};
};

/**
 * Load every line of @p vm's mapped footprint into @p memory's LLC, in
 * ascending VPN order: the steady state the paper evaluates (structures
 * LLC-resident, private caches cold). World::warmLlc() and the
 * software-fallback core's private hierarchy both start from it.
 */
void warmLlc(MemoryHierarchy& memory, const VirtualMemory& vm);

} // namespace qei

#endif // QEI_QEI_SYSTEM_HH
