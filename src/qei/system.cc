#include "system.hh"

#include <algorithm>
#include <deque>
#include <functional>

#include "common/hash.hh"
#include "qei/admission.hh"
#include "qei/driver.hh"
#include "qei/planner.hh"

namespace qei {

QeiSystem::QeiSystem(const ChipConfig& chip, EventQueue& events,
                     MemoryHierarchy& memory, VirtualMemory& vm,
                     const FirmwareStore& firmware,
                     const Topology& topo,
                     trace::TraceSink* trace_sink)
    : SimObject("system"), chip_(chip), events_(events),
      memory_(memory), vm_(vm), topo_(topo), scheme_(topo.params()),
      remoteCmps_(memory.cores(), chip.qei.comparatorsPerCha)
{
    // Injected QST shrink (capacity-pressure fault): apply before
    // anything sizes off the topology — accelerator tables,
    // completion arrays, and the software-side reservation limits all
    // read the (per-instance) qstEntries.
    if (chip_.faults.qstEntriesOverride > 0) {
        topo_.limitQstEntries(chip_.faults.qstEntriesOverride);
        scheme_ = topo_.params();
    }

    // The shared memory system and address space join this system's
    // component tree for the duration of the run (re-adopted by the
    // next QeiSystem; adopt() re-parents).
    adopt(memory_);
    adopt(vm_);
    adopt(remoteCmps_);
    for (int c = 0; c < memory.cores(); ++c) {
        mmus_.push_back(std::make_unique<Mmu>(vm, chip.mmu));
        adopt(*mmus_.back(), fmt("mmu{}", c));
    }

    env_ = std::make_unique<AccelEnv>(AccelEnv{
        events_, memory_, vm_, {}, &remoteCmps_, firmware, scheme_});
    for (auto& m : mmus_)
        env_->coreMmus.push_back(m.get());

    // Instances live where the topology's placements put them (the
    // canonical scheme topologies reproduce the historical layout:
    // device instance on its tile, replicated instances one per
    // tile, home core = own core when per-core, else core 0). A
    // heterogeneous topology (the planner's mixed-workload unions)
    // sizes each instance off its own parameter block.
    const std::vector<AcceleratorPlacement>& places =
        topo_.placements();
    for (std::size_t i = 0; i < places.size(); ++i) {
        const SchemeConfig& params =
            topo_.paramsFor(static_cast<int>(i));
        DpuParams dpu;
        dpu.alus = chip.qei.alusPerDpu;
        dpu.comparators = params.accelerators == 1
                              ? chip.qei.comparatorsPerDpu
                              : chip.qei.comparatorsPerCha;
        accels_.push_back(std::make_unique<Accelerator>(
            static_cast<int>(i), places[i].tile, places[i].homeCore,
            *env_, dpu, places[i].params ? &params : nullptr));
        adopt(*accels_.back(), places[i].name);
    }

    if (chip_.faults.any()) {
        faults_ = std::make_unique<FaultInjector>(chip_.faults);
        adopt(*faults_);
        env_->faults = faults_.get();
    }
    watchdog_ = std::make_unique<sim::Watchdog>(
        events_,
        sim::Watchdog::Params{chip_.faults.watchdogEpoch,
                              chip_.faults.watchdogStrikes});
    adopt(*watchdog_);
    watchdog_->setDump([this] { return dumpForWatchdog(); });
    // Secondary progress signal: a whole-buffer scan can run for many
    // epochs without retiring, but its micro-op count keeps moving.
    watchdog_->setProgressProbe([this] {
        std::uint64_t sum = 0;
        for (const auto& a : accels_)
            sum += a->microOps();
        return sum;
    });

    adopt(breakdown_);
    driverStats_ = std::make_unique<DriverMetrics>();
    adopt(*driverStats_);
    batchStats_ = std::make_unique<BatchMetrics>();
    adopt(*batchStats_);
    batchStats_->setProbes(
        [this] {
            std::uint64_t sum = 0;
            for (const auto& a : accels_)
                sum += a->batchHeaderHits();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (const auto& a : accels_)
                sum += a->batchLineHits();
            return sum;
        });
    trace_ = trace_sink;
    if (trace_ != nullptr) {
        // Attach after adoption so interned component paths are the
        // fully qualified tree paths.
        for (auto& m : mmus_)
            m->setTraceSink(trace_);
        for (auto& a : accels_)
            a->setTraceSink(trace_);
        traceComp_ = trace_->internComponent(fullPath() + ".breakdown");
        traceQueryName_ = trace_->internName("query");
        for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i) {
            traceBreakdownName_[i] = trace_->internName(
                trace::toString(static_cast<trace::LatencyComponent>(i)));
        }
    }
}

QeiSystem::~QeiSystem() = default;

Topology::RouteContext
QeiSystem::routeContext()
{
    Topology::RouteContext ctx{vm_, memory_, {}};
    // Live QST free-slot probe for occupancy-aware routes (sharded
    // work stealing). Probing changes no timing.
    ctx.freeSlots = [this](int idx) {
        const Accelerator& a =
            *accels_[static_cast<std::size_t>(idx)];
        return a.params().qstEntries - a.qst().occupied();
    };
    return ctx;
}

Accelerator&
QeiSystem::acceleratorFor(Addr key_addr, int issuing_core)
{
    const int idx =
        topo_.route(key_addr, issuing_core, routeContext());
    return *accels_[static_cast<std::size_t>(idx)];
}

Cycles
QeiSystem::submitLatency(int core, const Accelerator& target, Cycles now)
{
    // Per-instance parameters: a heterogeneous deployment mixes
    // submit paths on one chip.
    const SchemeConfig& params = target.params();
    Cycles lat = params.submitLatency;
    if (params.accelerators == 1) {
        lat += memory_.messageOneWay(core, target.tile(), now);
        lat += params.deviceIfLatency;
    } else if (!params.perCore) {
        lat += memory_.messageOneWay(core, target.tile(), now);
    }
    return std::max<Cycles>(lat, 1);
}

Cycles
QeiSystem::responseLatency(int core, const Accelerator& target,
                           Cycles now)
{
    // Symmetric with submission.
    return submitLatency(core, target, now);
}

template <typename Finish>
void
QeiSystem::recoverThen(const QstEntry& raw, const QueryJob& job,
                       Finish finish)
{
    QstEntry entry = raw;
    const Cycles sw = recoverInSoftware(entry, job);
    if (sw > 0) {
        events_.schedule(sw, [finish = std::move(finish), entry]() {
            finish(entry);
        });
    } else {
        finish(entry);
    }
}

std::uint64_t
QeiSystem::retire(QeiRunStats& stats, const QueryJob& job,
                  const QstEntry& entry, Cycles issue_at,
                  Cycles response_latency, Cycles queue_wait,
                  bool degraded)
{
    watchdog_->noteProgress();
    trace::QueryAttribution a;
    for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i)
        a.cycles[i] = entry.attr[i];
    // Everything between the core issuing QUERY and the accelerator
    // accepting it: the submission message, plus (non-blocking only)
    // any back-off while the target QST was full.
    a.add(trace::LatencyComponent::Submit, entry.enqueued - issue_at);
    a.add(trace::LatencyComponent::Response, response_latency);

    // The callback fires once delivery lands, so now() already covers
    // the accelerator-side latency; only the core-side return is left.
    const Cycles endToEnd =
        (events_.now() + response_latency) - issue_at;
    a.endToEnd = endToEnd;
    if (degraded) {
        // Shed-and-degraded work is charged to the breakdown below
        // but kept out of the admitted-only serving histograms and
        // the tail monitor.
        driverStats_->recordDegraded(entry.tenant, queue_wait,
                                     endToEnd);
    } else {
        driverStats_->record(queue_wait, endToEnd, entry.tenant);
        if (metrics::active(metrics_)) {
            metrics_->onSojourn(
                static_cast<double>(queue_wait + endToEnd));
        }
    }
    // Zero by construction (every scheduled delay is charged to one
    // component); anything unaccounted would land in Other.
    const Cycles accounted = a.sum();
    if (endToEnd > accounted)
        a.add(trace::LatencyComponent::Other, endToEnd - accounted);
    breakdown_.record(a);

    if (trace::active(trace_)) {
        trace_->record(trace::Category::Query, traceComp_,
                       traceQueryName_, entry.queryId, issue_at,
                       endToEnd);
        // Tile the query span with one sub-span per non-zero
        // component, in charge order, so Perfetto shows the
        // decomposition stacked under the query track.
        Cycles cursor = issue_at;
        for (std::size_t i = 0; i < trace::kLatencyComponentCount;
             ++i) {
            if (a.cycles[i] == 0)
                continue;
            trace_->record(trace::Category::Breakdown, traceComp_,
                           traceBreakdownName_[i], entry.queryId,
                           cursor, a.cycles[i]);
            cursor += a.cycles[i];
        }
    }

    if (!matchesExpectation(entry, job))
        ++stats.mismatches;
    const std::uint64_t digest = resultDigest(entry);
    stats.resultChecksum ^= digest;
    return digest;
}

void
QeiSystem::writeResultSlot(const QstEntry& entry)
{
    if (entry.resultAddr != kNullAddr &&
        vm_.tryTranslate(entry.resultAddr)) {
        vm_.write<std::uint64_t>(entry.resultAddr, entry.success ? 1 : 2);
        vm_.write<std::uint64_t>(entry.resultAddr + 8, entry.resultValue);
    }
}

void
QeiSystem::fillBreakdownStats(QeiRunStats& stats) const
{
    for (std::size_t i = 0; i < trace::kLatencyComponentCount; ++i) {
        const auto c = static_cast<trace::LatencyComponent>(i);
        stats.breakdownCycles[trace::toString(c)] =
            breakdown_.componentTotal(c);
    }
    stats.breakdownEndToEnd = breakdown_.endToEndTotal();
    stats.breakdownQueries = breakdown_.queries();
}

void
QeiSystem::warmTlbs(const std::vector<Addr>& vpns)
{
    for (auto& mmu : mmus_)
        mmu->prefillL2(vpns);
    for (auto& accel : accels_) {
        if (accel->dedicatedTlb() != nullptr)
            accel->dedicatedTlb()->prefill(vpns);
    }
}

StatsRegistry
QeiSystem::statsRegistry()
{
    StatsRegistry registry;
    regStatsTree(registry);
    return registry;
}

std::uint64_t
QeiSystem::liveBackoffs() const
{
    return backoffs_.value() + batchStats_->backoffs().value();
}

std::string
QeiSystem::dumpStatsJson()
{
    return statsRegistry().dumpJson();
}

Cycles
QeiSystem::flushAll()
{
    Cycles worst = 0;
    for (auto& a : accels_)
        worst = std::max(worst, a->flush());
    return worst;
}

void
QeiSystem::setSoftwareFallback(const std::vector<QueryTrace>* traces,
                               const RoiProfile& profile)
{
    fallbackTraces_ = traces;
    fallbackProfile_ = profile;
}

void
QeiSystem::ensureFallbackCore()
{
    if (fallbackCore_ != nullptr)
        return;
    fallbackHierarchy_ =
        std::make_unique<MemoryHierarchy>(chip_.memory);
    adopt(*fallbackHierarchy_, "fallback_mem");
    // Same steady state the main hierarchy runs in: the whole mapped
    // footprint LLC-resident (World::warmLlc), private caches cold.
    for (const auto& [vpn, pfn] : vm_.pageTable().entries()) {
        (void)vpn;
        const Addr base = pfn * kPageBytes;
        for (std::uint32_t off = 0; off < kPageBytes;
             off += kCacheLineBytes) {
            fallbackHierarchy_->preloadLlc(base + off);
        }
    }
    fallbackMmu_ = std::make_unique<Mmu>(vm_, chip_.mmu);
    adopt(*fallbackMmu_, "fallback_mmu");
    fallbackCore_ = std::make_unique<CoreModel>(
        0, chip_.core, *fallbackHierarchy_, *fallbackMmu_);
    adopt(*fallbackCore_, "fallback_core");
}

Cycles
QeiSystem::fallbackWalk(std::uint64_t query_id)
{
    ensureFallbackCore();
    // The interval core restarts its clock each invocation; reset the
    // queue state it shares with previous walks so the timing is a
    // pure function of the query, not of recovery order.
    fallbackCore_->reset();
    fallbackHierarchy_->dram().reset();
    fallbackHierarchy_->mesh().resetTraffic();
    if (query_id >= fallbackTraces_->size())
        return 0;
    const std::vector<QueryTrace> one(1, (*fallbackTraces_)[query_id]);
    return fallbackCore_->runQueries(one, fallbackProfile_).cycles;
}

Cycles
QeiSystem::recoverInSoftware(QstEntry& entry, const QueryJob& job)
{
    if (entry.error == QueryError::None || !faultRecoveryActive())
        return 0;
    // Trap delivery, OS fault service, and user-level re-dispatch
    // before the software walk itself starts (Sec. IV-D).
    constexpr Cycles kTrapOverhead = 150;
    const Cycles sw = kTrapOverhead + fallbackWalk(entry.queryId);

    if (faults_ != nullptr)
        faults_->onSwFallback(sw);
    entry.error = QueryError::None;
    entry.success = job.expectFound;
    entry.resultValue = job.expectFound ? job.expectValue : 0;
    entry.attr[static_cast<std::size_t>(
        trace::LatencyComponent::SwFallback)] += sw;
    // Software overwrites the error code with the real result.
    if (entry.mode == QueryMode::NonBlocking)
        writeResultSlot(entry);
    return sw;
}

void
QeiSystem::armFaultDaemons()
{
    watchdog_->arm();
    if (metrics::active(metrics_))
        metrics_->arm(events_);
    if (faults_ != nullptr && chip_.faults.flushPeriod > 0 &&
        !flusherArmed_) {
        flusherArmed_ = true;
        events_.scheduleDaemon(chip_.faults.flushPeriod,
                               [this] { flushTick(); });
    }
}

void
QeiSystem::flushTick()
{
    if (events_.pendingWork() == 0) {
        // Run region drained: stop so the event loop can return; the
        // next run re-arms.
        flusherArmed_ = false;
        return;
    }
    injectedFlush();
    events_.scheduleDaemon(chip_.faults.flushPeriod,
                           [this] { flushTick(); });
}

void
QeiSystem::injectedFlush()
{
    if (faults_ != nullptr)
        faults_->onFlush();
    struct Dropped
    {
        QstEntry snapshot;
        Accelerator::CompletionFn done;
    };
    std::vector<Dropped> dropped;
    Cycles worst = 0;
    for (auto& a : accels_) {
        const Cycles cost =
            a->flush([&](const QstEntry& snapshot,
                         Accelerator::CompletionFn done) {
                if (faults_ != nullptr)
                    faults_->onFlushedQuery();
                dropped.push_back({snapshot, std::move(done)});
            });
        worst = std::max(worst, cost);
    }
    // Each dropped query reappears to software once the flush drains;
    // its completion runs through the normal recovery path (the
    // snapshot carries error=Aborted).
    const Cycles drain = worst + 1;
    for (auto& d : dropped) {
        if (!d.done)
            continue;
        QstEntry snapshot = d.snapshot;
        snapshot.attr[static_cast<std::size_t>(
            trace::LatencyComponent::Flush)] += drain;
        snapshot.completed = events_.now() + drain;
        events_.schedule(drain, [snapshot,
                                 done = std::move(d.done)] {
            done(snapshot);
        });
    }
}

std::string
QeiSystem::dumpForWatchdog() const
{
    auto phaseName = [](QstPhase p) {
        switch (p) {
          case QstPhase::Idle: return "Idle";
          case QstPhase::FetchHeader: return "FetchHeader";
          case QstPhase::Running: return "Running";
          case QstPhase::Done: return "Done";
          case QstPhase::Exception: return "Exception";
        }
        return "?";
    };
    std::string out = fmt("scheme={} events pending={} (daemons={})\n",
                          scheme_.name(), events_.pending(),
                          events_.daemons());
    for (const auto& a : accels_) {
        const QueryStateTable& qst = a->qst();
        if (qst.occupied() == 0)
            continue;
        out += fmt("accel{} qst {}/{}:", a->id(), qst.occupied(),
                   qst.capacity());
        for (int id : qst.activeIds()) {
            const QstEntry& e = qst.at(id);
            out += fmt(" [{}:q{} {} state={} ready={}]", id, e.queryId,
                       phaseName(e.phase), e.state,
                       e.ready ? 1 : 0);
        }
        out += "\n";
    }
    return out;
}

QeiSystem::RunCounters
QeiSystem::runCountersNow() const
{
    RunCounters c;
    if (faults_ != nullptr) {
        c.injected = faults_->injected();
        c.swFallbacks = faults_->swFallbacks();
        c.swFallbackCycles = faults_->swFallbackCycles();
        c.flushes = faults_->flushes();
    }
    if (planner_ != nullptr) {
        c.decisions = planner_->decisions();
        c.coreExecutes = planner_->coreExecutes();
    }
    for (const auto& a : accels_) {
        c.batchHeaderHits += a->batchHeaderHits();
        c.batchLineHits += a->batchLineHits();
    }
    return c;
}

bool
QeiSystem::beginRun(QeiRunStats& stats, std::size_t jobs)
{
    stats.queries = jobs;
    breakdown_.reset();
    driverStats_->reset();
    if (jobs == 0)
        fillBreakdownStats(stats);
    return jobs > 0;
}

void
QeiSystem::finishRun(QeiRunStats& stats, const RunCounters& before) const
{
    const RunCounters now = runCountersNow();
    stats.faultsInjected = now.injected - before.injected;
    stats.swFallbacks = now.swFallbacks - before.swFallbacks;
    stats.swFallbackCycles = now.swFallbackCycles - before.swFallbackCycles;
    stats.faultFlushes = now.flushes - before.flushes;
    stats.plannerDecisions = now.decisions - before.decisions;
    stats.plannerCoreExecutes = now.coreExecutes - before.coreExecutes;
    stats.batchHeaderHits = now.batchHeaderHits - before.batchHeaderHits;
    stats.batchLineHits = now.batchLineHits - before.batchLineHits;

    double occSum = 0.0;
    double occCount = 0.0;
    for (const auto& a : accels_) {
        stats.memAccesses += a->memAccesses();
        stats.microOps += a->microOps();
        stats.remoteCompares += a->remoteCompares();
        stats.exceptions += a->exceptions();
        occSum += a->qstOccupancy().sum();
        occCount += static_cast<double>(a->qstOccupancy().count());
        // The paper reports 50-90% occupancy on the busy instances.
    }
    stats.avgQstOccupancy = occCount > 0 ? occSum / occCount : 0.0;
    fillBreakdownStats(stats);
}

bool
QeiSystem::plannerKeepsOnCore(const QueryJob& job)
{
    // Core execution needs the software view of the jobs; without it
    // the planner can only route (which the topology already does).
    return planner_ != nullptr && fallbackTraces_ != nullptr &&
           planner_->coreExecute(job.keyAddr);
}

QstEntry
QeiSystem::coreExecute(const QueryJob& job, std::uint64_t query_id,
                       Cycles issue_at)
{
    const Cycles sw = std::max<Cycles>(1, fallbackWalk(query_id));
    QstEntry entry;
    entry.queryId = query_id;
    entry.resultAddr = job.resultAddr;
    entry.success = job.expectFound;
    entry.resultValue = job.expectFound ? job.expectValue : 0;
    entry.enqueued = issue_at;
    entry.completed = issue_at + sw;
    entry.attr[static_cast<std::size_t>(
        trace::LatencyComponent::SwFallback)] += sw;
    return entry;
}

/** Validate a completed entry against the job's expected outcome. */
bool
QeiSystem::matchesExpectation(const QstEntry& entry,
                              const QueryJob& job)
{
    if (entry.error != QueryError::None)
        return false;
    if (entry.success != job.expectFound)
        return false;
    return !job.expectFound || entry.resultValue == job.expectValue;
}

/**
 * Mix one query's functional outcome into the order-independent run
 * digest. Only the architectural outcome participates: queryId,
 * found/not-found, and (for found queries) the value — so a recovered
 * query folds identically to its fault-free twin. Not-found queries
 * ignore resultValue, matching matchesExpectation.
 */
std::uint64_t
QeiSystem::resultDigest(const QstEntry& entry)
{
    std::uint64_t x = entry.queryId + 0x9E3779B97F4A7C15ULL;
    x ^= entry.success ? 0xBF58476D1CE4E5B9ULL : 0x94D049BB133111EBULL;
    x += entry.success ? entry.resultValue : 0;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

namespace {

/**
 * The core side of QUERY_B (Sec. VII-A), the same for every issuing
 * lane. Each query costs the surrounding independent work plus the
 * QUERY_B instruction itself; the work issues at the core's width and
 * pays its front-end stalls and branch mispredicts. A blocking query
 * holds a ROB slot and an LQ entry until it retires, so with
 * `windowInstr` instructions between queries the OoO window covers at
 * most `maxInflight` outstanding queries.
 */
struct IssueModel
{
    IssueModel(const CoreParams& core, const RoiProfile& profile)
        : windowInstr(profile.nonQueryInstrPerOp + 1),
          maxInflight(std::min(
              std::max(1, core.robEntries /
                              static_cast<int>(windowInstr)),
              core.loadQueueEntries)),
          issueGap(static_cast<double>(profile.nonQueryInstrPerOp) /
                       core.issueWidth +
                   profile.frontendStallPerInstr * windowInstr +
                   static_cast<double>(profile.nonQueryMispredictsPerOp) *
                       static_cast<double>(core.branchMispredictPenalty))
    {
    }

    std::uint32_t windowInstr;
    int maxInflight;
    double issueGap;
};

} // namespace

/**
 * One event-driven engine for every blocking run. A closed loop is the
 * whole job stream queued at t=0 (with zero queue wait); an open loop
 * is the same stream arriving on a traffic source's timeline. Jobs are
 * dealt round-robin over the issuing lanes, one per issuing core, each
 * with its own fetch clock and ROB/LQ window and one FIFO per tenant.
 * Software tracks QST reservations per accelerator (Sec. IV-A): a
 * query whose target is full waits at the head of its FIFO.
 */
class QeiSystem::BlockingEngine
{
  public:
    BlockingEngine(QeiSystem& sys, const std::vector<QueryJob>& jobs,
                   const RoiProfile& profile, int first_core, int cores)
        : sys_(sys), events_(sys.events_), jobs_(jobs),
          model_(sys.chip_.core, profile),
          lanes_(static_cast<std::size_t>(cores))
    {
        for (int c = 0; c < cores; ++c)
            lanes_[static_cast<std::size_t>(c)].core = first_core + c;
    }
    // Scheduled events and completions hold `this`.
    BlockingEngine(const BlockingEngine&) = delete;
    BlockingEngine& operator=(const BlockingEngine&) = delete;

    /** Run the closed loop (@p arrivals null) or the open loop. */
    QeiRunStats run(const std::vector<traffic::Arrival>* arrivals);

  private:
    struct Pending
    {
        std::size_t jobIdx;
        Cycles arrivedAt;
    };

    /** One issuing core. */
    struct Lane
    {
        int core = 0;
        double fetchTime = 0.0;
        int inflight = 0;
        int rrCursor = 0;
        /** One FIFO per tenant; a blocked head stalls only its own. */
        std::vector<std::deque<Pending>> pending;
    };

    /** An issued query, as its completion sees it. */
    struct Issued
    {
        std::size_t jobIdx;
        Lane* lane;
        int tenant;
        Cycles issueAt;
        Cycles queueWait;
        /** Null when the planner kept the query on the core. */
        Accelerator* target;
    };

    Lane&
    laneFor(std::size_t job_idx)
    {
        return lanes_[job_idx % lanes_.size()];
    }

    std::size_t
    tenantSlot(const Accelerator& target, int tenant) const
    {
        return static_cast<std::size_t>(target.id()) *
                   static_cast<std::size_t>(tenants_) +
               static_cast<std::size_t>(tenant);
    }

    /** Tenant accounting; null unless this run keeps it. */
    TenantStats*
    tenantStats(int tenant)
    {
        return accounting_ ? sys_.driverStats_->tenantStats(tenant)
                           : nullptr;
    }

    void pumpAll();
    void pump(Lane& lane);
    bool tryIssue(Lane& lane, int tenant, bool allow_borrow);
    void submit(const Issued& q);
    void complete(const Issued& q, const QstEntry& entry);
    void arrive(const traffic::Arrival& a);
    void degradeToCore(const traffic::Arrival& a, TenantStats& ts);

    QeiSystem& sys_;
    EventQueue& events_;
    const std::vector<QueryJob>& jobs_;
    const IssueModel model_;
    std::vector<Lane> lanes_;
    QeiRunStats stats_;

    /** Open loop: queue wait runs from each query's arrival. */
    bool timed_ = false;
    int tenants_ = 1;
    /** Per-tenant stats, admitted set and tenant summaries. */
    bool accounting_ = false;
    bool quotaOn_ = false;
    bool degrade_ = false;
    TenantQuota quota_;
    AdmissionController* admission_ = nullptr;

    /** Reserved QST slots per accelerator, and per (accel, tenant). */
    std::vector<int> reserved_;
    std::vector<int> reservedTenant_;
    /** Guaranteed QST slots per (accel, tenant) under the quota. */
    std::vector<int> guaranteed_;
    std::vector<int> tenantInflight_;

    std::size_t pendingTotal_ = 0;
    std::size_t issued_ = 0;
    int inflight_ = 0;
    int degrading_ = 0;
    double inflightPeak_ = 0.0;
    /** Latest retirement, degraded work included. */
    Cycles lastRetire_ = 0;
    /** Degraded work serializes on one background core model. */
    Cycles degradeClock_ = 0;
};

QeiRunStats
QeiSystem::BlockingEngine::run(
    const std::vector<traffic::Arrival>* arrivals)
{
    if (!sys_.beginRun(stats_, jobs_.size()))
        return stats_;

    timed_ = arrivals != nullptr;
    if (timed_) {
        simAssert(arrivals->size() == jobs_.size(),
                  "traffic source scheduled {} arrivals for {} jobs",
                  arrivals->size(), jobs_.size());
        for (const traffic::Arrival& a : *arrivals)
            tenants_ = std::max(tenants_, a.tenant + 1);
    }
    admission_ = sys_.admission_;
    quota_ = sys_.scheme_.tenantQuota;
    // Single-tenant runs without admission keep no tenant accounting,
    // so their stats dumps and artifacts keep their historical shape.
    accounting_ = timed_ && (admission_ != nullptr || tenants_ > 1 ||
                             quota_.active());
    if (accounting_)
        sys_.driverStats_->ensureTenants(tenants_);
    quotaOn_ = quota_.active() && tenants_ > 1;
    degrade_ =
        admission_ != nullptr && admission_->config().degradeToCore;
    simAssert(!degrade_ || sys_.fallbackTraces_ != nullptr,
              "shed-to-core degradation needs the software fallback "
              "view of the jobs (setSoftwareFallback)");

    const std::size_t slots =
        sys_.accels_.size() * static_cast<std::size_t>(tenants_);
    reserved_.assign(sys_.accels_.size(), 0);
    reservedTenant_.assign(slots, 0);
    tenantInflight_.assign(static_cast<std::size_t>(tenants_), 0);
    guaranteed_.assign(slots, 0);
    if (quotaOn_) {
        for (const auto& a : sys_.accels_) {
            for (int t = 0; t < tenants_; ++t) {
                guaranteed_[tenantSlot(*a, t)] = tenantGuaranteedSlots(
                    quota_, a->params().qstEntries, t, tenants_);
            }
        }
    }
    for (Lane& lane : lanes_)
        lane.pending.resize(static_cast<std::size_t>(tenants_));

    const RunCounters before = sys_.runCountersNow();
    if (!timed_) {
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            laneFor(j).pending[0].push_back(Pending{j, 0});
        pendingTotal_ = jobs_.size();
        pumpAll();
    } else {
        // Pre-schedule the whole arrival timeline.
        events_.reserve(events_.pending() + arrivals->size());
        for (const traffic::Arrival& a : *arrivals) {
            simAssert(a.queryIndex < jobs_.size(),
                      "arrival references job {} of {}", a.queryIndex,
                      jobs_.size());
            simAssert(a.tenant >= 0, "arrival tenant {} is negative",
                      a.tenant);
            events_.scheduleAt(a.tick, [this, a]() { arrive(a); });
        }
    }
    sys_.armFaultDaemons();
    events_.run();
    simAssert(issued_ + stats_.sheddedQueries == jobs_.size() &&
                  inflight_ == 0 && pendingTotal_ == 0 && degrading_ == 0,
              "blocking run stalled: {} issued + {} shed of {}, {} in "
              "flight, {} queued, {} degrading",
              issued_, stats_.sheddedQueries, jobs_.size(), inflight_,
              pendingTotal_, degrading_);

    stats_.cycles = lastRetire_;
    stats_.maxInFlightObserved = inflightPeak_;
    sys_.finishRun(stats_, before);
    if (!accounting_)
        return stats_;

    stats_.admittedQueries = issued_;
    stats_.tenants.reserve(static_cast<std::size_t>(tenants_));
    for (int t = 0; t < tenants_; ++t) {
        TenantStats* ts = tenantStats(t);
        QeiRunStats::TenantSummary s;
        s.tenant = t;
        s.offered = ts->offered().value();
        s.admitted = ts->admitted().value();
        s.shed = ts->shed().value();
        s.degraded = ts->degraded().value();
        const LatencyDigest d = DriverMetrics::digest(ts->sojourn());
        s.sojournP50 = d.p50;
        s.sojournP99 = d.p99;
        s.sojournMean = d.mean;
        s.occupancyMean = ts->occupancy().mean();
        stats_.tenants.push_back(s);
    }
    return stats_;
}

void
QeiSystem::BlockingEngine::pumpAll()
{
    // A completion can unblock any lane waiting on its accelerator.
    for (Lane& lane : lanes_)
        pump(lane);
}

void
QeiSystem::BlockingEngine::pump(Lane& lane)
{
    // Two-pass issue: a round-robin guaranteed pass (every tenant up
    // to its quota share), then — only when that pass stalls — one
    // work-conserving borrow (Weighted / no-quota tenants may exceed
    // their share on idle capacity). Hard shares never borrow.
    while (true) {
        bool progress = false;
        for (int i = 0; i < tenants_; ++i) {
            const int t = (lane.rrCursor + i) % tenants_;
            if (tryIssue(lane, t, false)) {
                progress = true;
                lane.rrCursor = (t + 1) % tenants_;
            }
        }
        if (!progress && quotaOn_ && quota_.share != TenantShare::Hard) {
            for (int i = 0; i < tenants_; ++i) {
                const int t = (lane.rrCursor + i) % tenants_;
                if (tryIssue(lane, t, true)) {
                    progress = true;
                    lane.rrCursor = (t + 1) % tenants_;
                    break;
                }
            }
        }
        if (!progress)
            break;
    }
}

bool
QeiSystem::BlockingEngine::tryIssue(Lane& lane, int tenant,
                                    bool allow_borrow)
{
    std::deque<Pending>& q =
        lane.pending[static_cast<std::size_t>(tenant)];
    if (q.empty() || lane.inflight >= model_.maxInflight)
        return false;
    const Pending head = q.front();
    const QueryJob& job = jobs_[head.jobIdx];
    Accelerator* target = nullptr;
    if (!sys_.plannerKeepsOnCore(job)) {
        target = &sys_.acceleratorFor(job.keyAddr, lane.core);
        const auto aid = static_cast<std::size_t>(target->id());
        if (reserved_[aid] >= target->params().qstEntries)
            return false; // software waits for a slot (Sec. IV-A)
        const std::size_t slot = tenantSlot(*target, tenant);
        // Hard partitions never exceed their share; Weighted shares
        // borrow idle capacity, but only in the borrow pass.
        if (quotaOn_ && reservedTenant_[slot] >= guaranteed_[slot] &&
            (quota_.share == TenantShare::Hard || !allow_borrow))
            return false;
    }

    lane.fetchTime =
        std::max(lane.fetchTime, static_cast<double>(events_.now()));
    lane.fetchTime += model_.issueGap;
    stats_.coreInstructions += model_.windowInstr;
    const Cycles issueAt = static_cast<Cycles>(lane.fetchTime);
    const Cycles queueWait = timed_ && issueAt > head.arrivedAt
                                 ? issueAt - head.arrivedAt
                                 : 0;
    const Issued issued{head.jobIdx, &lane, tenant, issueAt, queueWait,
                        target};

    q.pop_front();
    --pendingTotal_;
    ++issued_;
    ++lane.inflight;
    ++inflight_;
    inflightPeak_ =
        std::max(inflightPeak_, static_cast<double>(inflight_));

    if (target == nullptr) {
        // Planned core execution: the core runs the walk itself (no
        // trap overhead — this is a decision, not a fault) and its
        // pipeline stays busy until the walk retires. No QST slot is
        // touched.
        QstEntry entry = sys_.coreExecute(job, head.jobIdx, issueAt);
        entry.tenant = tenant;
        lane.fetchTime += static_cast<double>(entry.completed - issueAt);
        events_.scheduleAt(entry.completed, [this, issued, entry]() {
            complete(issued, entry);
        });
        return true;
    }

    const Cycles submitAt =
        issueAt + sys_.submitLatency(lane.core, *target, issueAt);
    ++reserved_[static_cast<std::size_t>(target->id())];
    ++reservedTenant_[tenantSlot(*target, tenant)];
    const int held = ++tenantInflight_[static_cast<std::size_t>(tenant)];
    if (TenantStats* ts = tenantStats(tenant))
        ts->occupancy().sample(static_cast<double>(held));
    events_.scheduleAt(submitAt, [this, issued]() { submit(issued); });
    return true;
}

void
QeiSystem::BlockingEngine::submit(const Issued& q)
{
    const QueryJob& j = jobs_[q.jobIdx];
    const int slot = q.target->enqueue(
        j.headerAddr, j.keyAddr, kNullAddr, QueryMode::Blocking,
        q.jobIdx,
        [this, q](const QstEntry& raw) {
            sys_.recoverThen(raw, jobs_[q.jobIdx],
                             [this, q](const QstEntry& entry) {
                                 complete(q, entry);
                             });
        },
        q.tenant);
    simAssert(slot >= 0, "QST overflow despite software tracking");
}

void
QeiSystem::BlockingEngine::complete(const Issued& q,
                                    const QstEntry& entry)
{
    const Cycles now = events_.now();
    const Cycles respLat =
        q.target != nullptr
            ? sys_.responseLatency(q.lane->core, *q.target, now)
            : 0;
    lastRetire_ = std::max(lastRetire_, now + respLat);
    const std::uint64_t digest =
        sys_.retire(stats_, jobs_[q.jobIdx], entry, q.issueAt, respLat,
                    q.queueWait);
    if (accounting_)
        stats_.admittedChecksum ^= digest;
    if (admission_ != nullptr) {
        // Admitted completions only: degraded work must not steer the
        // Adaptive window, so the admission decision stream is
        // identical whether shed queries are dropped or degraded.
        admission_->onAdmittedCompletion(static_cast<double>(
            q.queueWait + ((now + respLat) - q.issueAt)));
    }
    --q.lane->inflight;
    --inflight_;
    if (q.target != nullptr) {
        --reserved_[static_cast<std::size_t>(q.target->id())];
        --reservedTenant_[tenantSlot(*q.target, q.tenant)];
        --tenantInflight_[static_cast<std::size_t>(q.tenant)];
    }
    pumpAll();
}

void
QeiSystem::BlockingEngine::arrive(const traffic::Arrival& a)
{
    // Each arrival passes the admission layer, then either joins its
    // tenant's FIFO, degrades to the core path, or is dropped.
    TenantStats* ts = tenantStats(a.tenant);
    if (ts != nullptr)
        ts->offered().inc();
    if (admission_ == nullptr ||
        admission_->decide(a.tenant, a.tick, pendingTotal_)) {
        if (ts != nullptr)
            ts->admitted().inc();
        laneFor(a.queryIndex)
            .pending[static_cast<std::size_t>(a.tenant)]
            .push_back(Pending{a.queryIndex, a.tick});
        ++pendingTotal_;
        pumpAll();
        return;
    }
    ts->shed().inc();
    ++stats_.sheddedQueries;
    // Shedding IS forward progress: a long shed interval must not trip
    // the no-retire watchdog.
    sys_.watchdog().noteProgress();
    if (degrade_)
        degradeToCore(a, *ts);
}

void
QeiSystem::BlockingEngine::degradeToCore(const traffic::Arrival& a,
                                         TenantStats& ts)
{
    admission_->onDegraded();
    ts.degraded().inc();
    ++stats_.degradedQueries;
    const Cycles start = std::max(degradeClock_, a.tick);
    QstEntry entry =
        sys_.coreExecute(jobs_[a.queryIndex], a.queryIndex, start);
    entry.tenant = a.tenant;
    degradeClock_ = entry.completed;
    ++degrading_;
    const Cycles wait = start - a.tick;
    events_.scheduleAt(entry.completed, [this, entry, start, wait, a]() {
        sys_.retire(stats_, jobs_[a.queryIndex], entry, start, 0, wait,
                    /*degraded=*/true);
        lastRetire_ = std::max(lastRetire_, entry.completed);
        --degrading_;
    });
}

QeiRunStats
QeiSystem::runBlocking(const std::vector<QueryJob>& jobs,
                       int issuing_core, const RoiProfile& profile)
{
    return BlockingEngine(*this, jobs, profile, issuing_core, 1)
        .run(nullptr);
}

QeiRunStats
QeiSystem::runBlockingMultiCore(const std::vector<QueryJob>& jobs,
                                int cores, const RoiProfile& profile)
{
    simAssert(cores > 0 && cores <= memory_.cores(),
              "{} issuing cores on a {}-core chip", cores,
              memory_.cores());
    return BlockingEngine(*this, jobs, profile, 0, cores).run(nullptr);
}

QeiRunStats
QeiSystem::runArrivals(const std::vector<QueryJob>& jobs,
                       int issuing_core, const RoiProfile& profile,
                       const std::vector<traffic::Arrival>& arrivals)
{
    return BlockingEngine(*this, jobs, profile, issuing_core, 1)
        .run(&arrivals);
}

QeiRunStats
QeiSystem::runNonBlocking(const std::vector<QueryJob>& jobs,
                          int issuing_core, const RoiProfile& profile,
                          int poll_batch)
{
    QeiRunStats stats;
    if (!beginRun(stats, jobs.size()))
        return stats;

    // QUERY_NB retires as soon as the accelerator accepts it: the only
    // core-side costs are the issue slot and the polling loop.
    // Issue cost per query: the surrounding work plus ~2 instructions
    // (address setup + the store-like QUERY_NB).
    const std::uint32_t issueInstr = profile.nonQueryInstrPerOp + 2;
    const double issueGap =
        static_cast<double>(issueInstr) / chip_.core.issueWidth +
        profile.frontendStallPerInstr * issueInstr;
    // SNAPSHOT_READ poll: one wide load + mask test (Sec. IV-A).
    constexpr std::uint32_t kPollInstr = 4;
    constexpr Cycles kPollInterval = 50;

    std::size_t nextJob = 0;
    double fetchTime = 0.0;
    Cycles lastDone = 0;
    int inflight = 0;
    double inflightPeak = 0.0;
    std::size_t completedInBatch = 0;
    std::size_t batchTarget = 0;

    // Hand job `jobIdx` to its accelerator; if the target QST is full
    // (software over-filled a hot instance), retry under bounded
    // exponential backoff — the paper notes an overflow "will prevent
    // the accelerator from accepting further query requests", and a
    // fixed short retry hammers a fault-shrunken table.
    static constexpr Cycles kBackoffBase = 4;
    static constexpr Cycles kBackoffCap = 64;
    std::function<void(std::size_t, Cycles, Cycles)> tryEnqueue =
        [&](std::size_t jobIdx, Cycles issueAt, Cycles backoff) {
            const QueryJob& j = jobs[jobIdx];
            Accelerator& target =
                acceleratorFor(j.keyAddr, issuing_core);
            if (!target.hasFreeSlot()) {
                ++stats.qstBackoffs;
                backoffs_.inc();
                if (faults_ != nullptr)
                    faults_->onBackoff();
                events_.schedule(
                    backoff, [&tryEnqueue, jobIdx, issueAt, backoff] {
                        tryEnqueue(jobIdx, issueAt,
                                   std::min<Cycles>(backoff * 2,
                                                    kBackoffCap));
                    });
                return;
            }
            const int slot = target.enqueue(
                j.headerAddr, j.keyAddr, j.resultAddr,
                QueryMode::NonBlocking, jobIdx,
                [&, jobIdx, issueAt](const QstEntry& raw) {
                    // The query retired at issue; the result is read
                    // by the polling loop, whose cost is charged in
                    // aggregate below — so no Response component here.
                    const auto finish = [&, jobIdx,
                                         issueAt](const QstEntry& entry) {
                        lastDone = std::max(lastDone, events_.now());
                        retire(stats, jobs[jobIdx], entry, issueAt, 0);
                        --inflight;
                        ++completedInBatch;
                    };
                    recoverThen(raw, jobs[jobIdx], finish);
                });
            simAssert(slot >= 0, "enqueue failed with a free slot");
        };

    std::function<void()> issueBatch = [&]() {
        batchTarget = std::min<std::size_t>(
            static_cast<std::size_t>(poll_batch), jobs.size() - nextJob);
        completedInBatch = 0;
        if (batchTarget == 0)
            return;
        for (std::size_t k = 0; k < batchTarget; ++k) {
            const QueryJob& job = jobs[nextJob];
            if (plannerKeepsOnCore(job)) {
                // Planned core execution (see the blocking engine).
                // The "non-blocking" query degenerates to a
                // synchronous software walk on the issuing core.
                fetchTime = std::max(
                    fetchTime, static_cast<double>(events_.now()));
                fetchTime += issueGap;
                stats.coreInstructions += issueInstr;
                const Cycles issueAt = static_cast<Cycles>(fetchTime);
                QstEntry entry = coreExecute(job, nextJob, issueAt);
                entry.mode = QueryMode::NonBlocking;
                fetchTime += static_cast<double>(entry.completed - issueAt);
                ++nextJob;
                ++inflight;
                inflightPeak = std::max(
                    inflightPeak, static_cast<double>(inflight));
                events_.scheduleAt(
                    entry.completed,
                    [this, &jobs, entry, issueAt, &stats, &inflight,
                     &lastDone, &completedInBatch]() {
                        lastDone = std::max(lastDone, events_.now());
                        // The core fills the result slot the polling
                        // loop reads.
                        writeResultSlot(entry);
                        retire(stats, jobs[entry.queryId], entry,
                               issueAt, 0);
                        --inflight;
                        ++completedInBatch;
                    });
                continue;
            }
            Accelerator& target =
                acceleratorFor(job.keyAddr, issuing_core);

            fetchTime = std::max(
                fetchTime, static_cast<double>(events_.now()));
            fetchTime += issueGap;
            stats.coreInstructions += issueInstr;

            const Cycles issueAt = static_cast<Cycles>(fetchTime);
            const Cycles submitAt =
                issueAt + submitLatency(issuing_core, target, issueAt);
            const std::size_t jobIdx = nextJob;
            ++nextJob;
            ++inflight;
            inflightPeak =
                std::max(inflightPeak, static_cast<double>(inflight));

            events_.scheduleAt(submitAt, [&tryEnqueue, jobIdx,
                                          issueAt] {
                tryEnqueue(jobIdx, issueAt, kBackoffBase);
            });
        }
    };

    // Poll-and-refill loop: issue a batch, poll until it completes,
    // then issue the next.
    const RunCounters before = runCountersNow();
    while (nextJob < jobs.size()) {
        issueBatch();
        armFaultDaemons();
        events_.run();
        simAssert(completedInBatch == batchTarget,
                  "non-blocking batch lost queries ({}/{})",
                  completedInBatch, batchTarget);
        // Polling cost: the software polled roughly every
        // kPollInterval cycles while the batch was in flight, and the
        // result only becomes visible at the first poll after
        // completion.
        const double batchSpan = std::max(
            0.0, static_cast<double>(lastDone) - fetchTime);
        const auto polls = static_cast<std::uint64_t>(
            batchSpan / kPollInterval + 1.0);
        stats.coreInstructions += polls * kPollInstr;
        fetchTime = std::max(fetchTime, static_cast<double>(lastDone)) +
                    static_cast<double>(kPollInstr) /
                        chip_.core.issueWidth;
    }

    stats.cycles = std::max(
        lastDone, static_cast<Cycles>(fetchTime));
    stats.maxInFlightObserved = inflightPeak;
    finishRun(stats, before);
    return stats;
}

QeiRunStats
QeiSystem::runBatched(const std::vector<QueryJob>& jobs,
                      int issuing_core, const RoiProfile& profile,
                      const BatchConfig& batch)
{
    QeiRunStats stats;
    batchStats_->reset();
    if (!beginRun(stats, jobs.size()))
        return stats;
    simAssert(batch.enabled(),
              "runBatched needs a batch size > 1 (got {})", batch.size);

    // Planner partition: a QUERY_BATCH is planned as a unit, so
    // planner-kept queries never reach the reorderer — the class-level
    // verdict means whole batches either offload or stay on the core.
    // origIdx maps reorderer indices back to the original job vector
    // (identity when the planner keeps nothing).
    const RunCounters before = runCountersNow();
    std::vector<std::size_t> coreJobs;
    std::vector<std::size_t> origIdx;
    std::vector<QueryJob> accelJobs;
    origIdx.reserve(jobs.size());
    accelJobs.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (plannerKeepsOnCore(jobs[i])) {
            coreJobs.push_back(i);
        } else {
            origIdx.push_back(i);
            accelJobs.push_back(jobs[i]);
        }
    }

    // The sequence-aware reorderer: group by target accelerator, sort
    // for locality, chunk, interleave.
    const Topology::RouteContext rctx = routeContext();
    const std::vector<PlannedBatch> plan = planQueryBatches(
        accelJobs, batch, [&](const QueryJob& j) {
            return topo_.route(j.keyAddr, issuing_core, rctx);
        });

    // QUERY_BATCH is store-like (like QUERY_NB): the descriptor
    // retires once accepted and software polls for the results, so the
    // core-side cost per batch is the surrounding work for its keys,
    // ~2 instructions of descriptor setup, and one store per key into
    // the descriptor's key vector.
    constexpr std::uint32_t kPollInstr = 4;
    constexpr Cycles kPollInterval = 50;

    double fetchTime = 0.0;
    Cycles lastDone = 0;
    std::size_t completedQueries = 0;
    std::size_t completedBatches = 0;

    // Hand descriptor `planIdx` to its accelerator; one admission
    // decision covers the whole batch.
    auto admit = [&](std::size_t planIdx, Cycles issueAt) {
            const PlannedBatch& pb = plan[planIdx];
            Accelerator& target = accelerator(pb.accel);
            const int count = static_cast<int>(pb.jobIdxs.size());
            std::vector<Accelerator::BatchMember> members;
            members.reserve(pb.jobIdxs.size());
            for (std::size_t planIdx2 : pb.jobIdxs) {
                const std::size_t jobIdx = origIdx[planIdx2];
                const QueryJob& j = jobs[jobIdx];
                Accelerator::BatchMember m;
                m.headerAddr = j.headerAddr;
                m.keyAddr = j.keyAddr;
                m.resultAddr = j.resultAddr;
                m.queryId = jobIdx;
                m.onComplete = [this, &jobs, &stats, &lastDone,
                                &completedQueries, jobIdx,
                                issueAt](const QstEntry& raw) {
                    // Results surface through the polling loop,
                    // charged in aggregate below.
                    const auto finish = [this, &jobs, &stats, &lastDone,
                                         &completedQueries, jobIdx,
                                         issueAt](const QstEntry& entry) {
                        lastDone = std::max(lastDone, events_.now());
                        retire(stats, jobs[jobIdx], entry, issueAt, 0);
                        ++completedQueries;
                    };
                    recoverThen(raw, jobs[jobIdx], finish);
                };
                members.push_back(std::move(m));
            }
            const int bid = target.enqueueBatch(
                std::move(members), QueryMode::NonBlocking,
                batch.coalesce,
                [&completedBatches] { ++completedBatches; });
            simAssert(bid >= 0,
                      "enqueueBatch failed after canAcceptBatch");
            batchStats_->batches().inc();
            batchStats_->queries().inc(
                static_cast<std::uint64_t>(count));
        };

    // Per-accelerator FIFO admission: descriptors park in arrival
    // order and only the head of each queue retries (bounded-interval
    // polling). Independent per-descriptor backoff would have every
    // parked descriptor spinning for the whole run; head-only retry
    // keeps the admission traffic flat and the admission order
    // deterministic.
    constexpr Cycles kAdmitRetry = 8;
    struct PendingDesc
    {
        std::size_t planIdx;
        Cycles issueAt;
    };
    std::vector<std::vector<PendingDesc>> pending(accels_.size());
    std::vector<std::size_t> pendingHead(accels_.size(), 0);
    std::vector<std::uint8_t> retryArmed(accels_.size(), 0);
    std::function<void(std::size_t)> drainAdmissions =
        [&](std::size_t a) {
            auto& queue = pending[a];
            std::size_t& head = pendingHead[a];
            while (head < queue.size()) {
                const PendingDesc& d = queue[head];
                const int count = static_cast<int>(
                    plan[d.planIdx].jobIdxs.size());
                if (!accelerator(plan[d.planIdx].accel)
                         .canAcceptBatch(count)) {
                    batchStats_->backoffs().inc();
                    if (faults_ != nullptr)
                        faults_->onBackoff();
                    if (!retryArmed[a]) {
                        retryArmed[a] = 1;
                        events_.schedule(
                            kAdmitRetry, [&drainAdmissions,
                                          &retryArmed, a] {
                                retryArmed[a] = 0;
                                drainAdmissions(a);
                            });
                    }
                    return;
                }
                admit(d.planIdx, d.issueAt);
                ++head;
            }
        };

    // Planner-kept jobs run on the issuing core first (order is
    // immaterial: store-like semantics and an order-independent
    // checksum), each a synchronous software walk.
    for (const std::size_t jobIdx : coreJobs) {
        const QueryJob& job = jobs[jobIdx];
        const std::uint32_t issueInstr = profile.nonQueryInstrPerOp + 1;
        fetchTime +=
            static_cast<double>(issueInstr) / chip_.core.issueWidth +
            profile.frontendStallPerInstr * issueInstr;
        stats.coreInstructions += issueInstr;
        const Cycles issueAt = static_cast<Cycles>(fetchTime);
        QstEntry entry = coreExecute(job, jobIdx, issueAt);
        entry.mode = QueryMode::NonBlocking;
        fetchTime += static_cast<double>(entry.completed - issueAt);
        events_.scheduleAt(
            entry.completed,
            [this, &jobs, entry, issueAt, &stats, &lastDone,
             &completedQueries]() {
                lastDone = std::max(lastDone, events_.now());
                writeResultSlot(entry);
                retire(stats, jobs[entry.queryId], entry, issueAt, 0);
                ++completedQueries;
            });
    }

    for (std::size_t p = 0; p < plan.size(); ++p) {
        const auto keys =
            static_cast<std::uint32_t>(plan[p].jobIdxs.size());
        const std::uint32_t issueInstr =
            keys * profile.nonQueryInstrPerOp + 2 + keys;
        fetchTime +=
            static_cast<double>(issueInstr) / chip_.core.issueWidth +
            profile.frontendStallPerInstr * issueInstr;
        stats.coreInstructions += issueInstr;

        const Cycles issueAt = static_cast<Cycles>(fetchTime);
        Accelerator& target = accelerator(plan[p].accel);
        // One NoC header for the whole descriptor; the key vector
        // streams behind it at one beat per key.
        const Cycles submitAt =
            issueAt + submitLatency(issuing_core, target, issueAt) +
            static_cast<Cycles>(keys - 1);
        const auto accelIdx = static_cast<std::size_t>(plan[p].accel);
        simAssert(accelIdx < accels_.size(),
                  "planned batch routed to bad accel {}", plan[p].accel);
        events_.scheduleAt(
            submitAt, [&pending, &drainAdmissions, accelIdx, p,
                       issueAt] {
                pending[accelIdx].push_back(PendingDesc{p, issueAt});
                drainAdmissions(accelIdx);
            });
    }

    armFaultDaemons();
    events_.run();
    simAssert(completedQueries == jobs.size(),
              "batched run lost queries ({}/{})", completedQueries,
              jobs.size());
    simAssert(completedBatches == plan.size(),
              "batched run lost descriptors ({}/{})", completedBatches,
              plan.size());

    // Aggregate SNAPSHOT_READ polling while results were outstanding.
    const double span =
        std::max(0.0, static_cast<double>(lastDone) - fetchTime);
    const auto polls =
        static_cast<std::uint64_t>(span / kPollInterval + 1.0);
    stats.coreInstructions += polls * kPollInstr;

    stats.cycles = std::max(lastDone, static_cast<Cycles>(fetchTime));
    finishRun(stats, before);
    stats.batches = batchStats_->batches().value();
    stats.batchedQueries = batchStats_->queries().value();
    stats.batchBackoffs = batchStats_->backoffs().value();
    return stats;
}

} // namespace qei
