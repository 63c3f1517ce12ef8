#include "system.hh"

#include <algorithm>

#include "common/hash.hh"
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
    // Same steady state the main hierarchy runs in.
    warmLlc(*fallbackHierarchy_, vm_);
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

void
warmLlc(MemoryHierarchy& memory, const VirtualMemory& vm)
{
    vm.forEachMapping([&memory](Addr, Addr pfn) {
        const Addr base = pfn * kPageBytes;
        for (std::uint32_t off = 0; off < kPageBytes;
             off += kCacheLineBytes) {
            memory.preloadLlc(base + off);
        }
    });
}

} // namespace qei
