#include "issue_engine.hh"

#include <algorithm>
#include <limits>

#include "qei/admission.hh"

namespace qei {

namespace {

// SNAPSHOT_READ poll: one wide load + mask test (Sec. IV-A).
constexpr std::uint32_t kPollInstr = 4;
constexpr Cycles kPollInterval = 50;
// QUERY_NB retry on a full QST: bounded exponential backoff.
constexpr Cycles kBackoffBase = 4;
constexpr Cycles kBackoffCap = 64;
// QUERY_BATCH head-of-FIFO admission retry interval.
constexpr Cycles kAdmitRetry = 8;

} // namespace

IssueEngine::IssueEngine(QeiSystem& sys, const std::vector<QueryJob>& jobs,
                         const RoiProfile& profile, int cores,
                         Submit submit, int poll_batch, BatchConfig batch)
    : sys_(sys), events_(sys.events_), core_(sys.chip_.core), jobs_(jobs),
      profile_(profile), submit_(submit), batch_(batch)
{
    simAssert(cores > 0 && cores <= sys.memory_.cores(),
              "{} issuing cores on a {}-core chip", cores,
              sys.memory_.cores());
    lanes_.resize(static_cast<std::size_t>(cores));
    for (int c = 0; c < cores; ++c)
        lanes_[static_cast<std::size_t>(c)].core = c;
    // QUERY_B: with nonQuery+1 instructions between queries, the OoO
    // window covers at most ROB / that many outstanding queries.
    const int rob = core_.robEntries /
                    static_cast<int>(profile.nonQueryInstrPerOp + 1);
    window_ = submit_ == Submit::NonBlocking ? poll_batch
              : submit_ == Submit::Batch
                  ? std::numeric_limits<int>::max()
                  : std::min(std::max(1, rob), core_.loadQueueEntries);
}

double
IssueEngine::issueGap(std::uint32_t instr, std::uint32_t mispredicts) const
{
    // The instructions issue at the core's width (QUERY_B takes no
    // slot of its own) and each pays the front-end stall; each
    // mispredict pays its penalty.
    const std::uint32_t slots = storeLike() ? instr : instr - 1;
    return static_cast<double>(slots) / core_.issueWidth +
           profile_.frontendStallPerInstr * instr +
           static_cast<double>(mispredicts) *
               static_cast<double>(core_.branchMispredictPenalty);
}

QeiRunStats
IssueEngine::run(const std::vector<traffic::Arrival>* arrivals)
{
    if (submit_ == Submit::Batch)
        sys_.batchStats_->reset();
    stats_.queries = jobs_.size();
    sys_.breakdown_.reset();
    sys_.driverStats_->reset();
    if (jobs_.empty()) {
        sys_.fillBreakdownStats(stats_);
        return stats_;
    }

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

    const std::size_t accels = sys_.accels_.size();
    const std::size_t slots = accels * static_cast<std::size_t>(tenants_);
    reserved_.assign(accels, 0);
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
    admitFifo_.resize(accels);
    retryArmed_.assign(accels, 0);
    for (Lane& lane : lanes_)
        lane.pending.resize(static_cast<std::size_t>(tenants_));

    const QeiSystem::RunCounters before = sys_.runCountersNow();
    if (submit_ == Submit::Batch) {
        queueBatches();
    } else if (!timed_) {
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            laneFor(j).pending[0].push_back(Pending{j, 0});
        pendingTotal_ = jobs_.size();
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
    // Work still queued after a drain is the next poll batch. (NB's
    // next batch issues at run()'s final now(): the last real event,
    // not the last completion.)
    do {
        const std::size_t issuedBefore = issued_;
        pumpAll();
        sys_.armFaultDaemons();
        events_.run();
        const bool more = pendingTotal_ > 0;
        simAssert(inflight_ == 0 && degrading_ == 0 &&
                      openDescriptors_ == 0 &&
                      (more ? submit_ == Submit::NonBlocking &&
                                  issued_ > issuedBefore
                            : issued_ + stats_.sheddedQueries ==
                                  jobs_.size()),
                  "issue engine stalled: {} issued + {} shed of {}, {} "
                  "in flight, {} queued, {} degrading, {} descriptors",
                  issued_, stats_.sheddedQueries, jobs_.size(), inflight_,
                  pendingTotal_, degrading_, openDescriptors_);
        onDrained();
    } while (pendingTotal_ > 0);

    // A lane's fetch clock outruns its last retirement only by the
    // store-like polling loop.
    stats_.cycles = lastRetire_;
    for (const Lane& lane : lanes_) {
        stats_.cycles =
            std::max(stats_.cycles, static_cast<Cycles>(lane.fetchTime));
    }
    stats_.maxInFlightObserved = inflightPeak_;
    sys_.finishRun(stats_, before);
    if (submit_ == Submit::Batch) {
        stats_.batches = sys_.batchStats_->batches().value();
        stats_.batchedQueries = sys_.batchStats_->queries().value();
        stats_.batchBackoffs = sys_.batchStats_->backoffs().value();
    }
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
IssueEngine::queueBatches()
{
    simAssert(batch_.enabled(),
              "QUERY_BATCH needs a batch size > 1 (got {})", batch_.size);
    // Planner partition: a QUERY_BATCH is planned as a unit, so
    // planner-kept queries never reach the reorderer (the class-level
    // verdict means whole batches either offload or stay on the core).
    // They queue first, each a synchronous software walk; order is
    // immaterial under store-like semantics and an order-independent
    // checksum.
    Lane& lane = lanes_[0];
    std::deque<Pending>& fifo = lane.pending[0];
    std::vector<std::size_t> origIdx;
    std::vector<QueryJob> accelJobs;
    origIdx.reserve(jobs_.size());
    accelJobs.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (sys_.plannerKeepsOnCore(jobs_[i])) {
            fifo.push_back(Pending{i, 0});
        } else {
            origIdx.push_back(i);
            accelJobs.push_back(jobs_[i]);
        }
    }

    // The sequence-aware reorderer: group by target accelerator, sort
    // for locality, chunk, interleave.
    const Topology::RouteContext rctx = sys_.routeContext();
    plan_ = planQueryBatches(accelJobs, batch_, [&](const QueryJob& j) {
        return sys_.topo_.route(j.keyAddr, lane.core, rctx);
    });
    for (PlannedBatch& pb : plan_) {
        simAssert(pb.accel >= 0 &&
                      static_cast<std::size_t>(pb.accel) <
                          sys_.accels_.size(),
                  "planned batch routed to bad accel {}", pb.accel);
        for (std::size_t& idx : pb.jobIdxs)
            idx = origIdx[idx];
        fifo.push_back(Pending{pb.jobIdxs.front(), 0, &pb});
    }
    pendingTotal_ = fifo.size();
}

void
IssueEngine::pumpAll()
{
    // A completion can unblock any lane waiting on its accelerator.
    for (Lane& lane : lanes_)
        pump(lane);
}

void
IssueEngine::pump(Lane& lane)
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
IssueEngine::tryIssue(Lane& lane, int tenant, bool allow_borrow)
{
    std::deque<Pending>& q =
        lane.pending[static_cast<std::size_t>(tenant)];
    if (q.empty() || lane.inflight >= window_)
        return false;
    const Pending head = q.front();
    const QueryJob& job = jobs_[head.jobIdx];
    Accelerator* target = nullptr;
    if (head.batch != nullptr) {
        target = &sys_.accelerator(head.batch->accel);
    } else if (submit_ != Submit::Batch && !sys_.plannerKeepsOnCore(job)) {
        // (QUERY_BATCH consulted the planner when it planned.)
        target = &sys_.acceleratorFor(job.keyAddr, lane.core);
    }
    if (target != nullptr && submit_ == Submit::Blocking) {
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

    // Issue instructions per unit: each query's surrounding work plus
    // its QUERY instruction; QUERY_NB adds its address setup, and a
    // descriptor ~2 instructions of setup.
    const std::size_t queries =
        head.batch != nullptr ? head.batch->jobIdxs.size() : 1;
    const std::uint32_t instr =
        static_cast<std::uint32_t>(queries) *
            (profile_.nonQueryInstrPerOp + 1) +
        (head.batch != nullptr                ? 2u
         : submit_ == Submit::NonBlocking ? 1u
                                          : 0u);
    lane.fetchTime =
        std::max(lane.fetchTime, static_cast<double>(events_.now()));
    // Store-like units pass 0 mispredicts (ROADMAP item 2c).
    lane.fetchTime += issueGap(
        instr, storeLike() ? 0 : profile_.nonQueryMispredictsPerOp);
    stats_.coreInstructions += instr;
    const Cycles issueAt = static_cast<Cycles>(lane.fetchTime);
    const Cycles queueWait = timed_ && issueAt > head.arrivedAt
                                 ? issueAt - head.arrivedAt
                                 : 0;
    const Issued issued{head.jobIdx, &lane,  tenant,    issueAt,
                        queueWait,   target, head.batch};

    q.pop_front();
    --pendingTotal_;
    issued_ += queries;
    ++lane.inflight;
    inflight_ += static_cast<int>(queries);
    inflightPeak_ =
        std::max(inflightPeak_, static_cast<double>(inflight_));

    if (target == nullptr) {
        // Planned core execution: the core runs the walk itself (no
        // trap overhead — this is a decision, not a fault) and its
        // pipeline stays busy until the walk retires. No QST slot is
        // touched.
        QstEntry entry = sys_.coreExecute(job, head.jobIdx, issueAt);
        entry.tenant = tenant;
        if (storeLike())
            entry.mode = QueryMode::NonBlocking;
        lane.fetchTime += static_cast<double>(entry.completed - issueAt);
        events_.scheduleAt(entry.completed, [this, issued, entry]() {
            complete(issued, entry);
        });
        return true;
    }

    // One NoC header per unit; a descriptor's key vector streams
    // behind it at one beat per key.
    const Cycles submitAt =
        issueAt + sys_.submitLatency(lane.core, *target, issueAt) +
        static_cast<Cycles>(queries - 1);
    if (submit_ == Submit::Blocking) {
        ++reserved_[static_cast<std::size_t>(target->id())];
        ++reservedTenant_[tenantSlot(*target, tenant)];
        const int held =
            ++tenantInflight_[static_cast<std::size_t>(tenant)];
        if (TenantStats* ts = tenantStats(tenant))
            ts->occupancy().sample(static_cast<double>(held));
    }
    events_.scheduleAt(submitAt,
                       [this, issued]() { submit(issued, kBackoffBase); });
    return true;
}

void
IssueEngine::submit(const Issued& q, Cycles backoff)
{
    if (q.batch != nullptr) {
        const auto a = static_cast<std::size_t>(q.target->id());
        admitFifo_[a].push_back(q);
        admitBatches(a);
        return;
    }
    const QueryJob& j = jobs_[q.jobIdx];
    Accelerator* target = q.target;
    if (submit_ == Submit::NonBlocking) {
        // Software tracks no QUERY_NB reservations: route again on
        // arrival (occupancy-aware routes read the live QST) and, if
        // the table is full, retry under bounded exponential backoff —
        // the paper notes an overflow "will prevent the accelerator
        // from accepting further query requests", and a fixed short
        // retry hammers a fault-shrunken table.
        target = &sys_.acceleratorFor(j.keyAddr, q.lane->core);
        if (!target->hasFreeSlot()) {
            ++stats_.qstBackoffs;
            sys_.backoffs_.inc();
            if (sys_.faults_ != nullptr)
                sys_.faults_->onBackoff();
            events_.schedule(backoff, [this, q, backoff] {
                submit(q, std::min<Cycles>(backoff * 2, kBackoffCap));
            });
            return;
        }
    }
    const int slot = target->enqueue(
        j.headerAddr, j.keyAddr, storeLike() ? j.resultAddr : kNullAddr,
        storeLike() ? QueryMode::NonBlocking : QueryMode::Blocking,
        q.jobIdx, onComplete(q), q.tenant);
    simAssert(slot >= 0, "QST overflow despite a free or reserved slot");
}

void
IssueEngine::admitBatches(std::size_t accel)
{
    // Per-accelerator FIFO admission: descriptors park in arrival
    // order and only the head retries (bounded-interval polling).
    // Independent per-descriptor backoff would have every parked
    // descriptor spinning for the whole run; head-only retry keeps
    // the admission traffic flat and the admission order
    // deterministic. One admission decision covers a whole batch.
    std::deque<Issued>& fifo = admitFifo_[accel];
    while (!fifo.empty()) {
        const Issued d = fifo.front();
        const std::vector<std::size_t>& keys = d.batch->jobIdxs;
        const auto count = static_cast<int>(keys.size());
        if (!d.target->canAcceptBatch(count)) {
            sys_.batchStats_->backoffs().inc();
            if (sys_.faults_ != nullptr)
                sys_.faults_->onBackoff();
            if (!retryArmed_[accel]) {
                retryArmed_[accel] = 1;
                events_.schedule(kAdmitRetry, [this, accel] {
                    retryArmed_[accel] = 0;
                    admitBatches(accel);
                });
            }
            return;
        }
        fifo.pop_front();
        std::vector<Accelerator::BatchMember> members;
        members.reserve(keys.size());
        for (const std::size_t jobIdx : keys) {
            const QueryJob& j = jobs_[jobIdx];
            Issued member = d;
            member.jobIdx = jobIdx;
            member.batch = nullptr;
            members.push_back({j.headerAddr, j.keyAddr, j.resultAddr,
                               jobIdx, onComplete(member)});
        }
        ++openDescriptors_;
        const int bid = d.target->enqueueBatch(
            std::move(members), QueryMode::NonBlocking, batch_.coalesce,
            [this] { --openDescriptors_; });
        simAssert(bid >= 0, "enqueueBatch failed after canAcceptBatch");
        sys_.batchStats_->batches().inc();
        sys_.batchStats_->queries().inc(
            static_cast<std::uint64_t>(count));
    }
}

Accelerator::CompletionFn
IssueEngine::onComplete(const Issued& q)
{
    // A faulted or flushed entry is first re-run in software, and
    // completes once that re-run's cycles have elapsed.
    return [this, q](const QstEntry& raw) {
        QstEntry entry = raw;
        const Cycles sw = sys_.recoverInSoftware(entry, jobs_[q.jobIdx]);
        if (sw > 0)
            events_.schedule(sw, [this, q, entry]() { complete(q, entry); });
        else
            complete(q, entry);
    };
}

void
IssueEngine::complete(const Issued& q, const QstEntry& entry)
{
    const Cycles now = events_.now();
    // Store-like units retired at issue; their results surface
    // through the polling loop, charged at each drain.
    const Cycles respLat =
        q.target != nullptr && !storeLike()
            ? sys_.responseLatency(q.lane->core, *q.target, now)
            : 0;
    lastRetire_ = std::max(lastRetire_, now + respLat);
    // A store-like query the core ran itself fills the result slot
    // the polling loop reads.
    if (q.target == nullptr && storeLike())
        sys_.writeResultSlot(entry);
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
    --inflight_;
    if (!storeLike()) {
        --q.lane->inflight;
        if (q.target != nullptr) {
            --reserved_[static_cast<std::size_t>(q.target->id())];
            --reservedTenant_[tenantSlot(*q.target, q.tenant)];
            --tenantInflight_[static_cast<std::size_t>(q.tenant)];
        }
    }
    pumpAll();
}

void
IssueEngine::onDrained()
{
    if (!storeLike())
        return;
    for (Lane& lane : lanes_) {
        // Polling cost: software polled roughly every kPollInterval
        // cycles while results were outstanding, and a result only
        // becomes visible at the first poll after it lands.
        const double span = std::max(
            0.0, static_cast<double>(lastRetire_) - lane.fetchTime);
        const auto polls =
            static_cast<std::uint64_t>(span / kPollInterval + 1.0);
        stats_.coreInstructions += polls * kPollInstr;
        // The window refills; NB's next batch issues after the poll.
        lane.inflight = 0;
        if (submit_ == Submit::NonBlocking) {
            lane.fetchTime =
                std::max(lane.fetchTime,
                         static_cast<double>(lastRetire_)) +
                static_cast<double>(kPollInstr) / core_.issueWidth;
        }
    }
}

void
IssueEngine::arrive(const traffic::Arrival& a)
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
    sys_.watchdog_->noteProgress();
    if (degrade_)
        degradeToCore(a, *ts);
}

void
IssueEngine::degradeToCore(const traffic::Arrival& a, TenantStats& ts)
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

} // namespace qei
