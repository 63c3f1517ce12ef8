#include "accelerator.hh"

#include <algorithm>
#include <cstring>

namespace qei {

namespace {

/** Result-slot status codes written for non-blocking queries. */
constexpr std::uint64_t kStatusPending = 0;
constexpr std::uint64_t kStatusFound = 1;
constexpr std::uint64_t kStatusNotFound = 2;
constexpr std::uint64_t kStatusErrorBase = 0x100;

std::uint64_t
statusFor(const QstEntry& entry)
{
    if (entry.error != QueryError::None) {
        return kStatusErrorBase |
               static_cast<std::uint64_t>(entry.error);
    }
    return entry.success ? kStatusFound : kStatusNotFound;
}

/**
 * Charge @p cycles of an entry's lifetime to one latency component.
 * Every scheduled delay between enqueue and completion goes through
 * here exactly once, so the per-entry attribution sums to the entry's
 * end-to-end residency in the accelerator.
 */
void
charge(QstEntry& entry, trace::LatencyComponent c, Cycles cycles)
{
    entry.attr[static_cast<std::size_t>(c)] += cycles;
}

} // namespace

Accelerator::Accelerator(int id, int tile, int home_core, AccelEnv& env,
                         const DpuParams& dpu_params,
                         const SchemeConfig* params_override)
    : SimObject(fmt("accel{}", id)), id_(id), tile_(tile),
      homeCore_(home_core), env_(env),
      params_(params_override ? *params_override : env.scheme),
      qst_(params_.qstEntries), dpu_(dpu_params),
      completions_(static_cast<std::size_t>(params_.qstEntries))
{
    adopt(qst_);
    adopt(dpu_);
    if (params_.translate == TranslatePath::DedicatedTlb ||
        params_.translate == TranslatePath::DeviceTlb) {
        dedicatedTlb_ = std::make_unique<Tlb>(
            kDedicatedTlbEntries, kDedicatedTlbHitLatency, "tlb");
        adopt(*dedicatedTlb_);
    }
}

void
Accelerator::setTraceSink(trace::TraceSink* sink)
{
    trace_ = sink;
    if (sink == nullptr)
        return;
    traceComp_ = sink->internComponent(fullPath());
    for (std::size_t i = 0; i < traceOp_.size(); ++i) {
        traceOp_[i] =
            sink->internName(toString(static_cast<MicroOpcode>(i)));
    }
    traceHeaderFetch_ = sink->internName("header_fetch");
    traceEnqueue_ = sink->internName("enqueue");
    traceCeeWait_ = sink->internName("cee_wait");
    traceDeliver_ = sink->internName("deliver");
    traceCompare_ = sink->internName("compare");
    traceHash_ = sink->internName("hash");
    traceTlbHit_ = sink->internName("tlb_hit");
    traceTlbWalk_ = sink->internName("tlb_walk");
}

void
Accelerator::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "queries", completed_,
                        "queries completed");
    registry.addCounter(base + "mem_accesses", memAccesses_,
                        "timed memory accesses issued");
    registry.addCounter(base + "micro_ops", microOps_,
                        "CFA micro-operations retired");
    registry.addCounter(base + "remote_compares", remoteCompares_,
                        "comparisons shipped to CHA comparators");
    registry.addCounter(base + "exceptions", exceptions_,
                        "queries completed with an error");
    registry.addCounter(base + "translation_cycles", translationCycles_,
                        "cycles spent translating addresses");
    registry.addCounter(base + "batches", batchesAccepted_,
                        "QUERY_BATCH descriptors accepted");
    registry.addCounter(base + "batch_header_hits", batchHeaderHits_,
                        "header fetches coalesced across batch members");
    registry.addCounter(base + "batch_line_hits", batchLineHits_,
                        "level-line fetches coalesced across members");
}

int
Accelerator::enqueue(Addr header_addr, Addr key_addr, Addr result_addr,
                     QueryMode mode, std::uint64_t query_id,
                     CompletionFn on_complete, int tenant)
{
    const int slot = qst_.allocate();
    if (slot < 0)
        return -1;
    QstEntry& entry = qst_.at(slot);
    entry.headerAddr = header_addr;
    entry.keyAddr = key_addr;
    entry.resultAddr = result_addr;
    entry.mode = mode;
    entry.queryId = query_id;
    entry.tenant = tenant;
    entry.enqueued = env_.events.now();
    completions_[static_cast<std::size_t>(slot)] =
        std::move(on_complete);
    qst_.sampleOccupancy();
    charge(entry, trace::LatencyComponent::QueueWait, 1);
    if (trace::active(trace_)) {
        trace_->record(trace::Category::Qst, traceComp_, traceEnqueue_,
                       query_id, env_.events.now(), 0);
    }
    // One cycle through the Query Queue before the CEE sees it.
    makeReady(slot, env_.events.now() + 1);
    return slot;
}

Accelerator::BatchCtx*
Accelerator::batchCtx(const QstEntry& entry)
{
    if (entry.batchId < 0)
        return nullptr;
    return batches_[static_cast<std::size_t>(entry.batchId)].get();
}

int
Accelerator::enqueueBatch(std::vector<BatchMember> members,
                          QueryMode mode, bool coalesce,
                          BatchDoneFn on_done)
{
    simAssert(!members.empty(), "empty QUERY_BATCH descriptor");
    const int window =
        batchWindowFor(static_cast<int>(members.size()));
    const int base = qst_.reserveWindow(window);
    if (base < 0)
        return -1; // no contiguous window; the caller backs off

    // Reuse a freed context slot or append a new one.
    std::size_t idx = 0;
    while (idx < batches_.size() && batches_[idx] != nullptr)
        ++idx;
    if (idx == batches_.size()) {
        batches_.emplace_back();
        lineStages_.emplace_back();
    }
    lineStages_[idx].clear();
    auto ctx = std::make_unique<BatchCtx>();
    ctx->id = static_cast<int>(idx);
    ctx->base = base;
    ctx->window = window;
    ctx->reservedMine.assign(static_cast<std::size_t>(window), 1);
    ctx->members = std::move(members);
    ctx->remaining = ctx->members.size();
    ctx->mode = mode;
    ctx->coalesce = coalesce;
    ctx->onDone = std::move(on_done);
    batches_[idx] = std::move(ctx);
    batchesAccepted_.inc();

    // Fill the window's idle slots; the remaining members stream in
    // as occupants deliver (a window may overlap a draining
    // predecessor's tail, whose slots hand over as they empty).
    BatchCtx& b = *batches_[idx];
    while (b.nextMember < b.members.size() && admitNextMember(b)) {
    }
    return static_cast<int>(idx);
}

bool
Accelerator::admitNextMember(BatchCtx& ctx)
{
    simAssert(ctx.nextMember < ctx.members.size(),
              "batch {} has no member left to admit", ctx.id);
    const int slot = qst_.allocateInWindow(ctx.base, ctx.window);
    if (slot < 0)
        return false; // occupied by a draining predecessor's tail
    BatchMember& m = ctx.members[ctx.nextMember++];
    QstEntry& entry = qst_.at(slot);
    entry.headerAddr = m.headerAddr;
    entry.keyAddr = m.keyAddr;
    entry.resultAddr = m.resultAddr;
    entry.mode = ctx.mode;
    entry.queryId = m.queryId;
    entry.enqueued = env_.events.now();
    entry.batchId = ctx.id;
    completions_[static_cast<std::size_t>(slot)] =
        std::move(m.onComplete);
    qst_.sampleOccupancy();
    charge(entry, trace::LatencyComponent::QueueWait, 1);
    if (trace::active(trace_)) {
        trace_->record(trace::Category::Qst, traceComp_, traceEnqueue_,
                       entry.queryId, env_.events.now(), 0);
    }
    makeReady(slot, env_.events.now() + 1);
    return true;
}

void
Accelerator::makeReady(int id, Cycles when)
{
    QstEntry& entry = qst_.at(id);
    entry.ready = true;
    // Capture the slot generation: if a flush releases (and software
    // re-fills) the slot before this event fires, the stale event must
    // not touch the new occupant.
    const std::uint32_t epoch = entry.epoch;
    env_.events.scheduleAt(std::max(when, env_.events.now()),
                           [this, id, epoch] { executeEntry(id, epoch); },
                           EventPriority::CfaTick);
}

Accelerator::XlatResult
Accelerator::translate(Addr vaddr, Cycles now)
{
    XlatResult out;
    const auto paddr = env_.vm.tryTranslate(vaddr);
    switch (params_.translate) {
      case TranslatePath::CoreL2Tlb: {
        Mmu* mmu = env_.coreMmus[static_cast<std::size_t>(homeCore_)];
        const Translation t = mmu->translateViaL2(vaddr, now);
        out.valid = t.valid;
        out.paddr = t.paddr;
        out.latency = t.latency;
        break;
      }
      case TranslatePath::DedicatedTlb:
      case TranslatePath::DeviceTlb: {
        const Addr vpn = pageNumber(vaddr);
        if (dedicatedTlb_->lookup(vpn)) {
            out.latency = dedicatedTlb_->hitLatency();
            if (trace::active(trace_)) {
                trace_->record(trace::Category::Tlb, traceComp_,
                               traceTlbHit_, trace::kNoQuery, now,
                               out.latency);
            }
        } else {
            // Local page walk by the accelerator's walker.
            constexpr Cycles kWalkLatency = 90;
            out.latency = dedicatedTlb_->hitLatency() + kWalkLatency;
            if (paddr)
                dedicatedTlb_->fill(vpn);
            env_.vm.notePageWalk(now, kWalkLatency);
            if (trace::active(trace_)) {
                trace_->record(trace::Category::Tlb, traceComp_,
                               traceTlbWalk_, trace::kNoQuery, now,
                               out.latency);
            }
        }
        out.valid = paddr.has_value();
        out.paddr = paddr.value_or(0);
        break;
      }
      case TranslatePath::CoreMmuRemote: {
        // Every access pays a NoC round trip to the owning core's MMU
        // (Sec. V: "adds extra round-trip latency to each memory
        // access").
        Mmu* mmu = env_.coreMmus[static_cast<std::size_t>(homeCore_)];
        const Translation t = mmu->translateViaL2(vaddr, now);
        const Cycles noc = env_.memory.messageRoundTrip(
            tile_, homeCore_, now);
        out.valid = t.valid;
        out.paddr = t.paddr;
        out.latency = noc + t.latency;
        break;
      }
    }
    translationCycles_.inc(out.latency);
    return out;
}

Accelerator::XlatResult
Accelerator::translateCached(QstEntry& entry, Addr vaddr, Cycles now)
{
    const Addr vpn = pageNumber(vaddr);
    if (vpn == entry.xlatVpn) {
        XlatResult out;
        out.valid = true;
        out.paddr = entry.xlatPfnBase + pageOffset(vaddr);
        out.latency = 1;
        return out;
    }
    XlatResult out = translate(vaddr, now);
    if (out.valid) {
        entry.xlatVpn = vpn;
        entry.xlatPfnBase = pageAlign(out.paddr);
    }
    return out;
}

Cycles
Accelerator::dataAccess(Addr paddr, bool is_write, Cycles now)
{
    memAccesses_.inc();
    Cycles latency = 0;
    switch (params_.data) {
      case DataPath::L2Path:
        latency = env_.memory.l2Access(homeCore_, paddr, is_write, now)
                      .latency;
        break;
      case DataPath::ChaPath:
        latency =
            env_.memory.chaAccess(tile_, paddr, is_write, now).latency;
        break;
      case DataPath::DevicePath:
        latency = env_.memory.deviceAccess(tile_, paddr, is_write, now)
                      .latency;
        // The device's request pipeline (and, for Device-indirect,
        // the standard interface's protocol translation + coherence
        // handling) taxes every access.
        latency += params_.dataOverhead;
        break;
    }
    return latency;
}

void
Accelerator::executeEntry(int id, std::uint32_t epoch)
{
    QstEntry& entry = qst_.at(id);
    if (entry.phase == QstPhase::Idle || entry.epoch != epoch)
        return; // flushed (and possibly re-allocated) mid-flight
    // The CEE issues one state transition per cycle: a second ready
    // entry arriving in the same cycle bounces to the next one (event
    // order preserves the FIFO pick among ready entries).
    const Cycles issueCycle = env_.events.now();
    if (ceeNextFree_ > issueCycle) {
        charge(entry, trace::LatencyComponent::CeeWait,
               ceeNextFree_ - issueCycle);
        if (trace::active(trace_)) {
            trace_->record(trace::Category::Qst, traceComp_,
                           traceCeeWait_, entry.queryId, issueCycle,
                           ceeNextFree_ - issueCycle);
        }
        env_.events.scheduleAt(ceeNextFree_,
                               [this, id, epoch] {
                                   executeEntry(id, epoch);
                               },
                               EventPriority::CfaTick);
        return;
    }
    ceeNextFree_ = issueCycle + 1;
    entry.ready = false;
    if (entry.phase == QstPhase::FetchHeader) {
        microOps_.inc();
        executeHeaderFetch(id);
        return;
    }
    // Fuse up to `alus` register-only operations into this slot.
    int fuel = dpu_.params().alus;
    while (entry.phase == QstPhase::Running) {
        microOps_.inc();
        const bool fused = executeMicroInst(id);
        if (!fused)
            return; // op scheduled its own completion
        if (--fuel == 0)
            break;
    }
    if (entry.phase == QstPhase::Running) {
        charge(entry, trace::LatencyComponent::CeeExec, 1);
        makeReady(id, env_.events.now() + 1);
    }
}

void
Accelerator::executeHeaderFetch(int id)
{
    QstEntry& entry = qst_.at(id);
    const Cycles now = env_.events.now();

    // Fault injection (Sec. IV-D): a planted fault surfaces at the
    // query's first step on the accelerator — a page fault at the
    // header translation (the page was swapped out), a corrupted
    // StructHeader, or a missing/trapping firmware program.
    if (env_.faults != nullptr) {
        const FaultKind kind = env_.faults->queryFault(entry.queryId);
        if (kind != FaultKind::None) {
            env_.faults->onInjected(kind);
            switch (kind) {
              case FaultKind::PageFault:
                raiseException(id, QueryError::PageFault);
                return;
              case FaultKind::BadHeader:
                raiseException(id, QueryError::BadHeader);
                return;
              case FaultKind::FirmwareFault:
                raiseException(id, QueryError::FirmwareFault);
                return;
              case FaultKind::None:
                break;
            }
        }
    }

    // Batch header coalescing: the descriptor's members share (at
    // most a handful of) structure headers, so only the first member
    // per header pays the real translate + fetch; the rest pay the
    // residual staging latency out of the batch buffer.
    BatchCtx* batch = batchCtx(entry);
    Cycles xlatLat = 0;
    Cycles latency = 0;
    bool headerStaged = false;
    if (batch != nullptr) {
        for (const auto& [addr, landed] : batch->headers) {
            if (addr != entry.headerAddr)
                continue;
            latency = landed > now ? landed - now : 1;
            batchHeaderHits_.inc();
            headerStaged = true;
            break;
        }
    }
    if (!headerStaged) {
        const XlatResult xlat = translate(entry.headerAddr, now);
        if (!xlat.valid) {
            raiseException(id, QueryError::PageFault);
            return;
        }
        xlatLat = xlat.latency;
        latency = xlat.latency +
                  dataAccess(xlat.paddr, false, now + xlat.latency);
        if (batch != nullptr)
            batch->headers.emplace_back(entry.headerAddr, now + latency);
    }

    entry.header = StructHeader::readFrom(env_.vm, entry.headerAddr);
    const CfaProgram* prog = env_.firmware.program(entry.header.type);
    if (prog == nullptr) {
        raiseException(id, QueryError::BadHeader);
        return;
    }

    // Level-wise line coalescing is a property of the structure's
    // traversal (declared by its CFA program); decide it once per
    // batch at the first member's dispatch.
    if (batch != nullptr && batch->lineMode == 0)
        batch->lineMode =
            prog->batchLevelReuse && batch->coalesce ? 1 : 2;

    // Stage the query key alongside the metadata fetch when it fits
    // one cacheline: later comparisons read it from the QST instead of
    // refetching it per node. Batch members staged back to back often
    // share key lines (the reorderer sorts by key locality), which
    // fetchSpan coalesces like any other shared line.
    Cycles keyLatency = 0;
    bool laneEligible = headerStaged;
    if (entry.header.keyLen > 0 &&
        entry.header.keyLen <= QstEntry::kKeyBufBytes) {
        const SpanCost keyCost =
            fetchSpan(entry, entry.keyAddr, entry.header.keyLen, now);
        if (keyCost.faulted()) {
            raiseException(id, QueryError::PageFault);
            return;
        }
        laneEligible = laneEligible && keyCost.coalesced;
        keyLatency = keyCost.total;
        env_.vm.readBytes(entry.keyAddr, entry.keyBuf.data(),
                          entry.header.keyLen);
        entry.keyStaged = true;
    }

    // Dispatch convention (see firmware.hh).
    entry.regs[kRegKeyAddr] = entry.keyAddr;
    entry.regs[kRegNode] = entry.header.root;
    entry.regs[kRegKeyLen] = entry.header.keyLen;
    entry.regs[kRegResult] = 0;
    entry.regs[kRegT4] = entry.header.aux1;
    entry.regs[kRegT5] = entry.header.aux2;
    entry.regs[kRegT6] = 0;
    entry.regs[kRegT7] = entry.header.aux0;
    entry.phase = QstPhase::Running;
    entry.state = 0;
    // A dispatch served entirely from the batch's staged header and
    // key lines rides the batch lane (see executeMicroInst).
    if (laneEligible)
        ceeNextFree_ = now;
    const Cycles delay = std::max(latency, keyLatency);
    charge(entry, trace::LatencyComponent::Translation, xlatLat);
    charge(entry, trace::LatencyComponent::Memory, delay - xlatLat);
    if (trace::active(trace_)) {
        trace_->record(trace::Category::Microcode, traceComp_,
                       traceHeaderFetch_, entry.queryId, now, delay);
    }
    makeReady(id, now + delay);
}

CmpFlag
Accelerator::compareKeyFunctional(const QstEntry& entry, Addr mem_vaddr,
                                  std::uint32_t len) const
{
    std::vector<std::uint8_t> storedCopy;
    std::vector<std::uint8_t> queryCopy;
    const std::uint8_t* stored =
        env_.vm.spanOrCopy(mem_vaddr, len, storedCopy);
    const std::uint8_t* query =
        env_.vm.spanOrCopy(entry.keyAddr, len, queryCopy);
    const int c = std::memcmp(stored, query, len);
    if (c == 0)
        return CmpFlag::Eq;
    return c < 0 ? CmpFlag::Lt : CmpFlag::Gt;
}

Accelerator::SpanCost
Accelerator::fetchSpan(QstEntry& entry, Addr vaddr,
                       std::uint64_t bytes, Cycles start)
{
    BatchCtx* batch = batchCtx(entry);
    // The batch's staged lines, when its traversal coalesces them.
    LineStage* staged = batch != nullptr && batch->lineMode == 1
                            ? &lineStages_[static_cast<std::size_t>(
                                  batch->id)]
                            : nullptr;
    SpanCost worst;
    const std::uint64_t lines = linesCovering(vaddr, bytes);
    worst.coalesced = staged != nullptr && lines > 0;
    for (std::uint64_t i = 0; i < lines; ++i) {
        const Addr lineVaddr = lineAlign(vaddr) + i * kCacheLineBytes;
        if (staged != nullptr) {
            // Level-wise traversal batching: a line a fellow member
            // already staged costs only its residual staging latency
            // (min 1 cycle to read the batch buffer) — no translation,
            // no memory access. Only the timing coalesces; functional
            // reads stay per member, so results are bit-identical to
            // the scalar path.
            if (const Cycles* at = staged->find(lineVaddr)) {
                const Cycles lat = *at > start ? *at - start : 1;
                batchLineHits_.inc();
                if (lat > worst.total) {
                    worst.total = lat;
                    worst.xlat = 0;
                }
                continue;
            }
        }
        worst.coalesced = false; // this line pays a real access
        const XlatResult x = translateCached(entry, lineVaddr, start);
        if (!x.valid)
            return SpanCost{kInvalidCycle, 0};
        const Cycles lat =
            x.latency + dataAccess(x.paddr, false, start + x.latency);
        // Bounded staging buffer: hold the batch's hot upper levels,
        // drop everything on overflow (lower levels churn through and
        // would not have been reused anyway).
        if (staged != nullptr)
            staged->stage(lineVaddr, start + lat);
        if (lat > worst.total) {
            worst.total = lat;
            worst.xlat = x.latency;
        }
    }
    return worst;
}

bool
Accelerator::executeMicroInst(int id)
{
    QstEntry& entry = qst_.at(id);
    const Cycles now = env_.events.now();
    const CfaProgram* prog = env_.firmware.program(entry.header.type);
    simAssert(prog != nullptr, "program vanished for type {}",
              static_cast<int>(entry.header.type));
    simAssert(entry.state < prog->states.size(),
              "CFA '{}' state {} out of range", prog->name,
              entry.state);
    const MicroInst& mi = prog->states[entry.state];

    // Attribute a fetch's cost: translation vs. memory cycles.
    auto chargeSpan = [&](const SpanCost& cost) {
        charge(entry, trace::LatencyComponent::Translation, cost.xlat);
        charge(entry, trace::LatencyComponent::Memory,
               cost.total - cost.xlat);
    };

    // Batch lane: a transition whose memory span was served entirely
    // from the batch's staged lines is one lane of level-wise vector
    // processing — the staged line is applied to many members at once
    // by the DPU's parallel comparators — so it hands the scalar CEE
    // issue port back to this cycle instead of consuming it.
    auto batchLane = [&](bool coalesced) {
        if (coalesced)
            ceeNextFree_ = now;
    };

    // Record the whole micro-op as one Microcode timeline span.
    auto traceOp = [&](Cycles start, Cycles duration) {
        if (trace::active(trace_)) {
            trace_->record(trace::Category::Microcode, traceComp_,
                           traceOp_[static_cast<std::size_t>(mi.op)],
                           entry.queryId, start, duration);
        }
    };

    auto operandB = [&](const MicroInst& inst) {
        return inst.useImm ? inst.imm : entry.regs[inst.srcB];
    };

    auto readFieldLE = [&](Addr vaddr, std::uint8_t width) {
        std::uint64_t v = 0;
        if (const std::uint8_t* field = env_.vm.span(vaddr, width))
            std::memcpy(&v, field, width);
        else
            env_.vm.readBytes(vaddr, &v, width);
        return v;
    };

    switch (mi.op) {
      case MicroOpcode::MemReadLine: {
        const Addr vaddr = entry.regs[mi.srcA] + mi.imm;
        if (lineAlign(vaddr) == entry.lineBase &&
            entry.lineBase != kNullAddr) {
            // Already staged; refresh functionally and move on.
            env_.vm.readBytes(entry.lineBase, entry.lineBuf.data(),
                              kCacheLineBytes);
            entry.state = mi.next;
            charge(entry, trace::LatencyComponent::CeeExec, 1);
            traceOp(now, 1);
            makeReady(id, now + 1);
            return false;
        }
        const SpanCost cost =
            fetchSpan(entry, vaddr, kCacheLineBytes, now);
        if (cost.faulted()) {
            raiseException(id, QueryError::PageFault);
            return false;
        }
        entry.lineBase = lineAlign(vaddr);
        env_.vm.readBytes(entry.lineBase, entry.lineBuf.data(),
                          kCacheLineBytes);
        entry.state = mi.next;
        batchLane(cost.coalesced);
        chargeSpan(cost);
        traceOp(now, cost.total);
        makeReady(id, now + cost.total);
        return false;
      }
      case MicroOpcode::MemReadField: {
        const Addr vaddr = entry.regs[mi.srcA] + mi.imm;
        if (entry.lineBase != kNullAddr && vaddr >= entry.lineBase &&
            vaddr + mi.width <= entry.lineBase + kCacheLineBytes) {
            entry.regs[mi.dst] = readFieldLE(vaddr, mi.width);
            entry.state = mi.next;
            return true; // served from the staged line
        }
        const SpanCost cost = fetchSpan(entry, vaddr, mi.width, now);
        if (cost.faulted()) {
            raiseException(id, QueryError::PageFault);
            return false;
        }
        entry.regs[mi.dst] = readFieldLE(vaddr, mi.width);
        entry.state = mi.next;
        batchLane(cost.coalesced);
        chargeSpan(cost);
        traceOp(now, cost.total);
        makeReady(id, now + cost.total);
        return false;
      }
      case MicroOpcode::LoadField: {
        simAssert(mi.imm + mi.width <= kCacheLineBytes,
                  "LoadField overruns the line buffer");
        std::uint64_t v = 0;
        std::memcpy(&v, entry.lineBuf.data() + mi.imm, mi.width);
        entry.regs[mi.dst] = v;
        entry.state = mi.next;
        return true; // register-only: fuse into this CEE slot
      }
      case MicroOpcode::Alu: {
        const std::uint64_t a = entry.regs[mi.srcA];
        const std::uint64_t b = operandB(mi);
        std::uint64_t r = 0;
        switch (mi.aluFn) {
          case AluFn::Add: r = a + b; break;
          case AluFn::Sub: r = a - b; break;
          case AluFn::And: r = a & b; break;
          case AluFn::Or:  r = a | b; break;
          case AluFn::Xor: r = a ^ b; break;
          case AluFn::Shl: r = a << (b & 63); break;
          case AluFn::Shr: r = a >> (b & 63); break;
          case AluFn::Mul: r = a * b; break;
          case AluFn::Mov: r = b; break;
        }
        entry.regs[mi.dst] = r;
        entry.state = mi.next;
        dpu_.alu(now); // occupancy accounting; fused ops share a slot
        return true;
      }
      case MicroOpcode::HashKey: {
        const auto len =
            static_cast<std::uint32_t>(entry.regs[kRegKeyLen]);
        SpanCost mem;
        if (!entry.keyStaged) {
            mem = fetchSpan(entry, entry.keyAddr, len, now);
            if (mem.faulted()) {
                raiseException(id, QueryError::PageFault);
                return false;
            }
        }
        std::vector<std::uint8_t> keyCopy;
        const std::uint8_t* key =
            env_.vm.spanOrCopy(entry.keyAddr, len, keyCopy);
        entry.regs[mi.dst] = computeHash(entry.header.hashFn, key, len);
        entry.state = mi.next;
        const Cycles hashDone = dpu_.hashKey(now + mem.total, len);
        batchLane(mem.coalesced);
        chargeSpan(mem);
        charge(entry, trace::LatencyComponent::Dpu,
               hashDone - (now + mem.total));
        traceOp(now, hashDone - now);
        if (trace::active(trace_)) {
            trace_->record(trace::Category::Dpu, traceComp_, traceHash_,
                           entry.queryId, now + mem.total,
                           hashDone - (now + mem.total));
        }
        makeReady(id, hashDone);
        return false;
      }
      case MicroOpcode::CompareReg: {
        const std::uint64_t a = entry.regs[mi.srcA];
        const std::uint64_t b = operandB(mi);
        entry.flags = a == b   ? CmpFlag::Eq
                      : a < b ? CmpFlag::Lt
                              : CmpFlag::Gt;
        entry.state = entry.flags == CmpFlag::Eq   ? mi.onEq
                      : entry.flags == CmpFlag::Lt ? mi.onLt
                                                   : mi.onGt;
        dpu_.compare(now, 8); // occupancy accounting
        return true;
      }
      case MicroOpcode::CompareKey: {
        const Addr candidate = entry.regs[mi.srcA] + mi.imm;
        const auto len =
            static_cast<std::uint32_t>(entry.regs[kRegKeyLen]);
        // Functional result first (timing cannot fault after this).
        if (!env_.vm.tryTranslate(candidate) ||
            !env_.vm.tryTranslate(candidate + len - 1)) {
            raiseException(id, QueryError::PageFault);
            return false;
        }
        entry.flags = compareKeyFunctional(entry, candidate, len);

        // Fast path: the candidate sits in the staged line and the
        // key is staged in the QST — a pure DPU comparison, no memory
        // traffic at all (Sec. V-A).
        if (entry.keyStaged && entry.lineBase != kNullAddr &&
            candidate >= entry.lineBase &&
            candidate + len <= entry.lineBase + kCacheLineBytes) {
            entry.state = entry.flags == CmpFlag::Eq   ? mi.onEq
                          : entry.flags == CmpFlag::Lt ? mi.onLt
                                                       : mi.onGt;
            const Cycles cmpDone = dpu_.compare(now, len);
            charge(entry, trace::LatencyComponent::Dpu, cmpDone - now);
            traceOp(now, cmpDone - now);
            makeReady(id, cmpDone);
            return false;
        }

        const bool remote =
            params_.remoteComparators &&
            entry.header.remoteCompareOk() &&
            len > kLocalCompareMaxBytes &&
            env_.remoteComparators != nullptr;

        Cycles done;
        if (remote) {
            remoteCompares_.inc();
            // CEE translates the candidate (L2-TLB, or the QST's
            // one-entry cache) and ships a remote micro-op to the home
            // CHA of the candidate line; the key's translation is
            // cached in the QST after its first use.
            const XlatResult x = translateCached(entry, candidate, now);
            const int home = env_.memory.homeSlice(x.paddr);
            Cycles t = now + x.latency;
            const std::uint32_t msgBytes =
                24 + (entry.keyStaged ? len : 0);
            const Cycles reqNoc = env_.memory.mesh().traverse(
                tile_, home, msgBytes, t); // remote micro-op + key
            t += reqNoc;
            // The comparator pulls its operands from the LLC without
            // touching any private cache; a staged key rode along in
            // the message and needs no LLC read.
            Cycles dataReady = 0;
            const std::uint64_t candLines = linesCovering(candidate, len);
            for (std::uint64_t i = 0; i < candLines; ++i) {
                const Addr va =
                    lineAlign(candidate) + i * kCacheLineBytes;
                const Addr pa = env_.vm.translate(va);
                dataReady = std::max(
                    dataReady,
                    env_.memory.chaAccess(home, pa, false, t).latency);
            }
            if (!entry.keyStaged) {
                const std::uint64_t keyLines =
                    linesCovering(entry.keyAddr, len);
                for (std::uint64_t i = 0; i < keyLines; ++i) {
                    const Addr va =
                        lineAlign(entry.keyAddr) + i * kCacheLineBytes;
                    const Addr pa = env_.vm.translate(va);
                    dataReady = std::max(
                        dataReady,
                        env_.memory.chaAccess(home, pa, false, t)
                            .latency);
                }
            }
            t += dataReady;
            const Cycles preCompare = t;
            t = env_.remoteComparators->compare(home, t, len);
            const Cycles compareLat = t - preCompare;
            const Cycles respNoc =
                env_.memory.mesh().traverse(home, tile_, 16, t);
            t += respNoc;
            done = t;
            charge(entry, trace::LatencyComponent::Translation,
                   x.latency);
            charge(entry, trace::LatencyComponent::Noc,
                   reqNoc + respNoc);
            charge(entry, trace::LatencyComponent::Memory, dataReady);
            charge(entry, trace::LatencyComponent::Dpu, compareLat);
            if (trace::active(trace_)) {
                trace_->record(trace::Category::Dpu, traceComp_,
                               traceCompare_, entry.queryId, preCompare,
                               compareLat);
            }
        } else {
            // Local compare: stage the candidate (and the key, unless
            // already staged), then run a DPU comparator.
            const SpanCost candCost =
                fetchSpan(entry, candidate, len, now);
            const SpanCost keyCost =
                entry.keyStaged ? SpanCost{}
                                : fetchSpan(entry, entry.keyAddr, len, now);
            simAssert(!candCost.faulted() && !keyCost.faulted(),
                      "fault after successful pre-translation");
            const SpanCost& slower =
                candCost.total >= keyCost.total ? candCost : keyCost;
            batchLane(candCost.coalesced &&
                      (entry.keyStaged || keyCost.coalesced));
            done = dpu_.compare(now + slower.total, len);
            chargeSpan(slower);
            charge(entry, trace::LatencyComponent::Dpu,
                   done - (now + slower.total));
            if (trace::active(trace_)) {
                trace_->record(trace::Category::Dpu, traceComp_,
                               traceCompare_, entry.queryId,
                               now + slower.total,
                               done - (now + slower.total));
            }
        }

        entry.state = entry.flags == CmpFlag::Eq   ? mi.onEq
                      : entry.flags == CmpFlag::Lt ? mi.onLt
                                                   : mi.onGt;
        traceOp(now, done - now);
        makeReady(id, done);
        return false;
      }
      case MicroOpcode::IndexSearch: {
        const Addr node = entry.regs[mi.srcA];
        const std::uint8_t byte =
            static_cast<std::uint8_t>(entry.regs[mi.srcB]);
        if (!env_.vm.tryTranslate(node)) {
            raiseException(id, QueryError::PageFault);
            return false;
        }
        const auto count = env_.vm.read<std::uint16_t>(node);
        // Scan the table in place when it lies in one page; otherwise
        // read only the entries the scan reaches, one by one, so a
        // malformed count is checked entry by entry as before.
        const std::uint8_t* table =
            env_.vm.span(node + 16, static_cast<std::uint64_t>(count) * 8);
        bool found = false;
        std::uint64_t child = 0;
        std::uint32_t scanned = 0;
        for (std::uint16_t i = 0; i < count; ++i) {
            std::uint64_t e;
            if (table != nullptr)
                std::memcpy(&e, table + i * 8ULL, sizeof(e));
            else
                e = env_.vm.read<std::uint64_t>(
                    node + 16 + static_cast<Addr>(i) * 8);
            ++scanned;
            if (static_cast<std::uint8_t>(e >> 56) == byte) {
                found = true;
                child = e & ((1ULL << 56) - 1);
                break;
            }
        }
        // Timing: the scan streams the index table line by line and
        // stops at the match, so only the lines actually covered by
        // the scanned entries are fetched.
        const SpanCost mem = fetchSpan(
            entry, node, 16 + static_cast<std::uint64_t>(scanned) * 8,
            now);
        if (mem.faulted()) {
            raiseException(id, QueryError::PageFault);
            return false;
        }
        if (found)
            entry.regs[mi.dst] = child;
        entry.flags = found ? CmpFlag::Eq : CmpFlag::Lt;
        entry.state = found ? mi.onEq : mi.next;
        const Cycles scanDone =
            dpu_.compare(now + mem.total, std::max<std::uint32_t>(
                                              8, scanned));
        batchLane(mem.coalesced);
        chargeSpan(mem);
        charge(entry, trace::LatencyComponent::Dpu,
               scanDone - (now + mem.total));
        traceOp(now, scanDone - now);
        makeReady(id, scanDone);
        return false;
      }
      case MicroOpcode::Return: {
        entry.success = mi.imm != 0;
        entry.resultValue = entry.regs[kRegResult];
        entry.phase = QstPhase::Done;
        entry.completed = now;
        traceOp(now, 0);
        deliver(id);
        return false;
      }
      case MicroOpcode::Except:
        raiseException(id,
                       static_cast<QueryError>(mi.imm & 0xFF));
        return false;
    }
    return false;
}

void
Accelerator::raiseException(int id, QueryError error)
{
    QstEntry& entry = qst_.at(id);
    exceptions_.inc();
    entry.phase = QstPhase::Exception;
    entry.error = error;
    entry.success = false;
    entry.completed = env_.events.now();
    deliver(id);
}

void
Accelerator::deliver(int id)
{
    QstEntry& entry = qst_.at(id);
    const Cycles now = env_.events.now();
    Cycles latency = 1; // through the Result Queue

    if (entry.mode == QueryMode::NonBlocking &&
        entry.resultAddr != kNullAddr) {
        // Write {status, value} to the designated result slot.
        const auto pa = env_.vm.tryTranslate(entry.resultAddr);
        if (pa) {
            latency += dataAccess(*pa, true, now);
            env_.vm.write<std::uint64_t>(entry.resultAddr,
                                         statusFor(entry));
            env_.vm.write<std::uint64_t>(entry.resultAddr + 8,
                                         entry.resultValue);
        }
    }

    charge(entry, trace::LatencyComponent::Delivery, latency);
    if (trace::active(trace_)) {
        trace_->record(trace::Category::Qst, traceComp_, traceDeliver_,
                       entry.queryId, now, latency);
    }
    const QstEntry snapshot = entry;
    const std::int32_t bId = entry.batchId;
    CompletionFn done =
        std::move(completions_[static_cast<std::size_t>(id)]);
    qst_.release(id);
    completed_.inc();
    qst_.sampleOccupancy();
    env_.events.schedule(latency, [snapshot, done = std::move(done)] {
        if (done)
            done(snapshot);
    });

    if (bId >= 0) {
        // Stream the next batch member into the slot this one
        // vacated. Once no member is left to admit, the batch is
        // draining: it drops every reservation it still holds at
        // once, so the next descriptor's contiguous window can form
        // over the retiring tail and fill slot by slot as it empties.
        BatchCtx& b = *batches_[static_cast<std::size_t>(bId)];
        if (b.nextMember < b.members.size()) {
            const bool ok = admitNextMember(b);
            simAssert(ok, "batch {} failed to refill its own slot",
                      bId);
        } else {
            for (std::size_t i = 0; i < b.reservedMine.size(); ++i) {
                if (!b.reservedMine[i])
                    continue;
                qst_.unreserveSlot(b.base + static_cast<int>(i));
                b.reservedMine[i] = 0;
            }
        }
        simAssert(b.remaining > 0, "batch {} over-delivered", bId);
        if (--b.remaining == 0) {
            BatchDoneFn batchDone = std::move(b.onDone);
            batches_[static_cast<std::size_t>(bId)].reset();
            if (batchDone)
                batchDone();
        }
    }

    // The freed slot may sit inside another descriptor's reservation
    // (windows overlap draining tails): hand it over right away.
    if (qst_.isReserved(id)) {
        for (const auto& other : batches_) {
            if (other == nullptr)
                continue;
            const int rel = id - other->base;
            if (rel < 0 || rel >= other->window ||
                !other->reservedMine[static_cast<std::size_t>(rel)])
                continue;
            if (other->nextMember < other->members.size())
                admitNextMember(*other);
            break;
        }
    }
}

Cycles
Accelerator::flush(const FlushVisitor& recover)
{
    const Cycles now = env_.events.now();
    Cycles flushCycles = 0;
    std::vector<Addr> dirtyLines;
    for (int id : qst_.activeIds()) {
        QstEntry& entry = qst_.at(id);
        if (entry.mode == QueryMode::NonBlocking &&
            entry.resultAddr != kNullAddr) {
            // Abort code via coalesced non-temporal stores: only the
            // address translation is on the critical path (Sec. IV-D).
            env_.vm.write<std::uint64_t>(
                entry.resultAddr,
                kStatusErrorBase |
                    static_cast<std::uint64_t>(QueryError::Aborted));
            const Addr line = lineAlign(entry.resultAddr);
            if (std::find(dirtyLines.begin(), dirtyLines.end(), line) ==
                dirtyLines.end()) {
                dirtyLines.push_back(line);
                const XlatResult x =
                    translate(entry.resultAddr, now + flushCycles);
                flushCycles += x.latency;
            }
        }
        if (recover) {
            QstEntry snapshot = entry;
            snapshot.phase = QstPhase::Exception;
            snapshot.error = QueryError::Aborted;
            snapshot.success = false;
            snapshot.completed = now;
            recover(snapshot,
                    std::move(completions_[
                        static_cast<std::size_t>(id)]));
        }
        completions_[static_cast<std::size_t>(id)] = nullptr;
        qst_.release(id);
    }
    // Batch contexts: in-flight members were handled above like any
    // other QST entry; members still waiting behind the window never
    // had a slot, so abort them here and retire the window.
    for (std::size_t bi = 0; bi < batches_.size(); ++bi) {
        if (batches_[bi] == nullptr)
            continue;
        BatchCtx& b = *batches_[bi];
        for (std::size_t mi = b.nextMember; mi < b.members.size();
             ++mi) {
            BatchMember& m = b.members[mi];
            if (b.mode == QueryMode::NonBlocking &&
                m.resultAddr != kNullAddr) {
                env_.vm.write<std::uint64_t>(
                    m.resultAddr,
                    kStatusErrorBase |
                        static_cast<std::uint64_t>(
                            QueryError::Aborted));
                const Addr line = lineAlign(m.resultAddr);
                if (std::find(dirtyLines.begin(), dirtyLines.end(),
                              line) == dirtyLines.end()) {
                    dirtyLines.push_back(line);
                    const XlatResult x =
                        translate(m.resultAddr, now + flushCycles);
                    flushCycles += x.latency;
                }
            }
            if (recover) {
                QstEntry snapshot;
                snapshot.headerAddr = m.headerAddr;
                snapshot.keyAddr = m.keyAddr;
                snapshot.resultAddr = m.resultAddr;
                snapshot.mode = b.mode;
                snapshot.queryId = m.queryId;
                snapshot.enqueued = now;
                snapshot.completed = now;
                snapshot.phase = QstPhase::Exception;
                snapshot.error = QueryError::Aborted;
                snapshot.success = false;
                recover(snapshot, std::move(m.onComplete));
            }
        }
        // Tail-drain delivers may already have unreserved some slots
        // (and a later batch may hold them now) — drop only the
        // reservations this batch still owns.
        for (int i = b.base; i < b.base + b.window; ++i) {
            if (b.reservedMine[static_cast<std::size_t>(i - b.base)])
                qst_.unreserveSlot(i);
        }
        BatchDoneFn batchDone = std::move(b.onDone);
        batches_[bi].reset();
        if (batchDone)
            batchDone();
    }
    qst_.sampleOccupancy();
    return flushCycles;
}

} // namespace qei
