/**
 * @file
 * One QEI accelerator instance: Query Queue in, Query State Table,
 * CFA Execution Engine, Data Processing Unit, Result Queue out
 * (Fig. 5), driven by the discrete-event kernel.
 *
 * The CEE is modelled faithfully to Sec. IV-B: every cycle it selects
 * one ready QST entry (FIFO) and applies one state transition, whose
 * micro-operation (memory read, arithmetic, comparison, hash) may take
 * additional cycles on a DPU unit or in the memory system; while the
 * operation is outstanding the entry is not ready and the CEE works on
 * other queries — the pipelined-CFA time multiplexing the paper
 * chooses over naive replication.
 */

#ifndef QEI_QEI_ACCELERATOR_HH
#define QEI_QEI_ACCELERATOR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "fault/fault_injector.hh"
#include "mem/hierarchy.hh"
#include "qei/dpu.hh"
#include "qei/firmware.hh"
#include "qei/line_stage.hh"
#include "qei/qst.hh"
#include "qei/scheme.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "vm/tlb.hh"

namespace qei {

/** Environment shared by all accelerator instances on the chip. */
struct AccelEnv
{
    EventQueue& events;
    MemoryHierarchy& memory;
    VirtualMemory& vm;
    /** Per-core MMUs (CoreL2Tlb and CoreMmuRemote translation). */
    std::vector<Mmu*> coreMmus;
    /** CHA comparator pairs (Core-integrated remote compares). */
    RemoteComparators* remoteComparators = nullptr;
    const FirmwareStore& firmware;
    SchemeConfig scheme;
    /** Fault-injection source; nullptr when the run is fault-free. */
    FaultInjector* faults = nullptr;
};

/** One accelerator (per core, per CHA, or the single device). */
class Accelerator : public SimObject
{
  public:
    using CompletionFn = std::function<void(const QstEntry&)>;

    /**
     * @param id accelerator index
     * @param tile mesh tile the instance lives on
     * @param home_core core whose L2/MMU it borrows (Core-integrated /
     *        CHA-noTLB translation target)
     * @param params_override per-instance parameter block for
     *        heterogeneous deployments; null uses env.scheme (the
     *        historical behaviour — every canonical topology)
     */
    Accelerator(int id, int tile, int home_core, AccelEnv& env,
                const DpuParams& dpu_params,
                const SchemeConfig* params_override = nullptr);

    void regStats(StatsRegistry& registry) override;

    /**
     * Stable instance id, dense in [0, scheme.accelerators). QeiSystem
     * indexes its software-side reservation counters with it, so it
     * must match the instance's position in the system's accelerator
     * array for the accelerator's whole lifetime.
     */
    int id() const { return id_; }
    int tile() const { return tile_; }
    /**
     * This instance's effective parameter block (translate/data paths,
     * QST size, hop costs). Equal to the system-wide scheme for every
     * canonical topology; differs per instance in heterogeneous
     * deployments.
     */
    const SchemeConfig& params() const { return params_; }
    bool hasFreeSlot() const { return !qst_.full(); }
    std::size_t freeSlots() const
    {
        return qst_.capacity() - qst_.occupied();
    }

    /**
     * Accept a query into the Query Queue at the current event time.
     * @p tenant tags the QST entry for per-tenant accounting (0 —
     * the default — for every single-tenant path).
     * @return the QST id, or -1 when the table is full (the caller —
     * software — is responsible for not overflowing, Sec. IV-A).
     */
    int enqueue(Addr header_addr, Addr key_addr, Addr result_addr,
                QueryMode mode, std::uint64_t query_id,
                CompletionFn on_complete, int tenant = 0);

    /** One key of a QUERY_BATCH descriptor. */
    struct BatchMember
    {
        Addr headerAddr = kNullAddr;
        Addr keyAddr = kNullAddr;
        Addr resultAddr = kNullAddr;
        std::uint64_t queryId = 0;
        CompletionFn onComplete;
    };

    /** Invoked once the batch's last member has delivered (or the
     *  whole descriptor was aborted by a flush). */
    using BatchDoneFn = std::function<void()>;

    /**
     * QST window size a QUERY_BATCH of @p count keys reserves: at most
     * half the table (double buffering). Capping the window below
     * capacity lets the next descriptor's window form while this one's
     * tail drains; a full-table window would serialize batch
     * boundaries on complete QST drains and waste roughly one query
     * latency per descriptor.
     */
    int
    batchWindowFor(int count) const
    {
        const int half =
            std::max(1, static_cast<int>(qst_.capacity()) / 2);
        return std::min(count, half);
    }

    /**
     * Would a QUERY_BATCH of @p count keys be admitted right now?
     * True when a contiguous QST window of batchWindowFor(count) idle,
     * unreserved slots exists — the single admission decision the
     * batch path makes per descriptor (vs. one per key on the scalar
     * path).
     */
    bool
    canAcceptBatch(int count) const
    {
        const int window = batchWindowFor(count);
        return window >= 1 && qst_.findWindow(window) >= 0;
    }

    /**
     * Accept a QUERY_BATCH descriptor: reserve one contiguous QST
     * window of batchWindowFor(members) slots, admit the first window
     * of members immediately, and stream the rest in as earlier
     * members deliver (each delivery re-fills its freed slot; once no
     * member is left to admit, the freed slot's reservation drops
     * immediately so the next descriptor's window can form while this
     * one's tail drains). While
     * the batch is in flight, header fetches and — when @p coalesce
     * is set and the structure's CFA declares batchLevelReuse —
     * structure-level line fetches coalesce across members: the first
     * member pays the real access, later members pay the residual
     * staging latency. Functional reads stay per member, so results
     * are bit-identical to the scalar path.
     * @return a batch id >= 0, or -1 when no contiguous window exists
     * (the caller backs off, one decision for the whole batch).
     */
    int enqueueBatch(std::vector<BatchMember> members, QueryMode mode,
                     bool coalesce, BatchDoneFn on_done);

    /**
     * Receives each in-flight entry dropped by a flush (state
     * snapshot, Aborted error recorded) along with its completion
     * callback, so the system can hand the query back to software.
     */
    using FlushVisitor =
        std::function<void(const QstEntry&, CompletionFn)>;

    /**
     * Interrupt flush (Sec. IV-D): blocking entries are dropped;
     * non-blocking entries get an Aborted code written to their result
     * address with coalesced non-temporal stores. When @p recover is
     * set, every dropped entry is handed to it (snapshot + completion
     * callback) for the software re-execution path; otherwise the
     * callbacks are discarded, matching the bare hardware behaviour.
     * @return cycles the flush takes.
     */
    Cycles flush(const FlushVisitor& recover = nullptr);

    // -- statistics --
    const ScalarStat& qstOccupancy() const { return qst_.occupancy(); }
    std::uint64_t completedQueries() const { return completed_.value(); }
    std::uint64_t memAccesses() const { return memAccesses_.value(); }
    std::uint64_t microOps() const { return microOps_.value(); }
    std::uint64_t remoteCompares() const
    {
        return remoteCompares_.value();
    }
    std::uint64_t exceptions() const { return exceptions_.value(); }
    std::uint64_t translationCycles() const
    {
        return translationCycles_.value();
    }
    std::uint64_t batchesAccepted() const
    {
        return batchesAccepted_.value();
    }
    std::uint64_t batchHeaderHits() const
    {
        return batchHeaderHits_.value();
    }
    std::uint64_t batchLineHits() const
    {
        return batchLineHits_.value();
    }
    DataProcessingUnit& dpu() { return dpu_; }
    Tlb* dedicatedTlb() { return dedicatedTlb_.get(); }
    /** Read-only QST view (watchdog dumps, tests). */
    const QueryStateTable& qst() const { return qst_; }

    /**
     * Attach a trace sink: queue, CEE, micro-op, DPU, and delivery
     * activity is recorded as timeline events. Call after the
     * accelerator is adopted into the system tree so the interned
     * component path is fully qualified.
     */
    void setTraceSink(trace::TraceSink* sink);

  private:
    /** Outcome of a translation attempt on this instance's path. */
    struct XlatResult
    {
        bool valid = false;
        Addr paddr = 0;
        Cycles latency = 0;
    };

    /**
     * Cost of a multi-line fetch, split so the translation share can
     * be attributed separately from the data-array share.
     */
    struct SpanCost
    {
        Cycles total = 0;
        Cycles xlat = 0;
        bool faulted() const { return total == kInvalidCycle; }
        /**
         * Every line of the span was served from the batch's staged
         * lines: the transition rides the batch lane (vectorized
         * level-wise processing) instead of the scalar CEE issue port.
         */
        bool coalesced = false;
    };

    /** In-flight QUERY_BATCH bookkeeping, one per accepted descriptor. */
    struct BatchCtx
    {
        int id = 0;
        int base = 0;   ///< reserved QST window base
        int window = 0; ///< reserved QST window size
        /**
         * Which window slots this batch still holds reservations on
         * (indexed slot - base). Tail-drain delivers drop slots one by
         * one, and a later batch may immediately re-reserve them — so
         * the global reserved marks alone can't tell whose they are.
         */
        std::vector<std::uint8_t> reservedMine;
        std::vector<BatchMember> members;
        std::size_t nextMember = 0; ///< next member to admit
        std::size_t remaining = 0;  ///< members not yet delivered
        QueryMode mode = QueryMode::Blocking;
        bool coalesce = true;
        /** 0 = undecided (set at the first member's dispatch),
         *  1 = level-wise line coalescing on, 2 = off. */
        int lineMode = 0;
        BatchDoneFn onDone;
        /** (headerAddr, cycle its line lands in the batch buffer);
         *  a batch names only a handful of headers. */
        std::vector<std::pair<Addr, Cycles>> headers;
    };

    /** The batch context @p entry belongs to, or nullptr (scalar). */
    BatchCtx* batchCtx(const QstEntry& entry);

    /**
     * Admit the next pending member into the batch's QST window.
     * @return false when every window slot is still occupied (a
     * reservation may overlap a draining predecessor's tail; the
     * member is admitted later, as those slots empty).
     */
    bool admitNextMember(BatchCtx& ctx);

    /**
     * Fetch the lines covering [vaddr, vaddr+bytes): timed as
     * parallel independent reads (the CEE issues them back to back);
     * returns the slowest line's cost, or a faulted cost on a
     * translation fault. For batch members with line coalescing
     * active, lines already staged by a fellow member cost only the
     * residual staging latency (min 1 cycle) and no memory access.
     */
    SpanCost fetchSpan(QstEntry& entry, Addr vaddr,
                       std::uint64_t bytes, Cycles start);

    /** Translate per the scheme's TranslatePath. */
    XlatResult translate(Addr vaddr, Cycles now);

    /**
     * Translate through @p entry's one-entry translation cache: a
     * same-page repeat costs one cycle and no TLB port.
     */
    XlatResult translateCached(QstEntry& entry, Addr vaddr, Cycles now);

    /** Timed data read/write of one cacheline per the DataPath. */
    Cycles dataAccess(Addr paddr, bool is_write, Cycles now);

    /** Mark entry ready and hand it to the CEE scheduler. */
    void makeReady(int id, Cycles when);

    /**
     * CEE slot: execute one state transition of entry @p id. A state
     * update can fold trailing register-only operations (field
     * extracts, ALU ops, register compares) into the same transition —
     * the DPU's five ALUs work in parallel — so one slot retires up to
     * `alus` fused micro-operations before yielding the engine.
     * @p epoch is the slot generation the event was scheduled
     * against; a mismatch means the slot was flushed and the event
     * drops itself.
     */
    void executeEntry(int id, std::uint32_t epoch);

    /** Run the type-independent header-fetch prologue. */
    void executeHeaderFetch(int id);

    /**
     * Run one MicroInst of the entry's CFA program.
     * @return true when the op was register-only and the entry can
     * continue in the same CEE slot (fusion), false when the op
     * scheduled its own completion (memory / hash / key compare /
     * return / exception).
     */
    bool executeMicroInst(int id);

    /** Enter the exception state and deliver the error (Sec. IV-D). */
    void raiseException(int id, QueryError error);

    /** Deliver a completed / faulted query through the Result Queue. */
    void deliver(int id);

    /** Three-way compare of the query key against memory. */
    CmpFlag compareKeyFunctional(const QstEntry& entry, Addr mem_vaddr,
                                 std::uint32_t len) const;

    int id_;
    int tile_;
    int homeCore_;
    AccelEnv& env_;
    /** Per-instance parameter block (copy; see params()). */
    SchemeConfig params_;
    QueryStateTable qst_;
    DataProcessingUnit dpu_;
    std::unique_ptr<Tlb> dedicatedTlb_;
    std::vector<CompletionFn> completions_;

    /** CEE issue port: at most one state transition per cycle. */
    Cycles ceeNextFree_ = 0;

    /** Live batch contexts, indexed by batch id (nullptr = free). */
    std::vector<std::unique_ptr<BatchCtx>> batches_;
    /**
     * Each batch id's staged level lines (see fetchSpan), indexed like
     * batches_. A table outlives its batches: a new batch in the slot
     * clears it by generation, so no batch allocates or zeroes one.
     */
    std::vector<LineStage> lineStages_;

    Counter completed_;
    Counter memAccesses_;
    Counter microOps_;
    Counter remoteCompares_;
    Counter exceptions_;
    Counter translationCycles_;
    Counter batchesAccepted_;
    Counter batchHeaderHits_;
    Counter batchLineHits_;

    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    /** Interned micro-op mnemonics, indexed by MicroOpcode. */
    std::array<std::uint32_t, 10> traceOp_{};
    std::uint32_t traceHeaderFetch_ = 0;
    std::uint32_t traceEnqueue_ = 0;
    std::uint32_t traceCeeWait_ = 0;
    std::uint32_t traceDeliver_ = 0;
    std::uint32_t traceCompare_ = 0;
    std::uint32_t traceHash_ = 0;
    std::uint32_t traceTlbHit_ = 0;
    std::uint32_t traceTlbWalk_ = 0;
};

} // namespace qei

#endif // QEI_QEI_ACCELERATOR_HH
