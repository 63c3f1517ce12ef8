/**
 * @file
 * The core side of every QEI run (Sec. IV-C, VII-A/B).
 */

#ifndef QEI_QEI_ISSUE_ENGINE_HH
#define QEI_QEI_ISSUE_ENGINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "qei/driver.hh"
#include "qei/system.hh"
#include "traffic/traffic.hh"

namespace qei {

/**
 * Jobs are dealt round-robin over the issuing lanes, one per issuing
 * core [0, cores), each with its own fetch clock, in-flight window and
 * one pending FIFO per tenant. A closed loop is the whole job stream
 * queued at t=0; an open loop is the same stream arriving on a traffic
 * source's timeline. Every unit a lane issues (one query, or one
 * QUERY_BATCH descriptor) pays one issue gap, runs on the issuing core
 * when the planner keeps it there, and retires through one completion
 * path; the submit policy decides the window, QST admission and the
 * retire charge (docs/traffic.md).
 */
class IssueEngine
{
  public:
    /**
     * How a lane's units reach the accelerators and retire. Blocking
     * (QUERY_B): ROB/LQ window, software QST reservation, response
     * charged at retire. NonBlocking (QUERY_NB): the poll batch is the
     * window, refilled at each drain; a full QST backs off at the
     * accelerator. Batch (QUERY_BATCH): planQueryBatches descriptors,
     * admitted head-first per accelerator. Store-like policies charge
     * SNAPSHOT_READ polling at each drain.
     */
    enum class Submit { Blocking, NonBlocking, Batch };

    /**
     * @p cores must lie in [1, chip cores]. @p poll_batch is the
     * NonBlocking window; @p batch configures the Batch policy's
     * reorderer (size > 1). Each is ignored otherwise.
     */
    IssueEngine(QeiSystem& sys, const std::vector<QueryJob>& jobs,
                const RoiProfile& profile, int cores, Submit submit,
                int poll_batch = 0, BatchConfig batch = {});
    // Scheduled events and completions hold `this`.
    IssueEngine(const IssueEngine&) = delete;
    IssueEngine& operator=(const IssueEngine&) = delete;

    /** Run the closed loop (@p arrivals null) or the open loop. */
    QeiRunStats run(const std::vector<traffic::Arrival>* arrivals =
                        nullptr);

  private:
    /** One unit waiting in a lane's FIFO. */
    struct Pending
    {
        /** The query; a descriptor's first member. */
        std::size_t jobIdx;
        Cycles arrivedAt;
        /** The QUERY_BATCH descriptor; null for a single query. */
        const PlannedBatch* batch = nullptr;
    };

    /** One issuing core. */
    struct Lane
    {
        int core = 0;
        double fetchTime = 0.0;
        /** Window slots held (released at retire, or at a drain). */
        int inflight = 0;
        int rrCursor = 0;
        /** One FIFO per tenant; a blocked head stalls only its own. */
        std::vector<std::deque<Pending>> pending;
    };

    /** An issued unit, as its submission and completion see it. */
    struct Issued
    {
        std::size_t jobIdx;
        Lane* lane;
        int tenant;
        Cycles issueAt;
        Cycles queueWait;
        /** Null when the planner kept the query on the core. */
        Accelerator* target;
        const PlannedBatch* batch;
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

    bool storeLike() const { return submit_ != Submit::Blocking; }

    /** Fetch cycles one unit of @p instr instructions costs. */
    double issueGap(std::uint32_t instr, std::uint32_t mispredicts) const;
    void queueBatches();
    void pumpAll();
    void pump(Lane& lane);
    bool tryIssue(Lane& lane, int tenant, bool allow_borrow);
    void submit(const Issued& q, Cycles backoff);
    void admitBatches(std::size_t accel);
    Accelerator::CompletionFn onComplete(const Issued& q);
    void complete(const Issued& q, const QstEntry& entry);
    void onDrained();
    void arrive(const traffic::Arrival& a);
    void degradeToCore(const traffic::Arrival& a, TenantStats& ts);

    QeiSystem& sys_;
    EventQueue& events_;
    const CoreParams& core_;
    const std::vector<QueryJob>& jobs_;
    const RoiProfile& profile_;
    const Submit submit_;
    const BatchConfig batch_;
    /** Window slots per lane. */
    int window_ = 0;
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

    /** QUERY_BATCH descriptors, and each accelerator's admission FIFO. */
    std::vector<PlannedBatch> plan_;
    std::vector<std::deque<Issued>> admitFifo_;
    std::vector<std::uint8_t> retryArmed_;
    int openDescriptors_ = 0;

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

} // namespace qei

#endif // QEI_QEI_ISSUE_ENGINE_HH
