/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders callbacks by (cycle, priority, sequence). The
 * sequence number is unique per scheduled event, so this is a strict
 * total order: same-cycle, same-priority events fire in scheduling
 * order, and any correct heap pops the same sequence of events.
 *
 * Host performance: scheduling and popping run once or more per
 * simulated micro-operation, so the kernel keeps the callbacks out of
 * the heap.
 *  - Each action is an EventFn, which stores its capture state inline
 *    (std::function's small buffer is too small for the simulator's
 *    callbacks). It is built once, in place, into a slot of a slab
 *    (`slots_`); a free list recycles the slots.
 *  - The heap (`heap_`) is a 4-ary min-heap of 24-byte keys: the
 *    ordering fields plus the action's slot index. Sifting moves keys
 *    only, never an action.
 *  - Popping takes the earliest key, moves its action out of the slot
 *    into a local and frees the slot, then invokes it. An action that
 *    schedules may grow the slab, so it must not run in place.
 * The heap, slab and free list keep their capacity across reset(), so
 * back-to-back experiment runs on one World reuse the same storage.
 */

#ifndef QEI_SIM_EVENT_QUEUE_HH
#define QEI_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace qei {

/**
 * Process-wide count of events executed by every EventQueue (all
 * Worlds, all threads; relaxed atomic). run()/runUntil() add their
 * executed counts on return. Only perfbench reads it, as deltas around
 * its runQei calls; harness reports count each World's own
 * EventQueue::executed() instead. ROADMAP item 3, which moves
 * perfbench onto per-cell host records, deletes it.
 */
std::uint64_t simEventsExecuted();

/** Relative ordering of events scheduled for the same cycle. */
enum class EventPriority : std::int8_t {
    MemoryResponse = -2, ///< responses fire before consumers
    Default = 0,
    CfaTick = 1,         ///< the CEE ticks after responses land
    Stats = 2,
};

/**
 * Move-only callable for scheduled actions, with inline storage for
 * the capture state. The issue/completion lambdas in QeiSystem capture
 * ~10 words; kInlineBytes covers all of them, so steady-state
 * scheduling performs no heap allocation. Oversized captures (the
 * per-query delivery snapshot) transparently fall back to the heap.
 */
class EventFn
{
  public:
    static constexpr std::size_t kInlineBytes = 96;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F&& fn)
    {
        construct(std::forward<F>(fn));
    }

    EventFn(EventFn&& other) noexcept { moveFrom(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { destroy(); }

    /**
     * Replace the held action with @p fn, built in place (an EventFn
     * argument is moved in instead of being wrapped).
     */
    template <typename F>
    void
    emplace(F&& fn)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "an EventFn is move-only");
            *this = std::move(fn);
        } else {
            destroy();
            construct(std::forward<F>(fn));
        }
    }

    void operator()() { ops_->invoke(storage_); }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    struct Ops
    {
        void (*invoke)(void*);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void* dst, void* src);
        void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) {
            Fn* s = static_cast<Fn*>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* dst, void* src) {
            *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
    };

    template <typename F>
    void
    construct(F&& fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(storage_))
                Fn(std::forward<F>(fn));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn**>(storage_) =
                new Fn(std::forward<F>(fn));
            ops_ = &heapOps<Fn>;
        }
    }

    void
    moveFrom(EventFn& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/** Central time-ordered event queue driving a simulation. */
class EventQueue
{
  public:
    EventQueue() { reserve(kInitialCapacity); }
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated cycle. */
    Cycles now() const { return now_; }

    /**
     * Schedule @p action to run @p delay cycles from now.
     * A zero delay runs later in the current cycle. @p action is any
     * callable (or an EventFn); it is built once, in its slot.
     */
    template <typename F>
    void
    schedule(Cycles delay, F&& action,
             EventPriority prio = EventPriority::Default)
    {
        scheduleAt(now_ + delay, std::forward<F>(action), prio);
    }

    /** Schedule @p action at absolute cycle @p when (>= now). */
    template <typename F>
    void
    scheduleAt(Cycles when, F&& action,
               EventPriority prio = EventPriority::Default)
    {
        simAssert(when >= now_,
                  "scheduling into the past: {} < {}", when, now_);
        push(Key{when, nextSequence_++,
                 store(std::forward<F>(action)), prio, false});
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Schedule a housekeeping *daemon* event @p delay cycles from now.
     *
     * Daemons (the fault-injection flusher, the forward-progress
     * watchdog) are periodic self-rescheduling events that must not
     * keep run() alive forever, must not keep *each other* alive, and
     * must not drag the simulated clock: once only daemons remain in
     * the heap, run() still drains them (so no callback outlives the
     * run region) but rewinds now() to the last *real* event before
     * returning — a trailing watchdog epoch does not inflate the time
     * an issue loop reads back.
     *
     * Contract for daemon callbacks: re-arm (via scheduleDaemon) only
     * while pendingWork() is non-zero, and schedule no real work once
     * it has hit zero.
     */
    template <typename F>
    void
    scheduleDaemon(Cycles delay, F&& action)
    {
        push(Key{now_ + delay, nextSequence_++,
                 store(std::forward<F>(action)),
                 EventPriority::Default, true});
        ++daemons_;
    }

    /** Registered daemon events currently scheduled. */
    std::size_t daemons() const
    {
        return static_cast<std::size_t>(daemons_);
    }

    /** Pending events that are not housekeeping daemons. */
    std::size_t
    pendingWork() const
    {
        return heap_.size() - static_cast<std::size_t>(daemons_);
    }

    /** Pre-size the heap and the slot slab for @p events pending. */
    void
    reserve(std::size_t events)
    {
        heap_.reserve(events);
        slots_.reserve(events);
    }

    /**
     * Run until the queue drains or @p maxCycles elapse.
     * @return number of events executed.
     */
    std::uint64_t run(Cycles maxCycles = kInvalidCycle);

    /** Execute events up to and including cycle @p until. */
    std::uint64_t runUntil(Cycles until);

    /**
     * Events this queue has executed since construction; reset()
     * keeps it. run()/runUntil() add their counts on return, so the
     * hot loop pays nothing for it.
     */
    std::uint64_t executed() const { return executed_; }

    /**
     * Drop all pending events (used between independent experiments),
     * destroying their actions. Keeps the allocated storage for the
     * next run.
     */
    void reset();

    /**
     * Attach a trace sink: every run()/runUntil() that executes at
     * least one event records a Category::Sim span covering the cycles
     * it advanced.
     */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        trace_ = sink;
        if (sink != nullptr) {
            traceComp_ = sink->internComponent("events");
            traceRun_ = sink->internName("run");
        }
    }

  private:
    static constexpr std::size_t kInitialCapacity = 256;
    /** Children per heap node (chosen with BM_EventQueue*). */
    static constexpr std::size_t kArity = 4;

    /** One pending event's ordering fields and its action's slot. */
    struct Key
    {
        Cycles when;
        std::uint64_t sequence;
        std::uint32_t slot;
        EventPriority priority;
        /** Housekeeping event (see scheduleDaemon()). */
        bool daemon;
    };
    static_assert(sizeof(Key) == 24, "heap keys must stay 24 bytes");

    /** The heap order: (when, priority, sequence), all ascending. */
    static bool
    earlier(const Key& a, const Key& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.sequence < b.sequence;
    }

    /** Build @p action in a free slot of the slab; return its index. */
    template <typename F>
    std::uint32_t
    store(F&& action)
    {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            slots_[slot].emplace(std::forward<F>(action));
            return slot;
        }
        const auto slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back().emplace(std::forward<F>(action));
        return slot;
    }

    /** Add @p key to the heap and sift it up to its place. */
    void push(Key key);

    /** Remove and return the earliest key. Requires !empty(). */
    Key popEarliest();

    /**
     * Move the action out of @p slot and free the slot. The caller
     * invokes the returned action only after this: an action that
     * schedules may grow (and so move) the slab.
     */
    EventFn
    take(std::uint32_t slot)
    {
        EventFn action = std::move(slots_[slot]);
        free_.push_back(slot);
        return action;
    }

    Cycles now_ = 0;
    std::uint64_t nextSequence_ = 0;
    int daemons_ = 0;
    std::uint64_t executed_ = 0;
    /** kArity-ary min-heap of keys under earlier(). */
    std::vector<Key> heap_;
    /** Pending actions, indexed by Key::slot; free ones are empty. */
    std::vector<EventFn> slots_;
    /** Indices of the free slots in slots_. */
    std::vector<std::uint32_t> free_;
    trace::TraceSink* trace_ = nullptr;
    std::uint16_t traceComp_ = 0;
    std::uint32_t traceRun_ = 0;
};

} // namespace qei

#endif // QEI_SIM_EVENT_QUEUE_HH
