#include "event_queue.hh"

#include <algorithm>
#include <atomic>

namespace qei {

namespace {

std::atomic<std::uint64_t> gSimEventsExecuted{0};

} // namespace

std::uint64_t
simEventsExecuted()
{
    return gSimEventsExecuted.load(std::memory_order_relaxed);
}

std::uint64_t
EventQueue::run(Cycles maxCycles)
{
    const Cycles deadline =
        maxCycles == kInvalidCycle ? kInvalidCycle : now_ + maxCycles;
    const Cycles start = now_;
    // Daemon events execute at their scheduled cycle but never define
    // the end of the run: once real work drains, now() rewinds here.
    Cycles lastReal = now_;
    std::uint64_t executed = 0;
    while (!heap_.empty()) {
        if (deadline != kInvalidCycle && heap_.front().when > deadline) {
            lastReal = deadline;
            break;
        }
        const Key key = popEarliest();
        now_ = key.when;
        if (key.daemon)
            --daemons_;
        else
            lastReal = now_;
        EventFn action = take(key.slot);
        action();
        ++executed;
    }
    now_ = lastReal;
    if (executed > 0 && trace::active(trace_)) {
        trace_->record(trace::Category::Sim, traceComp_, traceRun_,
                       trace::kNoQuery, start, now_ - start);
    }
    gSimEventsExecuted.fetch_add(executed, std::memory_order_relaxed);
    return executed;
}

std::uint64_t
EventQueue::runUntil(Cycles until)
{
    const Cycles start = now_;
    std::uint64_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
        const Key key = popEarliest();
        now_ = key.when;
        if (key.daemon)
            --daemons_;
        EventFn action = take(key.slot);
        action();
        ++executed;
    }
    if (now_ < until)
        now_ = until;
    if (executed > 0 && trace::active(trace_)) {
        trace_->record(trace::Category::Sim, traceComp_, traceRun_,
                       trace::kNoQuery, start, now_ - start);
    }
    gSimEventsExecuted.fetch_add(executed, std::memory_order_relaxed);
    return executed;
}

void
EventQueue::push(Key key)
{
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

EventQueue::Key
EventQueue::popEarliest()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    // Sift the former last key down from the root: each level moves
    // the earliest of up to kArity children into the hole.
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
    return top;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_.clear();
    free_.clear();
    now_ = 0;
    nextSequence_ = 0;
    daemons_ = 0;
}

} // namespace qei
