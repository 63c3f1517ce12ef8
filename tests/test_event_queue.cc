#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"

using namespace qei;

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(20, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(30, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleFifoBySequence)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityBeatsSequence)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); },
               EventPriority::CfaTick);
    q.schedule(5, [&] { order.push_back(0); },
               EventPriority::MemoryResponse);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    std::vector<Cycles> times;
    q.schedule(1, [&] {
        times.push_back(q.now());
        q.schedule(4, [&] { times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Cycles>{1, 5}));
}

TEST(EventQueue, ZeroDelayRunsSameCycle)
{
    EventQueue q;
    bool ran = false;
    q.schedule(3, [&] { q.schedule(0, [&] { ran = true; }); });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int count = 0;
    q.schedule(5, [&] { ++count; });
    q.schedule(10, [&] { ++count; });
    q.schedule(15, [&] { ++count; });
    q.runUntil(10);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunWithBudgetStops)
{
    EventQueue q;
    int count = 0;
    q.schedule(5, [&] { ++count; });
    q.schedule(500, [&] { ++count; });
    q.run(100);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, ResetDropsEventsAndClock)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.run();
    q.schedule(50, [] {});
    q.reset();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, ReturnsExecutedCount)
{
    EventQueue q;
    for (int i = 0; i < 9; ++i)
        q.schedule(static_cast<Cycles>(i), [] {});
    EXPECT_EQ(q.run(), 9u);
}

TEST(EventQueueDeath, SchedulingIntoPastPanics)
{
    EventQueue q;
    q.schedule(10, [&q] {
        // now == 10; absolute 5 is in the past.
        q.scheduleAt(5, [] {});
    });
    EXPECT_DEATH(q.run(), "scheduling into the past");
}

TEST(EventQueue, ReleasesCapturesAfterRunAndReset)
{
    auto token = std::make_shared<int>(0);
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
        q.schedule(static_cast<Cycles>(i % 7), [&q, token] {
            ++*token;
            q.schedule(3, [token] { ++*token; });
        });
    }
    EXPECT_EQ(token.use_count(), 101);
    q.run();
    EXPECT_EQ(*token, 200);
    // Fired actions are destroyed, not parked in their freed slots.
    EXPECT_EQ(token.use_count(), 1);

    for (int i = 0; i < 100; ++i)
        q.schedule(static_cast<Cycles>(i), [token] { ++*token; });
    q.runUntil(q.now() + 49);
    EXPECT_EQ(token.use_count(), 51);
    q.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(*token, 250);
}

namespace {

/**
 * Reference kernel for the differential test: the same scheduling
 * API and run semantics as EventQueue, over a std::map sorted by
 * (when, priority, sequence).
 */
class ReferenceQueue
{
  public:
    Cycles now() const { return now_; }

    template <typename F>
    void
    schedule(Cycles delay, F&& fn,
             EventPriority prio = EventPriority::Default)
    {
        scheduleAt(now_ + delay, std::forward<F>(fn), prio);
    }

    template <typename F>
    void
    scheduleAt(Cycles when, F&& fn,
               EventPriority prio = EventPriority::Default)
    {
        add(when, prio, false, std::forward<F>(fn));
    }

    template <typename F>
    void
    scheduleDaemon(Cycles delay, F&& fn)
    {
        add(now_ + delay, EventPriority::Default, true,
            std::forward<F>(fn));
    }

    std::size_t pending() const { return events_.size(); }

    std::uint64_t
    run()
    {
        Cycles lastReal = now_;
        std::uint64_t executed = 0;
        while (!events_.empty()) {
            auto node = events_.extract(events_.begin());
            now_ = std::get<0>(node.key());
            if (!node.mapped().daemon)
                lastReal = now_;
            node.mapped().fn();
            ++executed;
        }
        now_ = lastReal;
        return executed;
    }

    std::uint64_t
    runUntil(Cycles until)
    {
        std::uint64_t executed = 0;
        while (!events_.empty() &&
               std::get<0>(events_.begin()->first) <= until) {
            auto node = events_.extract(events_.begin());
            now_ = std::get<0>(node.key());
            node.mapped().fn();
            ++executed;
        }
        if (now_ < until)
            now_ = until;
        return executed;
    }

    void
    reset()
    {
        events_.clear();
        now_ = 0;
        sequence_ = 0;
    }

  private:
    struct Entry
    {
        std::function<void()> fn;
        bool daemon;
    };

    template <typename F>
    void
    add(Cycles when, EventPriority prio, bool daemon, F&& fn)
    {
        events_.emplace(std::make_tuple(when, prio, sequence_++),
                        Entry{std::forward<F>(fn), daemon});
    }

    std::map<std::tuple<Cycles, EventPriority, std::uint64_t>, Entry>
        events_;
    Cycles now_ = 0;
    std::uint64_t sequence_ = 0;
};

constexpr std::array<EventPriority, 4> kPriorities = {
    EventPriority::MemoryResponse, EventPriority::Default,
    EventPriority::CfaTick, EventPriority::Stats};

/** What a run observed: each firing, or a run call's result. */
struct Observation
{
    std::uint64_t what; ///< event id, or kRunMark + events executed
    Cycles now;
    bool operator==(const Observation&) const = default;
};
constexpr std::uint64_t kRunMark = std::uint64_t{1} << 40;

/**
 * A seeded stream of events whose behaviour depends only on each
 * event's id: the same stream drives EventQueue and the reference, so
 * any difference in firing order shows in the observations.
 */
template <typename Q>
class Stream
{
  public:
    Stream(Q& q, std::uint64_t seed) : q_(q), seed_(seed) {}

    /** Schedule one new event through a seeded choice of API. */
    void
    add()
    {
        const std::uint64_t id = nextId_++;
        Rng rng(seed_ * 1000003 + id);
        // Small delays: many events share a cycle, so priority and
        // sequence decide most of the order.
        const Cycles delay = rng.below(9);
        const EventPriority prio = kPriorities[rng.below(4)];
        const std::uint64_t api = rng.below(8);
        // Real events spawn their children first and then log their
        // id from their own capture: an action that a recycled slot
        // overwrote mid-call logs the wrong id.
        if (api == 0) {
            q_.scheduleDaemon(delay, [this, id] { log(id); });
        } else if (api == 1) {
            // Too large for EventFn's inline buffer: heap fallback.
            std::array<std::uint64_t, 16> payload{};
            payload.back() = id;
            q_.scheduleAt(q_.now() + delay, [this, payload] {
                spawn(payload.back());
                log(payload.back());
            }, prio);
        } else if (api <= 3) {
            q_.scheduleAt(q_.now() + delay, [this, id] {
                spawn(id);
                log(id);
            }, prio);
        } else {
            q_.schedule(delay, [this, id] {
                spawn(id);
                log(id);
            }, prio);
        }
    }

    void
    addMany(int n)
    {
        for (int i = 0; i < n; ++i)
            add();
    }

    /** Let callbacks schedule @p events more children from now on. */
    void allow(std::uint64_t events) { limit_ = nextId_ + events; }

    void
    mark(std::uint64_t executed)
    {
        observed_.push_back(Observation{kRunMark + executed, q_.now()});
    }

    const std::vector<Observation>& observed() const { return observed_; }

  private:
    void log(std::uint64_t id)
    {
        observed_.push_back(Observation{id, q_.now()});
    }

    /** Schedule the children of real event @p id. */
    void
    spawn(std::uint64_t id)
    {
        if (nextId_ >= limit_)
            return;
        if (id % 7919 == 7918) {
            // A burst from inside a callback: with ~10 K events
            // already in flight, this grows the slot slab mid-call.
            addMany(12000);
            return;
        }
        Rng rng(seed_ * 7777 + id);
        const std::uint64_t children = rng.below(3);
        for (std::uint64_t c = 0; c < children; ++c)
            add();
    }

    Q& q_;
    std::uint64_t seed_;
    std::uint64_t nextId_ = 0;
    std::uint64_t limit_ = 0;
    std::vector<Observation> observed_;
};

template <typename Q>
std::vector<Observation>
driveStream(std::uint64_t seed, std::size_t* peakPending)
{
    Q q;
    Stream<Q> s(q, seed);
    s.allow(60000);
    s.addMany(12000);
    *peakPending = q.pending();
    s.mark(q.runUntil(3));
    s.mark(q.runUntil(3)); // an empty step at the same boundary
    s.mark(q.runUntil(40));
    s.addMany(100); // scheduled between runs, at the boundary
    s.mark(q.runUntil(41));
    *peakPending = std::max(*peakPending, q.pending());
    q.reset(); // drops the ~10 K events still pending
    s.mark(0);
    s.allow(60000);
    s.addMany(12000);
    s.mark(q.run());
    s.addMany(50);
    s.mark(q.runUntil(q.now() + 5));
    s.mark(q.run());
    return s.observed();
}

} // namespace

TEST(EventQueue, MatchesSortedReferenceOnSeededMix)
{
    for (std::uint64_t seed : {1u, 7u, 19u}) {
        std::size_t peak = 0;
        std::size_t refPeak = 0;
        const auto got = driveStream<EventQueue>(seed, &peak);
        const auto want = driveStream<ReferenceQueue>(seed, &refPeak);
        EXPECT_GE(peak, 10000u) << "seed " << seed;
        EXPECT_EQ(peak, refPeak) << "seed " << seed;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << ", observation " << i << ": id "
                << got[i].what << " at " << got[i].now << ", want id "
                << want[i].what << " at " << want[i].now;
        }
    }
}
