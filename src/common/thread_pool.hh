/**
 * @file
 * Host-side thread pool for fanning independent simulation cells
 * (workload x scheme experiments, sweep points) across cores.
 *
 * Determinism contract: the pool itself never reorders *results* —
 * submit() hands back a std::future and parallelMap() returns values
 * in submission (index) order, so a caller that derives its output
 * purely from the returned values is bit-identical at any thread
 * count. The other half of the contract is the caller's: tasks must
 * not share mutable state. Simulation code keeps that easy — a World
 * owns every piece of mutable machine state (memory, VM, hierarchy,
 * EventQueue, FirmwareStore, Rng), so "one World per task" is the
 * whole rule; the only process-wide state left is the logging sink
 * (mutex-guarded), the log level (atomic), and the telemetry pair
 * named on World (workloads/workload.hh).
 */

#ifndef QEI_COMMON_THREAD_POOL_HH
#define QEI_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"

namespace qei {

/**
 * Move-only type-erased callable. Pool tasks wrap
 * std::packaged_task, which std::function cannot hold (it requires
 * copyable targets).
 */
class UniqueFunction
{
  public:
    UniqueFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, UniqueFunction>>>
    UniqueFunction(F&& fn)
        : impl_(std::make_unique<Impl<std::decay_t<F>>>(
              std::forward<F>(fn)))
    {
    }

    UniqueFunction(UniqueFunction&&) noexcept = default;
    UniqueFunction& operator=(UniqueFunction&&) noexcept = default;

    void operator()() { impl_->call(); }
    explicit operator bool() const { return impl_ != nullptr; }

  private:
    struct Base
    {
        virtual ~Base() = default;
        virtual void call() = 0;
    };

    template <typename F>
    struct Impl final : Base
    {
        explicit Impl(F&& fn) : fn(std::move(fn)) {}
        explicit Impl(const F& fn) : fn(fn) {}
        void call() override { fn(); }
        F fn;
    };

    std::unique_ptr<Base> impl_;
};

/**
 * Fixed-size worker pool with a FIFO task queue and future-based
 * results. Exceptions thrown by a task are captured in its future and
 * rethrown from get() on the submitting thread.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers; <= 0 uses hardwareThreads(). */
    explicit ThreadPool(int threads = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Host hardware concurrency (>= 1). */
    static int hardwareThreads();

    /**
     * Enqueue @p fn; its result (or exception) is delivered through
     * the returned future. Futures complete in whatever order tasks
     * finish — callers wanting deterministic output consume them in
     * submission order.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>&>;
        std::packaged_task<Result()> task(std::forward<F>(fn));
        std::future<Result> future = task.get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            simAssert(!stopping_, "submit() on a stopping ThreadPool");
            tasks_.emplace_back(
                [t = std::move(task)]() mutable { t(); });
        }
        cv_.notify_one();
        return future;
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<UniqueFunction> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Evaluate fn(0..n-1) across up to @p threads workers and return the
 * results in index order — the deterministic fan-out primitive the
 * bench harnesses build on. threads <= 1 (or n <= 1) runs inline on
 * the calling thread with no pool at all, so a serial run has zero
 * threading overhead and is trivially the reference ordering.
 */
template <typename Fn>
auto
parallelMap(int threads, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>>
{
    using Result = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<Result> out;
    out.reserve(n);
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(fn(i));
        return out;
    }

    ThreadPool pool(static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads), n)));
    std::vector<std::future<Result>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futures.push_back(pool.submit([&fn, i] { return fn(i); }));
    for (auto& f : futures)
        out.push_back(f.get());
    return out;
}

} // namespace qei

#endif // QEI_COMMON_THREAD_POOL_HH
