/**
 * @file
 * Workload framework: a World bundles the simulated machine state one
 * experiment runs against; a Workload builds its data structures in
 * that world and prepares matched query streams for the software
 * baseline and for QEI (same keys, same order, same ground truth).
 */

#ifndef QEI_WORKLOADS_WORKLOAD_HH
#define QEI_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/chip_config.hh"
#include "core/core_model.hh"
#include "core/trace.hh"
#include "mem/sim_memory.hh"
#include "metrics/metrics.hh"
#include "qei/driver.hh"
#include "qei/firmware.hh"
#include "qei/system.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/**
 * Everything one experiment runs against.
 *
 * Thread-safety rule — *no shared mutable state per task*: a World
 * owns every piece of mutable simulation state an experiment touches
 * (SimMemory, VirtualMemory, MemoryHierarchy, EventQueue, its own
 * FirmwareStore copy from FirmwareStore::factory(), and the Rng), and
 * StatsRegistry instances are built per QeiSystem, so two threads
 * running on different Worlds never race. Its telemetry is its own
 * too: the trace sink, the metrics switch and sampled series
 * (metricsLog), and the count of events its queue executed
 * (EventQueue::executed()). The sweep runner (bench::Sweep, which
 * runWorkloadMatrix uses) relies on this: each worker builds its own
 * World and Workload instance, arms and drains that World's telemetry
 * around each cell, and cells touch nothing static, so two harness
 * reports can run side by side in one process. Every setting reaches
 * a run as a value (the World's ChipConfig, the cell's DriverConfig);
 * nothing is read from the environment. The only process-wide state
 * simulation code may share is the logging layer, which is
 * thread-safe (common/logging.hh), and a relaxed event counter only
 * perfbench reads (sim/event_queue.hh).
 *
 * Within one thread, runs on a World are sequential and independent:
 * runBaseline() and runQei() start with resetTiming() + warmLlc(), so
 * a sweep builds and prepares a row's World once and runs any number
 * of cells on it, each bit-identical to one on a fresh World.
 */
struct World
{
    explicit World(std::uint64_t seed = 1,
                   const ChipConfig& config = ChipConfig{})
        : chip(config), memory(8ULL << 30),
          vm(memory, FrameAllocator::Mode::Fragmented, seed),
          hierarchy(config.memory),
          firmware(FirmwareStore::factory()), rng(seed)
    {
        // Wire the shared components to this world's sink once; the
        // sink stays disabled (and the instrumentation free) until an
        // experiment calls traceSink.enable(). Worlds never move, so
        // the pointers stay valid for the world's lifetime.
        events.setTraceSink(&traceSink);
        hierarchy.setTraceSink(&traceSink);
        vm.setTraceSink(&traceSink);
        worldInterns_ = traceSink.internMark();
    }

    /**
     * Reset all per-run state (caches, NoC traffic, DRAM queues, event
     * queue, the page-walk count, and the trace intern tables back to
     * the world's own components) without touching the built data
     * structures, so baseline and every scheme start from the machine
     * state — and produce the stats and traces — of a fresh World.
     * Per-run components (MMUs, cores, QeiSystems) built before this
     * call must not record after it: their trace ids are re-issued.
     */
    void
    resetTiming()
    {
        hierarchy.flushAllCaches();
        hierarchy.resetCacheStats();
        hierarchy.mesh().resetTraffic();
        hierarchy.dram().reset();
        events.reset();
        vm.resetPageWalks();
        traceSink.rollbackInterns(worldInterns_);
    }

    /**
     * Load the entire mapped footprint into the LLC: the steady state
     * the paper evaluates (structures larger than the private caches
     * but LLC-resident, queries arriving back to back). Runs after
     * resetTiming() so baseline and every scheme see the same warm
     * LLC and cold private caches.
     */
    void warmLlc() { qei::warmLlc(hierarchy, vm); }

    ChipConfig chip;
    SimMemory memory;
    VirtualMemory vm;
    MemoryHierarchy hierarchy;
    EventQueue events;
    FirmwareStore firmware;
    Rng rng;
    /**
     * The `--metrics` switch and what it collected: while enabled,
     * every runQei on this world samples and leaves its series here
     * (bench::Sweep enables and drains it).
     */
    metrics::RunLog metricsLog;
    /**
     * Per-world timeline event sink (tentpole of the observability
     * work): private to this world, so parallel matrix rows never
     * share trace state. Declared last so every component it observes
     * outlives it during destruction.
     */
    trace::TraceSink traceSink;

  private:
    /** Intern tables once the world's own components are wired. */
    trace::TraceSink::InternMark worldInterns_;
};

/** Matched baseline/QEI query streams for one workload. */
struct Prepared
{
    std::vector<QueryTrace> traces; ///< software baseline, in order
    std::vector<QueryJob> jobs;     ///< the same queries for QEI
    RoiProfile profile;
    /** Queries per job (Snort scans a whole buffer per job). */
    double workPerJob = 1.0;
};

/** Interface every paper workload implements. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short identifier ("dpdk", "jvm", ...). */
    virtual std::string name() const = 0;

    /** Human-readable description for reports. */
    virtual std::string description() const = 0;

    /** Build the data structures in @p world (expensive, run once). */
    virtual void build(World& world) = 0;

    /** Generate @p queries matched query streams. */
    virtual Prepared prepare(World& world, std::size_t queries) = 0;

    /** Default number of queries per experiment run. */
    virtual std::size_t defaultQueries() const { return 2000; }
};

/** Run the software baseline for @p prepared on core @p core. */
CoreRunResult runBaseline(World& world, const Prepared& prepared,
                          int core = 0);

/**
 * Run @p prepared through QEI under @p config — the one way a harness
 * or example runs jobs on a QEI deployment: build a QeiSystem for the
 * config's topology on this world, warm its TLBs, wire the software
 * fallback, and drive() the prepared jobs from config.cores issuing
 * cores (closed loop unless the config carries an open-loop traffic
 * source). When config.statsJsonOut is non-null it receives the full
 * component-tree stats dump captured before the system is torn down.
 * While the world's metricsLog is enabled the run is sampled: the
 * series go into the returned QeiRunStats::metrics and, under the
 * config's cell label (the topology name when it has none), into the
 * log.
 */
QeiRunStats runQei(World& world, const Prepared& prepared,
                   const DriverConfig& config);

/** Baseline-cycles / QEI-cycles. */
double speedupOf(const CoreRunResult& baseline, const QeiRunStats& qei);

/** All five paper workloads, in the paper's presentation order. */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/** Produces a fresh, independent instance of one workload. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/**
 * One factory per paper workload, in the paper's presentation order.
 * Parallel experiment runners use these so every task (a matrix row)
 * owns a private Workload instance — Workload subclasses keep
 * per-World build state, so instances must not be shared across
 * concurrent tasks.
 */
std::vector<WorkloadFactory> makeWorkloadFactories();

} // namespace qei

#endif // QEI_WORKLOADS_WORKLOAD_HH
