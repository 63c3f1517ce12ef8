#include "workload.hh"

#include "workloads/dpdk_fib.hh"
#include "workloads/flann_lsh.hh"
#include "workloads/jvm_gc.hh"
#include "workloads/rocksdb_memtable.hh"
#include "workloads/snort_ac.hh"

namespace qei {

namespace {

/** Mapped virtual pages in VPN order, for pre-warming the TLBs. */
std::vector<Addr>
mappedVpns(const VirtualMemory& vm)
{
    std::vector<Addr> vpns;
    vm.forEachMapping([&vpns](Addr vpn, Addr) { vpns.push_back(vpn); });
    return vpns;
}

} // namespace

CoreRunResult
runBaseline(World& world, const Prepared& prepared, int core)
{
    world.resetTiming();
    world.warmLlc();
    Mmu mmu(world.vm, world.chip.mmu);
    mmu.prefillL2(mappedVpns(world.vm));
    CoreModel model(core, world.chip.core, world.hierarchy, mmu);
    mmu.setTraceSink(&world.traceSink);
    model.setTraceSink(&world.traceSink);
    return model.runQueries(prepared.traces, prepared.profile);
}

namespace {

/**
 * Build, adopt, and wire a telemetry sampler for @p system: the
 * standard probe set (per-accelerator completion rate), the live
 * gauges a registry can't express (summed QST occupancy, event-queue
 * depth, NoC link utilisation), the backoff-rate series, and the
 * sojourn tail monitor QeiSystem::retire feeds. Series names use the
 * sampler's dotted path ("system.metrics.*") so artifact consumers
 * address them like any other stat.
 */
std::unique_ptr<metrics::MetricsSampler>
makeSampler(World& world, QeiSystem& system)
{
    auto sampler = std::make_unique<metrics::MetricsSampler>();
    system.adopt(*sampler);
    sampler->setTraceSink(&world.traceSink);
    sampler->observeRegistry(system.statsRegistry());
    for (int i = 0; i < system.acceleratorCount(); ++i) {
        sampler->probe(fmt("system.accel{}.queries", i),
                       metrics::SeriesKind::Rate);
    }
    QeiSystem* sys = &system;
    sampler->addGauge("system.metrics.qst_occupancy", [sys] {
        double occupied = 0.0;
        for (int i = 0; i < sys->acceleratorCount(); ++i) {
            occupied += static_cast<double>(
                sys->accelerator(i).qst().occupied());
        }
        return occupied;
    });
    EventQueue* events = &world.events;
    sampler->addGauge("system.metrics.event_queue_depth", [events] {
        return static_cast<double>(events->pendingWork());
    });
    Mesh* mesh = &world.hierarchy.mesh();
    sampler->addGauge("system.metrics.noc_peak_link_util", [mesh] {
        return mesh->peakLinkUtilisation();
    });
    sampler->addGauge("system.metrics.noc_mean_link_util", [mesh] {
        return mesh->meanLinkUtilisation();
    });
    sampler->addRate("system.metrics.qst_backoffs", [sys] {
        return static_cast<double>(sys->liveBackoffs());
    });
    sampler->addTailMonitor("system.metrics.sojourn",
                            metrics::SamplerConfig{}.sloSojournP99);
    system.setMetricsSampler(sampler.get());
    return sampler;
}

} // namespace

QeiRunStats
runQei(World& world, const Prepared& prepared,
       const DriverConfig& config)
{
    world.resetTiming();
    world.warmLlc();
    QeiSystem system(world.chip, world.events, world.hierarchy,
                     world.vm, world.firmware, config.topology,
                     &world.traceSink);
    system.warmTlbs(mappedVpns(world.vm));
    // The baseline traces double as the software view of each job:
    // with a fault mix configured, faulted queries re-execute on the
    // simulated core instead of surfacing as exceptions (Sec. IV-D).
    system.setSoftwareFallback(&prepared.traces, prepared.profile);
    // Offload planner: per-run (matrix cells share no mutable state),
    // attached only when the cell's DriverConfig.withPlanner set a
    // mode. Attaching adds the core-vs-accelerate decision layer on
    // top of whatever deployment this cell chose; routing stays the
    // topology's job.
    std::unique_ptr<OffloadPlanner> planner;
    if (config.planner.mode != PlannerMode::Static) {
        planner = std::make_unique<OffloadPlanner>(config.planner);
        planner->bindTopology(config.topology);
        system.adopt(*planner);
        system.setPlanner(planner.get());
    }
    // Admission control: constructed only for a non-None policy, so
    // historical runs carry no "system.admission" stats node.
    // The open-loop issue engine consults it per arrival.
    std::unique_ptr<AdmissionController> admission;
    if (config.admission.active()) {
        admission =
            std::make_unique<AdmissionController>(config.admission);
        system.adopt(*admission);
        system.setAdmission(admission.get());
    }
    // Telemetry rides daemon events, so arming it changes no query
    // timing; declared after the system so it dies first (its probes
    // borrow registry pointers into the component tree).
    std::unique_ptr<metrics::MetricsSampler> sampler;
    if (metrics::kCompiledIn && metrics::runtimeConfig().enabled) {
        sampler = makeSampler(world, system);
    }
    QeiRunStats stats =
        drive(system, prepared.jobs, prepared.profile, config);
    if (sampler != nullptr) {
        stats.metrics = std::make_shared<metrics::RunSeries>(
            sampler->drain());
        metrics::Recorder::global().add(
            config.cellLabel.empty() ? config.topology.name()
                                     : config.cellLabel,
            *stats.metrics);
        system.setMetricsSampler(nullptr);
    }
    if (config.statsJsonOut != nullptr)
        *config.statsJsonOut = system.dumpStatsJson();
    return stats;
}

double
speedupOf(const CoreRunResult& baseline, const QeiRunStats& qei)
{
    return qei.cycles
               ? static_cast<double>(baseline.cycles) /
                     static_cast<double>(qei.cycles)
               : 0.0;
}

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> all;
    for (const auto& factory : makeWorkloadFactories())
        all.push_back(factory());
    return all;
}

std::vector<WorkloadFactory>
makeWorkloadFactories()
{
    return {
        []() -> std::unique_ptr<Workload> {
            return std::make_unique<DpdkFibWorkload>();
        },
        []() -> std::unique_ptr<Workload> {
            return std::make_unique<JvmGcWorkload>();
        },
        []() -> std::unique_ptr<Workload> {
            return std::make_unique<RocksDbMemtableWorkload>();
        },
        []() -> std::unique_ptr<Workload> {
            return std::make_unique<SnortAcWorkload>();
        },
        []() -> std::unique_ptr<Workload> {
            return std::make_unique<FlannLshWorkload>();
        },
    };
}

} // namespace qei
