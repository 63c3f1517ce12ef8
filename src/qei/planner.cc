#include "planner.hh"

#include <limits>

#include "common/format.hh"
#include "common/logging.hh"
#include "mem/hierarchy.hh"
#include "vm/virtual_memory.hh"

namespace qei {

// -- CostModel -------------------------------------------------------

const CostModel&
CostModel::builtin()
{
    // The committed calibration, fitted by tools/qei-calibrate from
    // BENCH_out/BENCH_fig07_speedup.json: mean cycles/query of the
    // software walk (fig07 baseline) and of each accelerator family.
    // `qei-calibrate` prints this initializer; `qei-calibrate --check`
    // fails when it drifts from the artifact.
    static const CostModel model = [] {
        CostModel m;
        m.set("dpdk",
              {128.1776,
               {{"CHA-TLB", 12.1380},
                {"CHA-noTLB", 17.4944},
                {"Core-integrated", 23.3156},
                {"Device-direct", 25.5272},
                {"Device-indirect", 126.8508}}});
        m.set("flann",
              {533.3463,
               {{"CHA-TLB", 79.2435},
                {"CHA-noTLB", 83.6690},
                {"Core-integrated", 76.4556},
                {"Device-direct", 98.2574},
                {"Device-indirect", 338.8037}}});
        m.set("jvm",
              {859.5507,
               {{"CHA-TLB", 104.6333},
                {"CHA-noTLB", 125.9940},
                {"Core-integrated", 119.3233},
                {"Device-direct", 148.9613},
                {"Device-indirect", 809.3527}}});
        m.set("rocksdb",
              {1306.5389,
               {{"CHA-TLB", 515.8100},
                {"CHA-noTLB", 558.0333},
                {"Core-integrated", 557.0511},
                {"Device-direct", 607.4556},
                {"Device-indirect", 3278.6244}}});
        m.set("snort",
              {71827.8750,
               {{"CHA-TLB", 19422.0417},
                {"CHA-noTLB", 26343.3750},
                {"Core-integrated", 25486.3333},
                {"Device-direct", 29372.6667},
                {"Device-indirect", 172287.5833}}});
        return m;
    }();
    return model;
}

bool
CostModel::knows(const std::string& workload) const
{
    return workloads_.count(workload) != 0;
}

double
CostModel::coreCost(const std::string& workload) const
{
    const auto it = workloads_.find(workload);
    return it == workloads_.end() ? 0.0 : it->second.core;
}

double
CostModel::schemeCost(const std::string& workload,
                      const std::string& scheme) const
{
    const auto it = workloads_.find(workload);
    if (it == workloads_.end())
        return 0.0;
    const auto s = it->second.schemes.find(scheme);
    return s == it->second.schemes.end() ? 0.0 : s->second;
}

std::string
CostModel::bestScheme(const std::string& workload) const
{
    const auto it = workloads_.find(workload);
    if (it == workloads_.end())
        return {};
    std::string best;
    double bestCost = std::numeric_limits<double>::max();
    for (const auto& [scheme, cycles] : it->second.schemes) {
        if (cycles < bestCost) {
            best = scheme;
            bestCost = cycles;
        }
    }
    return best;
}

double
CostModel::bestSchemeCost(const std::string& workload) const
{
    return schemeCost(workload, bestScheme(workload));
}

void
CostModel::set(const std::string& workload, WorkloadCosts costs)
{
    workloads_[workload] = std::move(costs);
}

// -- PlannerConfig ---------------------------------------------------

PlannerConfig
PlannerConfig::cost(std::string workload)
{
    PlannerConfig c;
    c.mode = PlannerMode::Cost;
    c.workload = std::move(workload);
    return c;
}

PlannerConfig
PlannerConfig::shard(std::string workload, int shards, bool steal)
{
    PlannerConfig c;
    c.mode = PlannerMode::Shard;
    c.workload = std::move(workload);
    c.shards = shards;
    c.workStealing = steal;
    return c;
}

PlannerConfig
PlannerConfig::mixed(std::vector<ClassRange> classes)
{
    PlannerConfig c;
    c.mode = PlannerMode::Cost;
    c.classes = std::move(classes);
    return c;
}

// -- plannerTopology -------------------------------------------------

namespace {

/** The family the cost model picks for @p workload; CHA-TLB (the
 *  paper's headline scheme) for workloads it doesn't know. */
SchemeConfig
bestFamilyFor(const CostModel& model, const std::string& workload)
{
    const std::string best = model.bestScheme(workload);
    for (const SchemeConfig& s : SchemeConfig::allSchemes()) {
        if (s.name() == best)
            return s;
    }
    return SchemeConfig::chaTlb();
}

/** Instances a family contributes to a heterogeneous union: CHA
 *  families keep their full 24-slice spread (routed by NUCA hash
 *  within the group); device and core-integrated deployments are a
 *  single instance (unions serve one issuing core). */
int
unionGroupSize(const SchemeConfig& family)
{
    return (family.accelerators == 1 || family.perCore)
               ? 1
               : family.accelerators;
}

} // namespace

Topology
plannerTopology(const PlannerConfig& config)
{
    const CostModel& model = config.costModel();
    if (config.mode == PlannerMode::Shard) {
        return Topology::sharded(bestFamilyFor(model, config.workload),
                                 config.shards, config.workStealing);
    }
    if (config.classes.empty()) {
        // Single class: the cheapest family's canonical deployment.
        // No custom route and no parameter overrides, so the run is
        // cycle-identical to that static scheme.
        return Topology(bestFamilyFor(model, config.workload))
            .named("planner-cost");
    }

    // Mixed classes: one instance group per class, each running its
    // class's cheapest family, glued by a ClassRange route.
    struct Group
    {
        ClassRange range;
        std::shared_ptr<const SchemeConfig> family;
        int start = 0; // first accelerator index of the group
        int size = 0;
    };
    std::vector<Group> groups;
    std::vector<AcceleratorPlacement> places;
    for (const ClassRange& cls : config.classes) {
        auto family = std::make_shared<const SchemeConfig>(
            bestFamilyFor(model, cls.workload));
        Group g;
        g.range = cls;
        g.family = family;
        g.start = static_cast<int>(places.size());
        g.size = unionGroupSize(*family);
        for (int i = 0; i < g.size; ++i) {
            AcceleratorPlacement p;
            p.name = fmt("{}_{}", cls.workload, i);
            p.tile = family->accelerators == 1 ? family->deviceTile
                                               : i % 24;
            p.homeCore = family->perCore ? p.tile : 0;
            p.params = family;
            places.push_back(std::move(p));
        }
        groups.push_back(std::move(g));
    }
    simAssert(!places.empty(), "mixed planner config has no classes");

    // Topology-wide params: the first class's family (per-placement
    // overrides make the instance parameters authoritative anyway).
    Topology topo(*groups.front().family);
    topo.withPlacements(std::move(places));
    topo.withRoute([groups](Addr key_addr, int,
                            const Topology::RouteContext& ctx) {
        for (const Group& g : groups) {
            if (key_addr < g.range.lo || key_addr >= g.range.hi)
                continue;
            if (g.size == 1)
                return g.start;
            // CHA group: spread by the NUCA hash of the key's line,
            // exactly like the canonical CHA topologies.
            const Addr paddr = ctx.vm.translate(key_addr);
            return g.start +
                   ctx.memory.homeSlice(paddr) % g.size;
        }
        // Unclassified keys go to the first group's first instance.
        return groups.front().start;
    });
    return topo.named("planner-mix");
}

// -- OffloadPlanner --------------------------------------------------

OffloadPlanner::OffloadPlanner(PlannerConfig config)
    : SimObject("planner"), config_(std::move(config))
{
}

void
OffloadPlanner::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "decisions", decisions_,
                        "issue-path planner consultations");
    registry.addCounter(base + "core_executes", coreExecutes_,
                        "queries the planner kept on the core");
}

void
OffloadPlanner::bindTopology(const Topology& topo)
{
    // Heterogeneous unions price each class's own family (empty name
    // means "use the class's cheapest"), homogeneous deployments the
    // family actually built.
    deployedScheme_ =
        topo.heterogeneous() ? std::string{} : topo.params().name();
}

const std::string&
OffloadPlanner::classify(Addr key_addr) const
{
    for (const ClassRange& cls : config_.classes) {
        if (key_addr >= cls.lo && key_addr < cls.hi)
            return cls.workload;
    }
    return config_.workload;
}

bool
OffloadPlanner::coreExecute(Addr key_addr)
{
    decisions_.inc();
    if (config_.mode != PlannerMode::Cost)
        return false;
    const std::string& cls = classify(key_addr);
    const CostModel& model = config_.costModel();
    if (!model.knows(cls))
        return false;
    double accel = deployedScheme_.empty()
                       ? model.bestSchemeCost(cls)
                       : model.schemeCost(cls, deployedScheme_);
    if (accel <= 0.0)
        accel = model.bestSchemeCost(cls);
    const bool core = accel > 0.0 && model.coreCost(cls) < accel;
    if (core)
        coreExecutes_.inc();
    return core;
}

} // namespace qei
