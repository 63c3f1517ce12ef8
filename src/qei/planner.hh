/**
 * @file
 * Offload planner: decides, per submitted query, whether the issuing
 * core should execute the walk itself or hand it to an accelerator —
 * and, through the deployment it proposes, which accelerator family
 * serves which key-space class.
 *
 * The paper evaluates one fixed integration scheme per experiment; a
 * cloud deployment has to *choose*. The planner makes that choice
 * from a calibrated CostModel: mean cycles-per-query of
 * the software walk and of each accelerator family, fitted offline
 * from the fig07 speedup artifact by tools/qei-calibrate and committed
 * as CostModel::builtin(). See docs/planner.md for the full story.
 *
 * Three pieces, deliberately separated:
 *  - CostModel / PlannerConfig: plain values, copyable across the
 *    bench matrix's parallel cells (no shared mutable state).
 *  - plannerTopology(): maps a PlannerConfig to a concrete Topology —
 *    the best static family for a single-class run, a heterogeneous
 *    union for a mixed run, a sharded deployment in shard mode.
 *  - OffloadPlanner: the per-run SimObject consulted on the issue
 *    path (QeiSystem::setPlanner). It owns the decision counters and
 *    the core-vs-accelerate verdict; routing stays in the Topology.
 */

#ifndef QEI_QEI_PLANNER_HH
#define QEI_QEI_PLANNER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "qei/topology.hh"

namespace qei {

/** How query placement is decided for a run. */
enum class PlannerMode : std::uint8_t {
    /** No planner: the topology's route alone places queries. */
    Static,
    /** Cost-model planner: best family per class, core-execute when
     *  the software walk prices below every accelerator. */
    Cost,
    /** Key-space sharding with work stealing (Topology::sharded). */
    Shard,
};

/**
 * Calibrated mean cycles-per-query of one workload on each executor:
 * the software walk on the core ("core") and each accelerator family,
 * keyed by SchemeConfig::name(). Fitted offline (tools/qei-calibrate)
 * from the fig07 artifact; builtin() carries the committed fit so the
 * planner works without touching the filesystem.
 */
class CostModel
{
  public:
    struct WorkloadCosts
    {
        /** Software-walk cycles/query (the fig07 baseline). */
        double core = 0.0;
        /** Accelerated cycles/query per scheme family name. */
        std::map<std::string, double> schemes;
    };

    /** The committed calibration: qei-calibrate prints its table. */
    static const CostModel& builtin();

    bool knows(const std::string& workload) const;
    /** Software-walk cost; 0 for unknown workloads. */
    double coreCost(const std::string& workload) const;
    /** Accelerated cost on @p scheme; 0 when unknown. */
    double schemeCost(const std::string& workload,
                      const std::string& scheme) const;
    /** The cheapest family's name; empty for unknown workloads. */
    std::string bestScheme(const std::string& workload) const;
    double bestSchemeCost(const std::string& workload) const;

    void set(const std::string& workload, WorkloadCosts costs);
    const std::map<std::string, WorkloadCosts>& workloads() const
    {
        return workloads_;
    }

  private:
    std::map<std::string, WorkloadCosts> workloads_;
};

/**
 * A contiguous key-address range owned by one workload class — how a
 * mixed run tells the planner which queries belong to which workload
 * (each Prepared workload's key arrays occupy a disjoint VA range).
 */
struct ClassRange
{
    Addr lo = 0;
    Addr hi = 0; // exclusive
    std::string workload;
};

/**
 * Planner parameters carried by DriverConfig. Plain value: cheap to
 * copy into every matrix cell; the mutable run state lives in the
 * per-run OffloadPlanner.
 */
struct PlannerConfig
{
    PlannerMode mode = PlannerMode::Static;
    /** Workload class of a single-class run (cost-model key). */
    std::string workload;
    /** Key-space classes of a mixed run; empty for single-class. */
    std::vector<ClassRange> classes;
    /** Shard mode: instance count (and stealing) for
     *  Topology::sharded. */
    int shards = 8;
    bool workStealing = true;
    /**
     * Cost model override; null means CostModel::builtin(). Shared
     * and immutable so configs copy cheaply.
     */
    std::shared_ptr<const CostModel> model;

    const CostModel& costModel() const
    {
        return model ? *model : CostModel::builtin();
    }

    static PlannerConfig cost(std::string workload);
    static PlannerConfig shard(std::string workload, int shards,
                               bool steal = true);
    static PlannerConfig mixed(std::vector<ClassRange> classes);
};

/**
 * The deployment the planner proposes for @p config:
 *  - Cost, single class: the canonical topology of the workload's
 *    cheapest family (renamed "planner-cost"), so a calibrated planner
 *    is cycle-identical to the best static scheme — the abl_planner
 *    floor.
 *  - Cost, mixed classes: a heterogeneous union — one instance group
 *    per class, each running its class's cheapest family (per-
 *    placement parameter overrides), routed by ClassRange. CHA
 *    families contribute a 24-instance group routed by the NUCA hash
 *    within the group; device and core-integrated families contribute
 *    one instance (unions serve a single issuing core).
 *  - Shard: Topology::sharded of the workload's cheapest family.
 * Unknown workloads fall back to CHA-TLB (the paper's headline
 * scheme and the calibrated best on 4 of 5 workloads).
 */
Topology plannerTopology(const PlannerConfig& config);

/**
 * Per-run planner SimObject, consulted by QeiSystem's closed-loop
 * issue paths (QUERY_B, QUERY_NB, QUERY_BATCH). Construct one per run
 * inside runQei — never share across matrix cells.
 */
class OffloadPlanner : public SimObject
{
  public:
    explicit OffloadPlanner(PlannerConfig config);

    void regStats(StatsRegistry& registry) override;

    const PlannerConfig& config() const { return config_; }

    /**
     * Record the deployment actually built for this run, so the
     * core-vs-accelerate comparison prices the accelerator the query
     * would really use. Heterogeneous unions price each class's own
     * (cheapest) family.
     */
    void bindTopology(const Topology& topo);

    /**
     * The workload class of @p key_addr: the covering ClassRange's
     * workload, else the single-class workload name.
     */
    const std::string& classify(Addr key_addr) const;

    /**
     * True when the calibrated model prices the software walk below
     * the deployed accelerator for this query's class — the core
     * keeps the query and runs the walk itself (no trap overhead:
     * this is a planned decision, not a fault). Counts the decision
     * either way. Always false outside Cost mode or for classes the
     * model doesn't know.
     */
    bool coreExecute(Addr key_addr);

    std::uint64_t decisions() const { return decisions_.value(); }
    std::uint64_t coreExecutes() const
    {
        return coreExecutes_.value();
    }

  private:
    PlannerConfig config_;
    /** Deployed family name; empty = price each class's best. */
    std::string deployedScheme_;
    /** Issue-path consultations. */
    Counter decisions_;
    /** Verdicts that kept the query on the core. */
    Counter coreExecutes_;
};

} // namespace qei

#endif // QEI_QEI_PLANNER_HH
