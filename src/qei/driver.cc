#include "driver.hh"

#include "common/logging.hh"
#include "qei/issue_engine.hh"

namespace qei {

void
TenantStats::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "offered", offered_,
                        "arrivals belonging to this tenant");
    registry.addCounter(base + "admitted", admitted_,
                        "arrivals admitted for this tenant");
    registry.addCounter(base + "shed", shed_,
                        "arrivals shed for this tenant");
    registry.addCounter(base + "degraded", degraded_,
                        "shed queries degraded to the core path");
    registry.addHistogram(base + "sojourn", sojourn_,
                          "per-tenant sojourn (cycles)");
    registry.addScalar(base + "occupancy", occupancy_,
                       "QST slots held by this tenant, sampled at "
                       "issue");
}

void
DriverMetrics::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addHistogram(base + "sojourn", sojourn_,
                          "arrival-to-retire latency per query "
                          "(cycles)");
    registry.addHistogram(base + "queue_wait", queueWait_,
                          "software queueing delay before issue "
                          "(cycles)");
    registry.addHistogram(base + "service", service_,
                          "issue-to-retire latency per query "
                          "(cycles)");
    // Registered only once a serving run degraded work through it, so
    // stats dumps of every historical path keep their exact shape.
    if (degradedSojourn_.scalar().count() > 0) {
        registry.addHistogram(base + "degraded_sojourn",
                              degradedSojourn_,
                              "sojourn of shed-and-degraded queries "
                              "(cycles)");
    }
}

void
DriverMetrics::ensureTenants(int count)
{
    while (tenantCount() < count) {
        const int id = tenantCount();
        tenants_.push_back(std::make_unique<TenantStats>());
        // Dotted leaf names put the children at
        // system.driver.tenant.<id>.* in the stats tree.
        adopt(*tenants_.back(), "tenant." + std::to_string(id));
    }
}

LatencyDigest
DriverMetrics::digest(const Histogram& h)
{
    LatencyDigest d;
    d.count = h.scalar().count();
    d.mean = h.scalar().mean();
    d.max = h.scalar().max();
    d.p50 = h.percentile(0.50);
    d.p99 = h.percentile(0.99);
    d.p999 = h.percentile(0.999);
    return d;
}

QeiRunStats
drive(QeiSystem& system, const std::vector<QueryJob>& jobs,
      const RoiProfile& profile, const DriverConfig& config)
{
    const bool closed =
        config.traffic == nullptr || config.traffic->closedLoop();
    simAssert(!config.admission.active() ||
                  (!closed && !config.batch.enabled()),
              "admission control sits between an open-loop traffic "
              "source and the system; closed-loop and QUERY_BATCH "
              "runs have no arrival queue to shed from");
    simAssert(closed || !config.batch.enabled(),
              "QUERY_BATCH requires a closed-loop source: the "
              "reorderer batches a pending backlog, which an "
              "open-loop arrival timeline does not provide");
    simAssert(config.pollBatch >= 1,
              "poll batch {} < 1: a QUERY_NB run would issue nothing",
              config.pollBatch);
    // The engine bounds the core count by the chip; it queues batch
    // descriptors on core 0 only, and neither the QUERY_NB drain nor
    // the open loop has ever been multi-core.
    simAssert(config.cores == 1 ||
                  (closed && !config.batch.enabled() &&
                   config.mode == QueryMode::Blocking),
              "{} issuing cores need a closed-loop QUERY_B run",
              config.cores);
    // An open-loop source always issues QUERY_B.
    using Submit = IssueEngine::Submit;
    Submit submit = Submit::Blocking;
    if (config.batch.enabled())
        submit = Submit::Batch;
    else if (closed && config.mode == QueryMode::NonBlocking)
        submit = Submit::NonBlocking;
    std::vector<traffic::Arrival> arrivals;
    if (!closed)
        arrivals = config.traffic->schedule(jobs.size());
    QeiRunStats stats =
        IssueEngine(system, jobs, profile, config.cores, submit,
                    config.pollBatch, config.batch)
            .run(closed ? nullptr : &arrivals);
    DriverMetrics& m = system.driverMetrics();
    stats.sojourn = DriverMetrics::digest(m.sojourn());
    stats.queueWait = DriverMetrics::digest(m.queueWait());
    stats.service = DriverMetrics::digest(m.service());
    return stats;
}

} // namespace qei
