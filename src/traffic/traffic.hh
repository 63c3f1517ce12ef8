/**
 * @file
 * Traffic layer: *when* queries arrive, decoupled from *what* they are.
 *
 * A Workload (src/workloads) builds data structures and prepares
 * matched query streams; a TrafficSource turns "N queries" into a
 * timeline of arrivals. The Driver (src/qei/driver.hh) consumes that
 * timeline: a closed-loop source means the whole stream is queued at
 * t=0 and issued back to back (the historical runQei behaviour),
 * while an open-loop source's arrivals are handed to the system's
 * issue engine (src/qei/issue_engine.hh), which queues them
 * against the core's window and QST capacity and measures sojourn.
 *
 * Determinism contract: schedule() must be a pure function of the
 * constructor arguments (rate, seed, ...) and @p count — no global
 * state, no wall clock — so the same seed reproduces the same arrival
 * ticks regardless of --threads or which experiment cell runs first.
 */

#ifndef QEI_TRAFFIC_TRAFFIC_HH
#define QEI_TRAFFIC_TRAFFIC_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace qei {
namespace traffic {

/** One query entering the system. */
struct Arrival
{
    /** Absolute arrival tick, relative to the start of the run. */
    Cycles tick = 0;
    /** Index into the Prepared job/trace streams. */
    std::size_t queryIndex = 0;
    /** Logical tenant the query belongs to (0-based). */
    int tenant = 0;
};

/** Interface every arrival process implements. */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Short identifier ("closed", "poisson", "bursty"). */
    virtual std::string name() const = 0;

    /** Human-readable description for reports and --list output. */
    virtual std::string description() const = 0;

    /**
     * Produce the arrival timeline for @p count queries, sorted by
     * tick (ties keep queryIndex order). Must be deterministic: same
     * constructor arguments + same @p count => identical vector.
     */
    virtual std::vector<Arrival> schedule(std::size_t count) = 0;

    /**
     * True when the source has no arrival clock of its own — the next
     * query "arrives" the moment the previous one retires. The Driver
     * runs closed-loop sources as a backlog queued at t=0, so their
     * results stay bit-identical to the pre-traffic-layer code.
     */
    virtual bool closedLoop() const { return false; }
};

/**
 * The historical behaviour: queries are issued back to back with no
 * think time. schedule() reports every arrival at tick 0 (the driver
 * never consults the ticks for a closed-loop source).
 */
class ClosedLoop : public TrafficSource
{
  public:
    explicit ClosedLoop(int tenants = 1);

    std::string name() const override { return "closed"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;
    bool closedLoop() const override { return true; }

  private:
    int tenants_;
};

/**
 * Open-loop Poisson arrivals: independent exponential inter-arrival
 * gaps with the given mean, the canonical cloud serving model. Tenants
 * are assigned round-robin in arrival order.
 */
class PoissonOpenLoop : public TrafficSource
{
  public:
    /**
     * @param mean_gap_cycles mean inter-arrival gap; the offered load
     *        is 1/mean_gap_cycles queries per cycle.
     * @param seed seeds the private Rng; same seed => same timeline.
     */
    PoissonOpenLoop(double mean_gap_cycles, std::uint64_t seed = 1,
                    int tenants = 1);

    std::string name() const override { return "poisson"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;

    double meanGapCycles() const { return meanGap_; }

  private:
    double meanGap_;
    std::uint64_t seed_;
    int tenants_;
};

/**
 * Bursty arrivals: geometrically-sized bursts of back-to-back queries
 * separated by exponential idle gaps, sized so the long-run offered
 * load matches @p mean_gap_cycles. Stresses queueing far harder than
 * Poisson at the same average rate.
 */
class Bursty : public TrafficSource
{
  public:
    /**
     * @param mean_gap_cycles long-run mean inter-arrival gap.
     * @param mean_burst mean queries per burst (>= 1; geometric).
     * @param intra_gap_cycles fixed gap between queries inside a burst.
     */
    Bursty(double mean_gap_cycles, double mean_burst = 8.0,
           double intra_gap_cycles = 1.0, std::uint64_t seed = 1,
           int tenants = 1);

    std::string name() const override { return "bursty"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;

  private:
    double meanGap_;
    double meanBurst_;
    double intraGap_;
    std::uint64_t seed_;
    int tenants_;
};

/**
 * Diurnal arrivals: Poisson draws whose instantaneous rate follows a
 * sinusoidal envelope, the classic day/night cloud traffic shape. At
 * simulation scale one "day" is @p period_cycles; the offered rate
 * swings between (1 - amplitude) and (1 + amplitude) times the base
 * rate 1/mean_gap_cycles.
 */
class Diurnal : public TrafficSource
{
  public:
    /**
     * @param mean_gap_cycles mean inter-arrival gap at the envelope
     *        midpoint (base offered load = 1/mean_gap_cycles).
     * @param amplitude peak-to-midpoint rate swing in [0, 1).
     * @param period_cycles length of one full envelope cycle.
     */
    Diurnal(double mean_gap_cycles, double amplitude = 0.5,
            double period_cycles = 50000.0, std::uint64_t seed = 1,
            int tenants = 1);

    std::string name() const override { return "diurnal"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;

  private:
    double meanGap_;
    double amplitude_;
    double period_;
    std::uint64_t seed_;
    int tenants_;
};

/**
 * Trace replay: arrivals at explicit, recorded ticks. When asked for
 * more queries than the trace holds, the trace repeats shifted by its
 * own span (plus one mean gap), so long runs keep the recorded shape.
 */
class TraceReplay : public TrafficSource
{
  public:
    /**
     * @param ticks recorded arrival ticks (sorted ascending; must be
     *        non-empty).
     */
    explicit TraceReplay(std::vector<Cycles> ticks, int tenants = 1);

    std::string name() const override { return "replay"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;

  private:
    std::vector<Cycles> ticks_;
    int tenants_;
};

/**
 * Multi-tenant merge: one sub-source per tenant, each producing its
 * weighted share of the total count; arrivals are merged by tick and
 * tagged with the owning tenant. This is how an adversarial deployment
 * is expressed — e.g. tenant 0 a Bursty source at several times the
 * rate of the Poisson background tenants.
 */
class TenantMix : public TrafficSource
{
  public:
    struct Stream
    {
        std::shared_ptr<TrafficSource> source;
        /** Fraction of the total query count (normalized over the
         *  streams; largest-remainder apportioning, deterministic). */
        double weight = 1.0;
    };

    explicit TenantMix(std::vector<Stream> streams);

    std::string name() const override { return "mix"; }
    std::string description() const override;
    std::vector<Arrival> schedule(std::size_t count) override;

    int tenants() const { return static_cast<int>(streams_.size()); }

  private:
    std::vector<Stream> streams_;
};

/**
 * One default-parameterized instance of every traffic source, for
 * enumeration (`--list-traffic`): name() + description() of each
 * available arrival process.
 */
std::vector<std::unique_ptr<TrafficSource>> catalog();

} // namespace traffic
} // namespace qei

#endif // QEI_TRAFFIC_TRAFFIC_HH
