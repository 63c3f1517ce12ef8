/**
 * The qei::metrics subsystem: sliding-window percentile estimator
 * (exact over the retained window; windowed-vs-full-stream tolerance
 * on seeded Poisson and bursty arrival streams), window wrap and
 * region-of-interest reset, the tail monitor's percentile series, the
 * metrics CSV, and — when compiled in — the end-to-end guarantee that
 * sampling rides daemon events only: closed-loop run results are
 * bit-identical with sampling on and off, and a World samples only
 * while its own switch is on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "metrics/metrics.hh"

using namespace qei;

namespace {

/** Offline nearest-rank percentile over all of @p values. */
double
exactPercentile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1));
    return values[rank];
}

/** Exponential inter-arrival-style samples (Poisson process gaps). */
std::vector<double>
poissonGaps(std::size_t n, double mean, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Clamp away u == 0 so log() stays finite.
        const double u = std::max(rng.uniform(), 1e-12);
        out.push_back(-std::log(u) * mean);
    }
    return out;
}

/**
 * Bursty stream: baseline service latency with seeded bursts of 10x
 * samples — the shape an overloaded QST produces.
 */
std::vector<double>
burstySamples(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double base = 100.0 + rng.uniform() * 20.0;
        out.push_back(rng.chance(0.05) ? base * 10.0 : base);
    }
    return out;
}

} // namespace

TEST(Metrics, WindowPercentileIsExactOverRetainedWindow)
{
    // After wrapping, the estimator must agree exactly with an
    // offline sort of the trailing `capacity` samples.
    const std::size_t capacity = 64;
    metrics::SlidingWindow window(capacity);
    const std::vector<double> stream = burstySamples(1000, 7);
    for (double v : stream)
        window.push(v);
    EXPECT_EQ(window.count(), capacity);
    EXPECT_EQ(window.pushed(), stream.size());

    const std::vector<double> tail(stream.end() - capacity,
                                   stream.end());
    for (double f : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_DOUBLE_EQ(window.percentile(f),
                         exactPercentile(tail, f))
            << "fraction " << f;
    }
}

TEST(Metrics, WindowedTailTracksFullStreamWithinTolerance)
{
    // A windowed p99/p999 over a *stationary* stream is an estimate
    // of the full-stream percentile. docs/observability.md documents
    // the tolerance: p50/p99 within 15% relative for a 512-sample
    // window; p999 is window-limited (a 512-sample window holds fewer
    // than one 1-in-1000 event on average) and only bounded to 35%.
    // Seeded, so this is deterministic.
    struct Case
    {
        const char* name;
        std::vector<double> stream;
    };
    const std::vector<Case> cases{
        {"poisson", poissonGaps(8192, 500.0, 42)},
        {"bursty", burstySamples(8192, 1234)},
    };
    for (const Case& c : cases) {
        metrics::SlidingWindow window(512);
        for (double v : c.stream)
            window.push(v);
        for (double f : {0.5, 0.99}) {
            const double exact = exactPercentile(c.stream, f);
            const double windowed = window.percentile(f);
            ASSERT_GT(exact, 0.0) << c.name;
            EXPECT_NEAR(windowed / exact, 1.0, 0.15)
                << c.name << " p" << f * 100.0;
        }
        EXPECT_NEAR(window.percentile(0.999) /
                        exactPercentile(c.stream, 0.999),
                    1.0, 0.35)
            << c.name << " p999";
    }
}

TEST(Metrics, WindowWrapAndResetEdgeCases)
{
    metrics::SlidingWindow window(4);
    EXPECT_EQ(window.count(), 0u);
    EXPECT_DOUBLE_EQ(window.percentile(0.99), 0.0); // empty: defined 0

    // Partial fill: percentiles over only the pushed samples.
    window.push(30.0);
    window.push(10.0);
    EXPECT_EQ(window.count(), 2u);
    EXPECT_DOUBLE_EQ(window.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(window.percentile(1.0), 30.0);

    // Wrap: only the newest `capacity` samples survive.
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        window.push(v);
    EXPECT_EQ(window.count(), 4u);
    EXPECT_EQ(window.pushed(), 8u);
    EXPECT_DOUBLE_EQ(window.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(window.percentile(1.0), 6.0);

    // Region-of-interest reset drops everything.
    window.reset();
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(window.pushed(), 0u);
    EXPECT_DOUBLE_EQ(window.percentile(0.99), 0.0);
    window.push(7.0);
    EXPECT_DOUBLE_EQ(window.percentile(0.5), 7.0);
}

TEST(Metrics, TailMonitorTicksThreePercentiles)
{
    metrics::TailMonitor monitor("sojourn", 16);
    metrics::TimeSeries p50, p99, p999;
    std::vector<metrics::TimeSeries*> series{&p50, &p99, &p999};

    // Empty window: tick records nothing.
    monitor.tick(100, series);
    EXPECT_TRUE(p99.points.empty());

    for (int i = 1; i <= 16; ++i)
        monitor.push(100.0 * i);
    monitor.tick(200, series);
    ASSERT_EQ(p99.points.size(), 1u);
    EXPECT_EQ(p99.points[0].tick, 200u);
    EXPECT_DOUBLE_EQ(p50.points[0].value, 800.0);
    EXPECT_DOUBLE_EQ(p99.points[0].value, 1500.0);
    EXPECT_DOUBLE_EQ(p999.points[0].value, 1500.0);

    // The three percentile series advance in lockstep; reset empties
    // the window.
    monitor.tick(300, series);
    EXPECT_EQ(p50.points.size(), 2u);
    EXPECT_EQ(p999.points.size(), 2u);
    monitor.reset();
    monitor.tick(400, series);
    EXPECT_EQ(p99.points.size(), 2u);
}

TEST(Metrics, RunSeriesJsonAndCsvShape)
{
    metrics::RunSeries run;
    run.intervalCycles = 1024;
    run.samples = 2;
    metrics::TimeSeries s;
    s.name = "system.metrics.qst_occupancy";
    s.kind = metrics::SeriesKind::Gauge;
    s.points.push_back({1024, 3.0});
    s.points.push_back({2048, 5.0});
    run.series.push_back(s);

    const Json doc = run.toJson();
    EXPECT_EQ(doc.at("interval_cycles").asUint(), 1024u);
    EXPECT_EQ(doc.at("samples").asUint(), 2u);
    const Json& series =
        doc.at("series").at("system.metrics.qst_occupancy");
    EXPECT_EQ(series.at("kind").asString(), "gauge");
    EXPECT_EQ(series.at("points").at(1).at(0).asUint(), 2048u);
    EXPECT_DOUBLE_EQ(series.at("points").at(1).at(1).asDouble(), 5.0);
    EXPECT_FALSE(doc.contains("slo"));

    // Runs sort by cell label; equal labels keep the order given.
    metrics::RunSeries later = run;
    later.series[0].points = {{4096, 7.0}};
    const auto shared = std::make_shared<const metrics::RunSeries>(run);
    const std::string csv = metrics::csv(
        {{"unit/b", shared},
         {"unit/a", shared},
         {"unit/b", std::make_shared<const metrics::RunSeries>(later)}});
    EXPECT_EQ(csv, "cell,series,kind,tick,value\n"
                   "unit/a,system.metrics.qst_occupancy,gauge,1024,3\n"
                   "unit/a,system.metrics.qst_occupancy,gauge,2048,5\n"
                   "unit/b,system.metrics.qst_occupancy,gauge,1024,3\n"
                   "unit/b,system.metrics.qst_occupancy,gauge,2048,5\n"
                   "unit/b,system.metrics.qst_occupancy,gauge,4096,7\n");
}

#if QEI_METRICS

namespace
{

/**
 * One small closed-loop accelerated run, with the World's sampling
 * switch on or off; @p logged gets what the run left in its log.
 */
QeiRunStats
sampledRun(bool enable, std::vector<metrics::LabelledRun>& logged)
{
    auto workload = makeWorkloadFactories()[0]();
    World world(11);
    if (enable)
        world.metricsLog.enable();
    workload->build(world);
    const Prepared prep = workload->prepare(world, 200);
    QeiRunStats stats =
        runQei(world, prep,
               DriverConfig(SchemeConfig::coreIntegrated())
                   .withLabel("unit/cell"));
    logged = world.metricsLog.drain();
    return stats;
}

} // namespace

TEST(Metrics, SamplingIsTimingNeutralAndCollectsSeries)
{
    std::vector<metrics::LabelledRun> offLog, onLog;
    const QeiRunStats off = sampledRun(false, offLog);
    const QeiRunStats on = sampledRun(true, onLog);

    // Daemon-scheduled sampling must not perturb the simulation:
    // same cycles, same result digest, same query count.
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.queries, on.queries);
    EXPECT_EQ(off.resultChecksum, on.resultChecksum);

    // Off: no series anywhere (artifacts keep their shape).
    EXPECT_EQ(off.metrics, nullptr);
    EXPECT_TRUE(offLog.empty());
    const Json offJson = bench::toJson(off);
    EXPECT_FALSE(offJson.contains("metrics"));

    // On: the standard series exist and carry samples.
    ASSERT_NE(on.metrics, nullptr);
    EXPECT_GT(on.metrics->samples, 0u);
    bool haveOccupancy = false;
    bool haveSojournP99 = false;
    bool haveQueries = false;
    for (const metrics::TimeSeries& s : on.metrics->series) {
        if (s.name == "system.metrics.qst_occupancy")
            haveOccupancy = !s.points.empty();
        if (s.name == "system.metrics.sojourn_p99_w")
            haveSojournP99 = !s.points.empty();
        if (s.name == "system.accel0.queries")
            haveQueries = !s.points.empty();
    }
    EXPECT_TRUE(haveOccupancy);
    EXPECT_TRUE(haveSojournP99);
    EXPECT_TRUE(haveQueries);
    const Json onJson = bench::toJson(on);
    ASSERT_TRUE(onJson.contains("metrics"));
    EXPECT_GT(onJson.at("metrics").at("samples").asUint(), 0u);

    // The run landed in its World's log under its label.
    ASSERT_EQ(onLog.size(), 1u);
    EXPECT_EQ(onLog[0].cell, "unit/cell");
    EXPECT_EQ(onLog[0].series, on.metrics);
    EXPECT_NE(metrics::csv(onLog).find("unit/cell,"), std::string::npos);
}

TEST(Metrics, DrainResetsForTheNextRunRegion)
{
    metrics::MetricsSampler sampler;
    sampler.addSeries("g", metrics::SeriesKind::Gauge, [] { return 1.0; });
    EventQueue events;
    int fired = 0;
    // A little event activity so the daemon has work to shadow.
    for (int i = 0; i < 8; ++i) {
        events.schedule(static_cast<Cycles>(i) * 4096, [&] {
            ++fired;
        });
    }
    sampler.arm(events);
    events.run();
    EXPECT_EQ(fired, 8);
    EXPECT_FALSE(sampler.armed()); // stood down with the queue
    const metrics::RunSeries first = sampler.drain();
    EXPECT_GT(first.samples, 0u);
    ASSERT_EQ(first.series.size(), 1u);
    EXPECT_FALSE(first.series[0].points.empty());

    // After drain, the next region starts from zero samples.
    const metrics::RunSeries empty = sampler.drain();
    EXPECT_EQ(empty.samples, 0u);
    ASSERT_EQ(empty.series.size(), 1u);
    EXPECT_TRUE(empty.series[0].points.empty());
}

#endif // QEI_METRICS
