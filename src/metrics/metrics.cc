#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qei::metrics {

const char*
toString(SeriesKind kind)
{
    switch (kind) {
      case SeriesKind::Gauge: return "gauge";
      case SeriesKind::Rate: return "rate";
    }
    return "unknown";
}

double
SlidingWindow::percentile(double fraction) const
{
    const std::size_t n = count();
    if (n == 0)
        return 0.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    scratch_.resize(n);
    if (pushed_ < ring_.size()) {
        std::copy(ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(n),
                  scratch_.begin());
    } else {
        std::copy(ring_.begin(), ring_.end(), scratch_.begin());
    }
    const auto idx = static_cast<std::size_t>(
        fraction * static_cast<double>(n - 1));
    auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(scratch_.begin(), nth, scratch_.end());
    return *nth;
}

void
TailMonitor::tick(Cycles tick, std::vector<TimeSeries*> series)
{
    if (window_.count() == 0)
        return;
    const double values[3] = {window_.percentile(0.50),
                              window_.percentile(0.99),
                              window_.percentile(0.999)};
    for (std::size_t i = 0; i < series.size() && i < 3; ++i)
        series[i]->points.push_back(Point{tick, values[i]});
}

Json
RunSeries::toJson() const
{
    Json out = Json::object();
    out["interval_cycles"] = intervalCycles;
    out["samples"] = samples;
    Json all = Json::object();
    for (const TimeSeries& s : series) {
        Json one = Json::object();
        one["kind"] = toString(s.kind);
        Json points = Json::array();
        for (const Point& p : s.points) {
            Json pair = Json::array();
            pair.push_back(Json(p.tick));
            pair.push_back(Json(p.value));
            points.push_back(std::move(pair));
        }
        one["points"] = std::move(points);
        all[s.name] = std::move(one);
    }
    out["series"] = std::move(all);
    return out;
}

void
RunSeries::appendCsv(std::string& out, const std::string& cell) const
{
    char line[256];
    for (const TimeSeries& s : series) {
        for (const Point& p : s.points) {
            std::snprintf(line, sizeof(line),
                          "%s,%s,%s,%llu,%.10g\n", cell.c_str(),
                          s.name.c_str(), toString(s.kind),
                          static_cast<unsigned long long>(p.tick),
                          p.value);
            out += line;
        }
    }
}

void
MetricsSampler::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "samples", samples_,
                        "sampler ticks taken");
}

void
MetricsSampler::observeRegistry(StatsRegistry registry)
{
    registry_ = std::move(registry);
    haveRegistry_ = true;
}

std::size_t
MetricsSampler::newSeries(std::string name, SeriesKind kind)
{
    const std::size_t idx = series_.size();
    series_.push_back(TimeSeries{std::move(name), kind, {}});
    if (trace_ != nullptr)
        traceNames_.push_back(trace_->internName(series_[idx].name));
    else
        traceNames_.push_back(0);
    return idx;
}

void
MetricsSampler::probe(const std::string& path, SeriesKind kind)
{
    if (haveRegistry_ && registry_.contains(path))
        addSeries(path, kind, [this, path] { return registry_.value(path); });
}

void
MetricsSampler::addSeries(std::string name, SeriesKind kind,
                          std::function<double()> read)
{
    Callback c;
    c.fn = std::move(read);
    c.kind = kind;
    c.seriesIdx = newSeries(std::move(name), kind);
    callbacks_.push_back(std::move(c));
}

TailMonitor&
MetricsSampler::addTailMonitor(const std::string& name)
{
    for (const auto& m : monitors_) {
        if (m->name() == name)
            return *m;
    }
    monitors_.push_back(
        std::make_unique<TailMonitor>(name, kTailWindow));
    monitorSeries_.push_back(series_.size());
    for (const char* q : {"p50", "p99", "p999"})
        newSeries(name + "_" + q + "_w", SeriesKind::Gauge);
    if (sojourn_ == nullptr)
        sojourn_ = monitors_.back().get();
    return *monitors_.back();
}

void
MetricsSampler::setTraceSink(trace::TraceSink* sink)
{
    trace_ = sink;
    if (sink == nullptr)
        return;
    traceComp_ = sink->internComponent("metrics");
    for (std::size_t i = 0; i < series_.size(); ++i)
        traceNames_[i] = sink->internName(series_[i].name);
}

void
MetricsSampler::recordPoint(std::size_t series_idx, Cycles tick,
                            double value)
{
    series_[series_idx].points.push_back(Point{tick, value});
    if (trace::active(trace_)) {
        trace_->recordCounter(traceComp_, traceNames_[series_idx],
                              tick, value);
    }
}

void
MetricsSampler::arm(EventQueue& events)
{
    if (armed_)
        return;
    armed_ = true;
    events.scheduleDaemon(kSampleIntervalCycles,
                          [this, &events] { tick(events); });
}

void
MetricsSampler::tick(EventQueue& events)
{
    const Cycles now = events.now();
    samples_.inc();

    for (Callback& c : callbacks_) {
        const double raw = c.fn();
        if (c.kind == SeriesKind::Gauge) {
            recordPoint(c.seriesIdx, now, raw);
        } else {
            if (c.primed)
                recordPoint(c.seriesIdx, now, raw - c.lastRaw);
            c.lastRaw = raw;
            c.primed = true;
        }
    }

    for (std::size_t m = 0; m < monitors_.size(); ++m) {
        const std::size_t base = monitorSeries_[m];
        const std::size_t sizeBefore[3] = {
            series_[base].points.size(),
            series_[base + 1].points.size(),
            series_[base + 2].points.size()};
        monitors_[m]->tick(now,
                           {&series_[base], &series_[base + 1],
                            &series_[base + 2]});
        if (trace::active(trace_)) {
            for (std::size_t q = 0; q < 3; ++q) {
                auto& pts = series_[base + q].points;
                if (pts.size() > sizeBefore[q]) {
                    trace_->recordCounter(traceComp_,
                                          traceNames_[base + q], now,
                                          pts.back().value);
                }
            }
        }
    }

    // Daemon contract: re-arm only while real work remains. The
    // trailing tick (pendingWork() == 0) still samples above, so
    // every armed region records its end state at least once.
    if (events.pendingWork() == 0) {
        armed_ = false;
        return;
    }
    events.scheduleDaemon(kSampleIntervalCycles,
                          [this, &events] { tick(events); });
}

RunSeries
MetricsSampler::drain()
{
    RunSeries out;
    out.intervalCycles = kSampleIntervalCycles;
    out.samples = samples_.value() - drainedSamples_;
    drainedSamples_ = samples_.value();
    out.series = std::move(series_);

    // Rebuild empty series shells so probes/callbacks/monitors keep
    // their indices for the next run region.
    series_.clear();
    for (const TimeSeries& s : out.series)
        series_.push_back(TimeSeries{s.name, s.kind, {}});
    for (Callback& c : callbacks_)
        c.primed = false;
    for (auto& m : monitors_)
        m->reset();
    return out;
}

std::string
csv(const std::vector<LabelledRun>& runs)
{
    std::vector<const LabelledRun*> sorted;
    sorted.reserve(runs.size());
    for (const LabelledRun& run : runs)
        sorted.push_back(&run);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const LabelledRun* a, const LabelledRun* b) {
                         return a->cell < b->cell;
                     });
    std::string out = "cell,series,kind,tick,value\n";
    for (const LabelledRun* run : sorted)
        run->series->appendCsv(out, run->cell);
    return out;
}

} // namespace qei::metrics
