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
TailMonitor::tick(Cycles tick, std::vector<TimeSeries*> series,
                  std::vector<SloEvent>& slo_events)
{
    if (window_.count() == 0)
        return;
    const double p50 = window_.percentile(0.50);
    const double p99 = window_.percentile(0.99);
    const double p999 = window_.percentile(0.999);
    const double values[3] = {p50, p99, p999};
    for (std::size_t i = 0; i < series.size() && i < 3; ++i)
        series[i]->points.push_back(Point{tick, values[i]});

    if (sloP99_ > 0.0) {
        const bool above = p99 > sloP99_;
        if (above != breaching_) {
            breaching_ = above;
            slo_events.push_back(
                SloEvent{tick, name_, p99, sloP99_, above});
        }
    }
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
    Json slo = Json::object();
    slo["threshold_p99"] = sloThresholdP99;
    Json events = Json::array();
    for (const SloEvent& e : sloEvents) {
        Json one = Json::object();
        one["tick"] = e.tick;
        one["monitor"] = e.monitor;
        one["value"] = e.value;
        one["threshold"] = e.threshold;
        one["direction"] = e.rising ? "breach" : "recover";
        events.push_back(std::move(one));
    }
    slo["events"] = std::move(events);
    out["slo"] = std::move(slo);
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
    for (const SloEvent& e : sloEvents) {
        std::snprintf(line, sizeof(line), "%s,slo:%s,%s,%llu,%.10g\n",
                      cell.c_str(), e.monitor.c_str(),
                      e.rising ? "breach" : "recover",
                      static_cast<unsigned long long>(e.tick),
                      e.value);
        out += line;
    }
}

MetricsSampler::MetricsSampler(SamplerConfig config)
    : SimObject("metrics"), config_(config)
{
    if (config_.intervalCycles == 0)
        config_.intervalCycles = SamplerConfig{}.intervalCycles;
    if (config_.window == 0)
        config_.window = SamplerConfig{}.window;
}

void
MetricsSampler::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "samples", samples_,
                        "sampler ticks taken");
    registry.addCounter(base + "slo_crossings", sloCrossings_,
                        "SLO threshold crossings observed");
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
    if (!haveRegistry_ || !registry_.contains(path))
        return;
    Probe p;
    p.path = path;
    p.kind = kind;
    p.seriesIdx = newSeries(path, kind);
    probes_.push_back(std::move(p));
}

void
MetricsSampler::addGauge(std::string name, std::function<double()> fn)
{
    Callback c;
    c.fn = std::move(fn);
    c.kind = SeriesKind::Gauge;
    c.seriesIdx = newSeries(std::move(name), SeriesKind::Gauge);
    callbacks_.push_back(std::move(c));
}

void
MetricsSampler::addRate(std::string name, std::function<double()> fn)
{
    Callback c;
    c.fn = std::move(fn);
    c.kind = SeriesKind::Rate;
    c.seriesIdx = newSeries(std::move(name), SeriesKind::Rate);
    callbacks_.push_back(std::move(c));
}

TailMonitor&
MetricsSampler::addTailMonitor(const std::string& name, double slo_p99)
{
    for (const auto& m : monitors_) {
        if (m->name() == name)
            return *m;
    }
    monitors_.push_back(
        std::make_unique<TailMonitor>(name, config_.window, slo_p99));
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
    events.scheduleDaemon(config_.intervalCycles,
                          [this, &events] { tick(events); });
}

void
MetricsSampler::tick(EventQueue& events)
{
    const Cycles now = events.now();
    samples_.inc();

    for (Probe& p : probes_) {
        const double raw = registry_.value(p.path);
        if (p.kind == SeriesKind::Gauge) {
            recordPoint(p.seriesIdx, now, raw);
        } else {
            if (p.primed)
                recordPoint(p.seriesIdx, now, raw - p.lastRaw);
            p.lastRaw = raw;
            p.primed = true;
        }
    }
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

    const std::size_t sloBefore = sloEvents_.size();
    for (std::size_t m = 0; m < monitors_.size(); ++m) {
        const std::size_t base = monitorSeries_[m];
        const std::size_t sizeBefore[3] = {
            series_[base].points.size(),
            series_[base + 1].points.size(),
            series_[base + 2].points.size()};
        monitors_[m]->tick(now,
                           {&series_[base], &series_[base + 1],
                            &series_[base + 2]},
                           sloEvents_);
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
    sloCrossings_.inc(sloEvents_.size() - sloBefore);

    // Daemon contract: re-arm only while real work remains. The
    // trailing tick (pendingWork() == 0) still samples above, so
    // every armed region records its end state at least once.
    if (events.pendingWork() == 0) {
        armed_ = false;
        return;
    }
    events.scheduleDaemon(config_.intervalCycles,
                          [this, &events] { tick(events); });
}

RunSeries
MetricsSampler::drain()
{
    RunSeries out;
    out.intervalCycles = config_.intervalCycles;
    out.samples = samples_.value() - drainedSamples_;
    drainedSamples_ = samples_.value();
    out.series = std::move(series_);
    out.sloEvents = std::move(sloEvents_);
    out.sloThresholdP99 = config_.sloSojournP99;

    // Rebuild empty series shells so probes/callbacks/monitors keep
    // their indices for the next run region.
    series_.clear();
    for (const TimeSeries& s : out.series)
        series_.push_back(TimeSeries{s.name, s.kind, {}});
    sloEvents_.clear();
    for (Probe& p : probes_)
        p.primed = false;
    for (Callback& c : callbacks_)
        c.primed = false;
    for (auto& m : monitors_)
        m->reset();
    return out;
}

RuntimeConfig&
runtimeConfig()
{
    static RuntimeConfig config;
    return config;
}

Recorder&
Recorder::global()
{
    static Recorder recorder;
    return recorder;
}

void
Recorder::add(std::string cell, RunSeries series)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_.emplace_back(std::move(cell), std::move(series));
}

std::string
Recorder::csv() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const std::pair<std::string, RunSeries>*> sorted;
    sorted.reserve(runs_.size());
    for (const auto& run : runs_)
        sorted.push_back(&run);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto* a, const auto* b) {
                         return a->first < b->first;
                     });
    std::string out = "cell,series,kind,tick,value\n";
    for (const auto* run : sorted)
        run->second.appendCsv(out, run->first);
    return out;
}

std::size_t
Recorder::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
}

void
Recorder::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_.clear();
}

} // namespace qei::metrics
