#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/simd.h"
#include "common/timer.h"
#include "core/detector.h"
#include "stream/window.h"

namespace perfbench {

using tiresias::monotonicNanos;

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "run";
    case SpanKind::kHierarchyBuild: return "hierarchy.build";
    case SpanKind::kEngineConstruct: return "engine.construct";
    case SpanKind::kAddStream: return "engine.add_stream";
    case SpanKind::kEngineStart: return "engine.start";
    case SpanKind::kFetch: return "stream.fetch";
    case SpanKind::kUnit: return "engine.unit";
    case SpanKind::kSink: return "report.sink";
    case SpanKind::kPublish: return "serve.publish";
    case SpanKind::kCheckpoint: return "persist.checkpoint";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kDrain: return "engine.drain";
    case SpanKind::kCorePass: return "core.pass";
    case SpanKind::kCoreUnit: return "core.unit";
  }
  return "?";
}

// ---- SpanLog -------------------------------------------------------------

std::uint32_t SpanLog::add(const Span& span) {
  std::lock_guard lk(mu_);
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::set(std::uint32_t id, const Span& span) {
  std::lock_guard lk(mu_);
  if (id < spans_.size()) spans_[id] = span;
}

void SpanLog::setParent(std::uint32_t id, std::uint32_t parent) {
  std::lock_guard lk(mu_);
  if (id < spans_.size()) spans_[id].parent = parent;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

void SpanLog::clear() {
  std::lock_guard lk(mu_);
  spans_.clear();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().start;
    for (const Span& s : spans_) origin = std::min(origin, s.start);
  }
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tstream\tunit\tcount\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\t%lld\t%llu\n", i,
                 spanName(s.kind), static_cast<long long>(s.start - origin),
                 static_cast<long long>(s.end - origin),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 s.stream == kNoSpan ? -1LL : static_cast<long long>(s.stream),
                 static_cast<long long>(s.unit),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

// ---- inputs and tracking --------------------------------------------------

void indexUnits(StreamPlan& plan, const std::vector<Record>& records) {
  const tiresias::Duration delta = plan.config.delta;
  plan.firstUnit = plan.config.startTime / delta;
  plan.records = records.size();
  plan.closeAt.clear();
  if (records.empty()) return;
  const TimeUnit last = records.back().time / delta;
  plan.closeAt.assign(static_cast<std::size_t>(last - plan.firstUnit + 1), 0);
  std::size_t i = 0;
  for (TimeUnit u = plan.firstUnit; u <= last; ++u) {
    while (i < records.size() && records[i].time / delta <= u) ++i;
    plan.closeAt[static_cast<std::size_t>(u - plan.firstUnit)] = i;
  }
}

void StreamTrack::reset(std::size_t units) {
  hash.assign(units, 0);
  recvNs.assign(units, 0);
  closeNs.assign(units, 0);
  sinkSpan.assign(units, kNoSpan);
}

namespace {

inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

inline std::uint64_t bitsOf(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

}  // namespace

std::uint64_t resultHash(const InstanceResult& result) {
  std::uint64_t h = 14695981039346656037ULL;
  mix(h, static_cast<std::uint64_t>(result.unit));
  mix(h, result.shhh.size());
  for (tiresias::NodeId n : result.shhh) mix(h, n);
  mix(h, result.anomalies.size());
  for (const Anomaly& a : result.anomalies) {
    mix(h, a.node);
    mix(h, static_cast<std::uint64_t>(a.unit));
    mix(h, bitsOf(a.actual));
    mix(h, bitsOf(a.forecast));
    mix(h, bitsOf(a.ratio));
  }
  return h | 1;  // 0 marks "no result"
}

ClockedSource::ClockedSource(std::unique_ptr<RecordSource> inner,
                             const StreamPlan& plan, StreamTrack& track,
                             std::uint32_t stream, SpanLog* log,
                             std::uint32_t parent)
    : inner_(std::move(inner)),
      plan_(plan),
      track_(track),
      stream_(stream),
      log_(log),
      parent_(parent) {}

void ClockedSource::advance(std::size_t n, std::int64_t now) {
  consumed_ += n;
  while (nextClose_ < plan_.closeAt.size() &&
         plan_.closeAt[nextClose_] < consumed_) {
    track_.closeNs[nextClose_++] = now;
  }
}

std::optional<Record> ClockedSource::next() {
  auto r = inner_->next();
  if (r) advance(1, monotonicNanos());
  return r;
}

std::size_t ClockedSource::nextBatch(std::vector<Record>& out,
                                     std::size_t max) {
  const std::int64_t t0 = log_ != nullptr ? monotonicNanos() : 0;
  const std::size_t n = inner_->nextBatch(out, max);
  const std::int64_t t1 = monotonicNanos();
  advance(n, t1);
  if (log_ != nullptr) {
    Span span;
    span.kind = SpanKind::kFetch;
    span.start = t0;
    span.end = t1;
    span.parent = parent_;
    span.stream = stream_;
    span.unit = n > 0 ? out.back().time / plan_.config.delta : -1;
    span.count = n;
    span.idle = n == 0 && inner_->idle();
    log_->add(span);
  }
  return n;
}

ResultTracker::ResultTracker(const std::vector<StreamPlan>& plans,
                             std::vector<StreamTrack>& tracks, SpanLog* log,
                             std::uint32_t parent, Extra extra)
    : plans_(plans),
      tracks_(tracks),
      log_(log),
      parent_(parent),
      extra_(std::move(extra)) {
  ids_.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) ids_.emplace(plans[i].name, i);
}

tiresias::engine::DetectionEngine::ResultSink ResultTracker::sink() {
  return [this](const std::string& name, const InstanceResult& result) {
    onResult(name, result);
  };
}

void ResultTracker::onResult(const std::string& name,
                             const InstanceResult& result) {
  const std::int64_t t0 = monotonicNanos();
  const std::size_t id = ids_.at(name);
  const StreamPlan& plan = plans_[id];
  StreamTrack& track = tracks_[id];
  const auto slot = static_cast<std::size_t>(result.unit - plan.firstUnit);
  // Sink spans are reserved first so publish spans can hang under them.
  std::uint32_t spanId = kNoSpan;
  if (log_ != nullptr) {
    Span placeholder;
    placeholder.kind = SpanKind::kSink;
    spanId = log_->add(placeholder);
  }
  if (slot < track.hash.size()) {
    track.recvNs[slot] = t0;
    track.hash[slot] = resultHash(result);
    track.sinkSpan[slot] = spanId;
  }
  if (extra_) extra_(name, result, spanId);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (log_ != nullptr) {
    Span span;
    span.kind = SpanKind::kSink;
    span.start = t0;
    span.end = monotonicNanos();
    span.parent = parent_;
    span.stream = static_cast<std::uint32_t>(id);
    span.unit = result.unit;
    span.count = result.anomalies.size();
    log_->set(spanId, span);
  }
}

void addUnitSpans(SpanLog& log, const std::vector<StreamTrack>& tracks,
                  std::uint32_t parent) {
  const std::vector<Span> spans = log.spans();
  for (std::size_t s = 0; s < tracks.size(); ++s) {
    const StreamTrack& t = tracks[s];
    for (std::size_t u = 0; u < t.hash.size(); ++u) {
      if (t.hash[u] == 0 || t.closeNs[u] == 0) continue;
      Span span;
      span.kind = SpanKind::kUnit;
      span.start = t.closeNs[u];
      span.end = t.sinkSpan[u] < spans.size() ? spans[t.sinkSpan[u]].end
                                              : t.recvNs[u];
      span.parent = parent;
      span.stream = static_cast<std::uint32_t>(s);
      span.unit = t.sinkSpan[u] < spans.size() ? spans[t.sinkSpan[u]].unit
                                               : -1;
      const std::uint32_t id = log.add(span);
      if (t.sinkSpan[u] != kNoSpan) log.setParent(t.sinkSpan[u], id);
    }
  }
}

// ---- reference and core pass ---------------------------------------------

namespace {

std::size_t slotOf(const StreamPlan& plan, TimeUnit unit) {
  return static_cast<std::size_t>(unit - plan.firstUnit);
}

}  // namespace

Reference runReference(const std::vector<StreamPlan>& plans,
                       const std::shared_ptr<const Hierarchy>& hierarchy,
                       const SourceFactory& open) {
  Reference ref;
  ref.hash.resize(plans.size());
  ref.units.resize(plans.size());
  ref.anomalies.resize(plans.size());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const StreamPlan& plan = plans[s];
    ref.hash[s].assign(plan.unitSlots(), 0);
    tiresias::TiresiasPipeline pipeline(hierarchy, plan.config);
    const auto source = open(s);
    const bool keepAnomalies = !plan.spikes.empty();
    const tiresias::RunSummary summary =
        pipeline.run(*source, [&](const InstanceResult& r) {
          const std::size_t slot = slotOf(plan, r.unit);
          if (slot < ref.hash[s].size()) ref.hash[s][slot] = resultHash(r);
          if (keepAnomalies) {
            ref.anomalies[s].insert(ref.anomalies[s].end(),
                                    r.anomalies.begin(), r.anomalies.end());
          }
        });
    ref.units[s] = summary.unitsProcessed;
  }
  return ref;
}

CorePass runCorePass(const std::vector<StreamPlan>& plans,
                     const std::shared_ptr<const Hierarchy>& hierarchy,
                     const SourceFactory& open, const Reference& reference,
                     SpanLog* log) {
  CorePass core;
  core.unitNs.resize(plans.size());
  Span root;
  root.kind = SpanKind::kCorePass;
  root.start = monotonicNanos();
  const std::uint32_t rootId = log != nullptr ? log->add(root) : kNoSpan;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const StreamPlan& plan = plans[s];
    core.unitNs[s].assign(plan.unitSlots(), 0);
    tiresias::TiresiasPipeline pipeline(hierarchy, plan.config);
    const auto source = open(s);
    tiresias::TimeUnitBatcher batcher(*source, plan.config.delta,
                                      plan.config.startTime);
    tiresias::TimeUnitBatch batch;
    tiresias::RunSummary summary;
    bool produced = false;
    const auto onResult = [&](const InstanceResult& r) {
      produced = true;
      core.shhhSum += static_cast<double>(r.shhh.size());
      ++core.instances;
      core.anomalies += r.anomalies.size();
      const std::size_t slot = slotOf(plan, r.unit);
      if (slot >= reference.hash[s].size() ||
          reference.hash[s][slot] != resultHash(r)) {
        core.matchesReference = false;
      }
    };
    while (batcher.next(batch)) {
      produced = false;
      const std::int64_t t0 = monotonicNanos();
      pipeline.processUnit(batch, onResult, summary);
      const std::int64_t t1 = monotonicNanos();
      const std::size_t slot = slotOf(plan, batch.unit);
      if (slot < core.unitNs[s].size()) core.unitNs[s][slot] = t1 - t0;
      core.busyS += 1e-9 * static_cast<double>(t1 - t0);
      if (produced) core.resultUnitUs.push_back(1e-3 * (t1 - t0));
      if (log != nullptr) {
        Span span;
        span.kind = SpanKind::kCoreUnit;
        span.start = t0;
        span.end = t1;
        span.parent = rootId;
        span.stream = static_cast<std::uint32_t>(s);
        span.unit = batch.unit;
        span.count = batch.records.size();
        log->add(span);
      }
    }
    if (summary.unitsProcessed != reference.units[s]) {
      core.matchesReference = false;
    }
    if (const tiresias::Detector* d = pipeline.detector()) {
      core.updateS += d->stages().totalSeconds(
          tiresias::kStageUpdateHierarchies);
      core.createS += d->stages().totalSeconds(tiresias::kStageCreateSeries);
      core.judgeS += d->stages().totalSeconds(tiresias::kStageDetect);
    }
  }
  if (log != nullptr) {
    root.end = monotonicNanos();
    log->set(rootId, root);
  }
  return core;
}

// ---- checks and failure accounting ---------------------------------------

void account(const std::vector<StreamPlan>& plans, const Reference& reference,
             const std::vector<StreamTrack>& tracks,
             const tiresias::engine::EngineStats& stats, Accounting& acc) {
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const std::size_t offered = reference.units[s];
    acc.offered += offered;
    for (std::size_t u = 0; u < reference.hash[s].size(); ++u) {
      if (reference.hash[s][u] != tracks[s].hash[u]) ++acc.mismatched;
    }
    std::size_t processed = 0, discarded = 0;
    if (s < stats.perStream.size()) {
      processed = stats.perStream[s].unitsProcessed;
      discarded = stats.perStream[s].unitsDiscarded;
    }
    acc.discarded += discarded;
    if (offered > processed + discarded) {
      acc.lost += offered - processed - discarded;
    }
  }
}

namespace {

/// Calls fn(stream, slot) for every latency sample: a unit with a
/// reference result, a closing record, and a delivered result.
template <class Fn>
void forEachSample(const std::vector<StreamPlan>& plans,
                   const Reference& reference,
                   const std::vector<StreamTrack>& tracks, Fn&& fn) {
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const StreamPlan& plan = plans[s];
    const StreamTrack& t = tracks[s];
    for (std::size_t u = 0; u < plan.unitSlots(); ++u) {
      if (reference.hash[s][u] != 0 && plan.closeAt[u] < plan.records &&
          t.recvNs[u] != 0 && t.closeNs[u] != 0) {
        fn(s, u);
      }
    }
  }
}

double latencyMs(const StreamTrack& t, std::size_t u) {
  return 1e-6 * static_cast<double>(t.recvNs[u] - t.closeNs[u]);
}

}  // namespace

std::vector<double> latencySamplesMs(const std::vector<StreamPlan>& plans,
                                     const Reference& reference,
                                     const std::vector<StreamTrack>& tracks) {
  std::vector<double> out;
  forEachSample(plans, reference, tracks, [&](std::size_t s, std::size_t u) {
    out.push_back(latencyMs(tracks[s], u));
  });
  return out;
}

void windowPercentiles(const std::vector<StreamPlan>& plans,
                       const Reference& reference,
                       const std::vector<StreamTrack>& tracks,
                       std::vector<double>& p50, std::vector<double>& p99) {
  std::vector<std::pair<std::int64_t, double>> samples;
  forEachSample(plans, reference, tracks, [&](std::size_t s, std::size_t u) {
    samples.emplace_back(tracks[s].closeNs[u], latencyMs(tracks[s], u));
  });
  std::sort(samples.begin(), samples.end());
  // A run too short for one full window still reports its samples.
  const std::size_t windows =
      samples.empty() ? 0
                      : std::max<std::size_t>(1, samples.size() / kWindowSamples);
  std::vector<double> ms;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t end =
        w + 1 == windows ? samples.size() : (w + 1) * kWindowSamples;
    ms.clear();
    for (std::size_t i = w * kWindowSamples; i < end; ++i) {
      ms.push_back(samples[i].second);
    }
    p50.push_back(percentile(ms, 0.50));
    p99.push_back(percentile(ms, 0.99));
  }
}

std::size_t spikesFound(const Hierarchy& hierarchy,
                        const std::vector<tiresias::workload::SpikeSpec>& spikes,
                        const std::vector<Anomaly>& anomalies) {
  std::size_t found = 0;
  for (const auto& spike : spikes) {
    for (const Anomaly& a : anomalies) {
      if (spike.activeAt(a.unit) &&
          (hierarchy.isAncestorOrEqual(a.node, spike.node) ||
           hierarchy.isAncestorOrEqual(spike.node, a.node))) {
        ++found;
        break;
      }
    }
  }
  return found;
}

// ---- ledger, metrics and output --------------------------------------------

LayerTotals layerTotals(const std::vector<Span>& spans) {
  LayerTotals t;
  for (const Span& s : spans) {
    const double sec = 1e-9 * static_cast<double>(s.end - s.start);
    switch (s.kind) {
      case SpanKind::kFetch:
        t.fetchS += sec;
        ++t.fetchCalls;
        t.fetchRecords += s.count;
        t.idlePulls += s.idle ? 1 : 0;
        break;
      case SpanKind::kSink:
        t.sinkS += sec;
        t.sinkUs.push_back(1e6 * sec);
        break;
      case SpanKind::kPublish:
        t.publishS += sec;
        t.publishUs.push_back(1e6 * sec);
        break;
      case SpanKind::kSend:
        t.sendS += sec;
        t.sendBytes += s.count;
        ++t.sends;
        break;
      default:
        break;
    }
  }
  return t;
}

std::vector<double> unitWaitMs(const std::vector<StreamPlan>& plans,
                               const Reference& reference,
                               const std::vector<StreamTrack>& tracks,
                               const CorePass& core) {
  std::vector<double> out;
  forEachSample(plans, reference, tracks, [&](std::size_t s, std::size_t u) {
    out.push_back(latencyMs(tracks[s], u) -
                  1e-6 * static_cast<double>(core.unitNs[s][u]));
  });
  return out;
}

double printLedger(double wallS, std::size_t threads,
                   const std::vector<LedgerRow>& rows) {
  const double capacity = wallS * static_cast<double>(threads);
  double attributed = 0;
  std::printf("ledger: wall %.4f s x %zu engine threads = %.4f s\n", wallS,
              threads, capacity);
  for (const LedgerRow& row : rows) {
    attributed += row.seconds;
    std::printf("  %-26s %10.4f s %6.1f%%\n", row.name.c_str(), row.seconds,
                capacity > 0 ? 100.0 * row.seconds / capacity : 0.0);
  }
  const double rest = capacity - attributed;
  std::printf("  %-26s %10.4f s %6.1f%%\n", "engine.unattributed_s", rest,
              capacity > 0 ? 100.0 * rest / capacity : 0.0);
  return rest;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

}  // namespace

std::string contextJson(const Options& opt) {
  std::string s = "{\"nproc\": ";
  s += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"hardware_concurrency\": ";
  s += std::to_string(std::thread::hardware_concurrency());
  s += ", \"simd_isa\": \"" + jsonEscape(tiresias::simd::activeIsa()) + "\"";
  s += ", \"build_type\": \"" + jsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"compiler\": \"" + jsonEscape(PERFBENCH_COMPILER) + "\"";
  s += ", \"git_commit\": \"" + jsonEscape(opt.gitCommit) + "\"";
  s += ", \"source_digest\": \"" + jsonEscape(opt.sourceDigest) + "\"";
  s += ", \"workload\": \"" + jsonEscape(opt.workload) + "\"";
  s += ", \"seed\": " + std::to_string(opt.seed);
  s += ", \"seconds\": " + num(opt.seconds);
  s += ", \"trace\": ";
  s += opt.trace ? "1" : "0";
  s += "}";
  return s;
}

int finish(const Options& opt, bool correct, std::size_t attempted,
           std::size_t failed, const std::vector<Metric>& metrics,
           const std::vector<std::string>& failedChecks) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
  }
  std::printf("\nmetrics (%s, seed %llu, %s):\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced run" : "timed run");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& c : failedChecks) {
    std::printf("CHECK FAILED: %s\n", c.c_str());
  }
  std::string metricsJson = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) metricsJson += ", ";
    metricsJson += "\"" + jsonEscape(metrics[i].name) + "\": {\"value\": " +
                   num(metrics[i].value) + ", \"unit\": \"" +
                   jsonEscape(metrics[i].unit) + "\"}";
  }
  metricsJson += "}";
  std::string checks = "[";
  for (std::size_t i = 0; i < failedChecks.size(); ++i) {
    if (i > 0) checks += ", ";
    checks += "\"" + jsonEscape(failedChecks[i]) + "\"";
  }
  checks += "]";
  const std::string context = contextJson(opt);
  const std::string resultPath = opt.outDir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + "-trace" +
                                 (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(resultPath.c_str(), "w")) {
    std::fprintf(f,
                 "{\"context\": %s, \"correct\": %s, \"attempted\": %zu, "
                 "\"failed\": %zu, \"failed_checks\": %s, \"metrics\": %s}\n",
                 context.c_str(), correct ? "true" : "false", attempted,
                 failed, checks.c_str(), metricsJson.c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metricsJson.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

LayerReport tracedLayers(const Options& opt,
                         const std::vector<StreamPlan>& plans,
                         const Reference& reference, const Round& traced,
                         const CorePass& core, SpanLog& log,
                         std::size_t threads) {
  LayerReport r;
  r.core = core;
  r.totals = layerTotals(log.spans());
  r.addStreamS = traced.addStreamS;
  r.hierarchyS = traced.hierarchyS;
  r.unitWaitMs = unitWaitMs(plans, reference, traced.tracks, core);
  r.queueLagMax = traced.maxQueueLag;
  r.backpressureWaits = traced.stats.backpressureWaits;
  r.claims = traced.stats.scheduler.claims;
  r.requeues = traced.stats.scheduler.requeues;
  r.unitsProcessed = traced.stats.unitsProcessed;
  r.skipped = traced.stats.junkRowsSkipped;
  r.checkpointBytes = traced.checkpointBytes;
  r.evictions = traced.stats.hibernateEvictions;
  r.wakes = traced.stats.hibernateWakes;
  r.unattributedS =
      printLedger(traced.wallS, threads,
                  {{"core.busy_s (1-thread pass)", core.busyS},
                   {"stream.fetch_s", r.totals.fetchS},
                   {"report.sink_s", r.totals.sinkS}});
  const std::string spanPath = opt.outDir + "/" + opt.workload + ".spans.tsv";
  if (log.write(spanPath)) {
    std::printf("spans: %zu written to %s\n", log.spans().size(),
                spanPath.c_str());
  }
  return r;
}

std::vector<Metric> layerMetrics(const LayerReport& r) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const CorePass& c = r.core;
  const LayerTotals& t = r.totals;
  return {
      {"core.unit_us_p50", percentile(c.resultUnitUs, 0.50), "us"},
      {"core.unit_us_p99", percentile(c.resultUnitUs, 0.99), "us"},
      {"core.busy_s", c.busyS, "s"},
      {"core.update_hierarchies_s", c.updateS, "s"},
      {"core.create_series_s", c.createS, "s"},
      {"core.judge_s", c.judgeS, "s"},
      {"core.shhh_size_mean", ratio(c.shhhSum, count(c.instances)), "nodes"},
      {"core.instances", count(c.instances), "count"},
      {"core.anomalies", count(c.anomalies), "count"},
      {"stream.fetch_s", t.fetchS, "s"},
      {"stream.fetch_calls", count(t.fetchCalls), "count"},
      {"stream.records", count(t.fetchRecords), "count"},
      {"stream.records_per_fetch",
       ratio(count(t.fetchRecords), count(t.fetchCalls)), "records"},
      {"stream.idle_pulls", count(t.idlePulls), "count"},
      {"stream.skipped", count(r.skipped), "count"},
      {"net.send_s", t.sendS, "s"},
      {"net.bytes", count(t.sendBytes), "bytes"},
      {"net.frames", count(r.netFrames), "count"},
      {"net.protocol_errors", count(r.protocolErrors), "count"},
      {"engine.add_stream_s", r.addStreamS, "s"},
      {"engine.unit_wait_ms_p50", percentile(r.unitWaitMs, 0.50), "ms"},
      {"engine.unit_wait_ms_p99", percentile(r.unitWaitMs, 0.99), "ms"},
      {"engine.queue_lag_max_units", count(r.queueLagMax), "units"},
      {"engine.backpressure_waits", count(r.backpressureWaits), "count"},
      {"engine.claims", count(r.claims), "count"},
      {"engine.requeues", count(r.requeues), "count"},
      {"engine.units_per_claim", ratio(count(r.unitsProcessed), count(r.claims)),
       "units"},
      {"engine.unattributed_s", r.unattributedS, "s"},
      {"report.sink_s", t.sinkS, "s"},
      {"report.sink_us_p99", percentile(t.sinkUs, 0.99), "us"},
      {"serve.publish_us_p99", percentile(t.publishUs, 0.99), "us"},
      {"serve.evictions", count(r.serveEvictions), "count"},
      {"persist.checkpoint_bytes", count(r.checkpointBytes), "bytes"},
      {"persist.hibernate_evictions", count(r.evictions), "count"},
      {"persist.hibernate_wakes", count(r.wakes), "count"},
      {"persist.wakes_per_unit", ratio(count(r.wakes), count(r.unitsProcessed)),
       "ratio"},
      {"hierarchy.build_s", r.hierarchyS, "s"},
      {"loadgen.lag_p99_ms", percentile(r.loadgenLagMs, 0.99), "ms"},
      {"loadgen.offered_rps", r.offeredRps, "records/s"},
      {"trace.overhead_share", r.overheadShare, "ratio"},
  };
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failed_.push_back(what);
}

}  // namespace perfbench
