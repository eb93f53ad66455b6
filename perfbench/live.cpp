// live: an open loop. One sender thread paces 4 loopback TCP connections
// into SocketSources at a few fixed aggregate rates; two connections carry
// framed binary and two raw CSV, one stream each (ccd-net/medium with
// injected spikes). Results go to a ConcurrentAnomalyStore and to a
// JsonLineBroadcaster with one draining subscriber; the engine runs 2
// workers and 1 ingest thread. This is the `serve --listen` path: latency
// comes mostly from net/stream decode and engine queueing, and binary and
// CSV decode run side by side so a gain on one cannot hide a loss on the
// other.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "common/csv.h"
#include "harness.h"
#include "net/tcp.h"
#include "report/concurrent_store.h"
#include "serve/serving.h"
#include "stream/socket_source.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"

namespace perfbench {

namespace {

using tiresias::monotonicNanos;
using tiresias::engine::DetectionEngine;
using tiresias::engine::EngineConfig;
using tiresias::workload::Scale;
using tiresias::workload::SpikeSpec;
using tiresias::workload::WorkloadSpec;


constexpr std::size_t kStreams = 4;  // 0,1 binary; 2,3 CSV
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kIngestThreads = 1;
/// Fixed aggregate offered rates (records/s), ascending. Latency is
/// reported at kRates[kNominal]; sustained_rps is the highest rate that
/// meets the latency limit without a growing backlog.
constexpr double kRates[] = {200e3, 400e3, 800e3, 1200e3};
constexpr std::size_t kSteps = std::size(kRates);
constexpr std::size_t kNominal = 1;
/// The nominal step runs this many times (fresh inputs each) and its
/// figures are the medians, so one descheduled stretch of the box cannot
/// set the run's p99.
constexpr std::size_t kNominalRepeats = 5;
constexpr std::size_t kStepRuns = kSteps + kNominalRepeats - 1;
/// p99 latency limit, fixed once: an order of magnitude above the
/// nominal-rate p99 on a 4-thread box, far below what a growing backlog
/// produces within a step.
constexpr double kLatencyLimitMs = 100.0;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kSpikesPerStream = 3;
/// Shortest sender sleep: records due within it go out in one write.
constexpr std::int64_t kMinTickNs = 200'000;

bool isBinary(std::size_t s) { return s < 2; }

std::shared_ptr<const WorkloadSpec> mediumSpec() {
  return std::make_shared<const WorkloadSpec>(
      tiresias::workload::ccdNetworkWorkload(Scale::kMedium));
}

/// One connection's pre-rendered input.
struct Wire {
  std::vector<Record> records;             // file-id = node id
  std::vector<std::uint8_t> handshake;     // binary only
  std::string text;                        // CSV only
  std::vector<std::size_t> offsets;        // CSV: byte offset per record
};

/// One step's inputs: per-stream plans and wire bytes at one rate.
struct StepInput {
  double rate = 0;
  double nsPerTraceSecond = 0;  // wall ns per second of trace time
  std::vector<StreamPlan> plans;
  std::vector<Wire> wires;
};

std::vector<Record> generate(
    const WorkloadSpec& spec, std::uint64_t seed, TimeUnit units,
    std::shared_ptr<const tiresias::workload::AnomalyInjector> injector) {
  tiresias::workload::GeneratorSource gen(spec, 0, units, seed,
                                          std::move(injector));
  std::vector<Record> records, chunk;
  while (gen.nextBatch(chunk, 8192) > 0) {
    records.insert(records.end(), chunk.begin(), chunk.end());
  }
  return records;
}

/// Live feeds share one clock: trace time is replayed at a fixed speed-up,
/// so every stream's unit boundaries fall at the same wall instants, and
/// the speed-up is chosen so the step covers `seconds` at `rate` on
/// average (the seasonal shape makes the instantaneous rate vary).
StepInput makeStep(const WorkloadSpec& spec,
                   const std::vector<std::string>& paths, double rate,
                   double seconds, std::uint64_t seed) {
  StepInput step;
  step.rate = rate;
  // Units covering the record budget: one probe stream at the mean rate.
  const double perStream = rate / kStreams * seconds;
  TimeUnit units = 0;
  {
    tiresias::workload::GeneratorSource probe(spec, 0, 1 << 20, seed);
    std::vector<Record> chunk;
    double seen = 0;
    while (seen < perStream && probe.nextBatch(chunk, 8192) > 0) {
      seen += static_cast<double>(chunk.size());
      units = chunk.back().time / spec.unit + 1;
    }
  }
  step.nsPerTraceSecond =
      seconds * 1e9 / static_cast<double>(units * spec.unit);
  const auto forecaster = std::make_shared<tiresias::EwmaFactory>(0.5);
  tiresias::Rng rng(seed);
  const auto ios = spec.hierarchy.nodesAtDepth(2);
  for (std::size_t s = 0; s < kStreams; ++s) {
    // Spikes go into the first 80% of the range, after warm-up.
    tiresias::workload::GroundTruthLedger ledger;
    StreamPlan plan;
    const TimeUnit first = static_cast<TimeUnit>(kWindow) + 4;
    const TimeUnit span = std::max<TimeUnit>(units * 8 / 10 - first, 3);
    for (std::size_t k = 0; k < kSpikesPerStream; ++k) {
      SpikeSpec spike;
      spike.node = ios.first + static_cast<tiresias::NodeId>(
                                   rng.below(ios.size()));
      spike.startUnit =
          first + span * static_cast<TimeUnit>(k) / kSpikesPerStream;
      spike.durationUnits = 2;
      spike.extraPerUnit = 60.0;
      ledger.add(spike);
      plan.spikes.push_back(spike);
    }
    const auto records = generate(
        spec, seed * 16 + s + 1, units,
        std::make_shared<const tiresias::workload::AnomalyInjector>(
            spec.hierarchy, ledger));
    plan.name = "live-" + std::to_string(s) + (isBinary(s) ? "-bin" : "-csv");
    plan.config.delta = spec.unit;
    plan.config.detector.theta = 8.0;
    plan.config.detector.windowLength = kWindow;
    plan.config.detector.forecasterFactory = forecaster;
    indexUnits(plan, records);
    Wire wire;
    if (isBinary(s)) {
      wire.handshake = tiresias::encodeSocketHandshake(paths);
    } else {
      std::ostringstream text;
      tiresias::CsvWriter writer(text);
      wire.offsets.reserve(records.size() + 1);
      for (const Record& r : records) {
        wire.offsets.push_back(static_cast<std::size_t>(text.tellp()));
        writer.row({paths[r.category], std::to_string(r.time)});
      }
      wire.text = text.str();
      wire.offsets.push_back(wire.text.size());
    }
    wire.records = records;
    step.plans.push_back(std::move(plan));
    step.wires.push_back(std::move(wire));
  }
  return step;
}

/// What the load generator did in one step.
struct SendLog {
  std::vector<double> lagMs;  // per write: now - due time of its first record
  std::size_t writes = 0, records = 0;
  double firstNs = 0, lastNs = 0;
  bool ok = true;
};

std::int64_t dueNs(const StepInput& step, std::int64_t t0, std::size_t stream,
                   std::size_t index) {
  return t0 + static_cast<std::int64_t>(
                  static_cast<double>(step.wires[stream].records[index].time) *
                  step.nsPerTraceSecond);
}

/// Paces every record out at its due time (open loop: a slow receiver
/// makes the sender late, never the schedule slower).
void sendPaced(const StepInput& step, std::vector<tiresias::net::TcpConn>& conns,
               std::int64_t t0, SendLog& out, SpanLog* log,
               std::uint32_t parent) {
  std::vector<std::size_t> sent(kStreams, 0);
  std::vector<std::uint8_t> frame;
  for (;;) {
    const std::int64_t now = monotonicNanos();
    std::int64_t next = INT64_MAX;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const Wire& w = step.wires[s];
      const std::size_t n = w.records.size();
      std::size_t target = sent[s];
      while (target < n && dueNs(step, t0, s, target) <= now) ++target;
      if (target > sent[s]) {
        out.lagMs.push_back(
            1e-6 * static_cast<double>(now - dueNs(step, t0, s, sent[s])));
        const void* data = nullptr;
        std::size_t bytes = 0;
        if (isBinary(s)) {
          frame.clear();
          tiresias::appendSocketFrame(frame, w.records.data() + sent[s],
                                      target - sent[s]);
          data = frame.data();
          bytes = frame.size();
        } else {
          data = w.text.data() + w.offsets[sent[s]];
          bytes = w.offsets[target] - w.offsets[sent[s]];
        }
        const std::int64_t w0 = monotonicNanos();
        out.ok &= conns[s].writeAll(data, bytes);
        const std::int64_t w1 = monotonicNanos();
        if (log != nullptr) {
          Span span;
          span.kind = SpanKind::kSend;
          span.start = w0;
          span.end = w1;
          span.parent = parent;
          span.stream = static_cast<std::uint32_t>(s);
          span.count = bytes;
          log->add(span);
        }
        ++out.writes;
        out.records += target - sent[s];
        if (out.firstNs == 0) out.firstNs = static_cast<double>(w0);
        out.lastNs = static_cast<double>(w1);
        sent[s] = target;
      }
      if (sent[s] < n) next = std::min(next, dueNs(step, t0, s, sent[s]));
    }
    if (next == INT64_MAX) break;
    const std::int64_t wake =
        std::max(next, monotonicNanos() + kMinTickNs);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(wake - monotonicNanos()));
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    if (isBinary(s)) {
      std::vector<std::uint8_t> eos;
      tiresias::appendSocketEndOfStream(eos);
      out.ok &= conns[s].writeAll(eos.data(), eos.size());
    } else {
      conns[s].shutdownWrite();
    }
  }
}

/// One step: fresh engine, listeners, broadcaster and subscriber.
struct StepResult {
  Round round;
  SendLog send;
  std::vector<double> latencyMs;
  bool backlogGrew = false;
  std::size_t protocolErrors = 0, skipped = 0;
  std::size_t subscriberLines = 0, anomalies = 0, evictions = 0;
  std::vector<std::size_t> recall;  // spikes found per stream
  double deliveredRps = 0;
};

/// `setupOnly` stops right after start() (set-up timing samples).
StepResult runStep(const StepInput& step, const Reference& reference,
                   const std::string& checkpointPath, SpanLog* log,
                   bool setupOnly) {
  StepResult out;
  Round& round = out.round;
  const std::vector<StreamPlan>& plans = step.plans;
  round.tracks.resize(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    round.tracks[s].reset(plans[s].unitSlots());
  }
  if (log != nullptr) {
    Span run;
    run.kind = SpanKind::kRun;
    run.start = monotonicNanos();
    round.runSpan = log->add(run);
  }
  tiresias::report::ConcurrentAnomalyStore store;
  tiresias::serve::JsonLineBroadcaster broadcaster;
  std::shared_ptr<const WorkloadSpec> spec;
  ResultTracker tracker(
      plans, round.tracks, log, round.runSpan,
      [&](const std::string& name, const InstanceResult& r,
          std::uint32_t sinkSpan) {
        store.add(name, r);
        const Hierarchy& h = spec->hierarchy;
        for (const Anomaly& a : r.anomalies) {
          const std::string line = tiresias::serve::anomalyJsonLine(
              name, h.path(a.node), h.depth(a.node), a);
          timed(log, SpanKind::kPublish, sinkSpan,
                [&] { broadcaster.publish(line); });
        }
      });

  const std::int64_t setup0 = monotonicNanos();
  timed(log, SpanKind::kHierarchyBuild, round.runSpan,
        [&] { spec = mediumSpec(); });
  round.hierarchyS = 1e-9 * static_cast<double>(monotonicNanos() - setup0);
  std::vector<std::shared_ptr<tiresias::net::TcpListener>> listeners;
  for (std::size_t s = 0; s < kStreams; ++s) {
    listeners.push_back(std::make_shared<tiresias::net::TcpListener>());
    if (!listeners.back()->listen(0, /*loopbackOnly=*/true)) {
      std::fprintf(stderr, "live: cannot listen: %s\n",
                   listeners.back()->lastError().c_str());
      std::exit(1);
    }
  }
  EngineConfig cfg;
  cfg.workers = kWorkers;
  cfg.ingestThreads = kIngestThreads;
  std::unique_ptr<DetectionEngine> engine;
  timed(log, SpanKind::kEngineConstruct, round.runSpan, [&] {
    engine = std::make_unique<DetectionEngine>(cfg, tracker.sink());
  });
  std::vector<const tiresias::SocketSource*> sockets;
  const auto hierarchy = tiresias::workload::sharedHierarchy(spec);
  for (std::size_t s = 0; s < kStreams; ++s) {
    store.registerStream(plans[s].name, spec->hierarchy);
    auto socket = std::make_unique<tiresias::SocketSource>(
        listeners[s], spec->hierarchy, tiresias::SocketSourceOptions{});
    sockets.push_back(socket.get());
    auto source = std::make_unique<ClockedSource>(
        std::move(socket), plans[s], round.tracks[s],
        static_cast<std::uint32_t>(s), log, round.runSpan);
    const std::int64_t t0 = monotonicNanos();
    engine->addStream(plans[s].name, hierarchy, plans[s].config,
                      std::move(source));
    round.addStreamS += 1e-9 * static_cast<double>(monotonicNanos() - t0);
  }
  if (!broadcaster.start(0, /*loopbackOnly=*/true)) {
    std::fprintf(stderr, "live: cannot start broadcaster: %s\n",
                 broadcaster.error().c_str());
    std::exit(1);
  }
  timed(log, SpanKind::kEngineStart, round.runSpan, [&] { engine->start(); });
  round.setupS = 1e-9 * static_cast<double>(monotonicNanos() - setup0);
  if (setupOnly) {
    engine->stop();
    return out;
  }

  // The subscriber drains every line until the broadcaster closes it.
  std::thread subscriber([&, port = broadcaster.port()] {
    tiresias::net::TcpConn conn = tiresias::net::connectLoopback(port, 5000);
    char buf[65536];
    for (;;) {
      std::size_t got = 0;
      const auto st = conn.readSome(buf, sizeof buf, got, 100);
      if (st == tiresias::net::IoStatus::kOk) {
        out.subscriberLines += static_cast<std::size_t>(
            std::count(buf, buf + got, '\n'));
      } else if (st != tiresias::net::IoStatus::kTimeout) {
        break;
      }
    }
  });
  for (int i = 0; i < 2000 && broadcaster.subscribers() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<tiresias::net::TcpConn> conns;
  for (std::size_t s = 0; s < kStreams; ++s) {
    conns.push_back(
        tiresias::net::connectLoopback(listeners[s]->port(), 5000));
    // The generator paces small writes itself; Nagle batching on its side
    // would add client-made delay to every latency sample.
    const int one = 1;
    ::setsockopt(conns.back().fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof one);
    if (isBinary(s)) {
      conns.back().writeAll(step.wires[s].handshake.data(),
                            step.wires[s].handshake.size());
    }
  }
  const std::int64_t t0 = monotonicNanos() + 20'000'000;
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    sendPaced(step, conns, t0, out.send, log, round.runSpan);
    sending.store(false);
  });
  // Backlog: queue lag polled over the paced window.
  std::vector<std::size_t> lag;
  while (sending.load()) {
    const std::size_t l = engine->stats().queueLagUnits();
    lag.push_back(l);
    round.maxQueueLag = std::max(round.maxQueueLag, l);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  sender.join();
  timed(log, SpanKind::kDrain, round.runSpan,
        [&] { round.stats = engine->drain(); });
  const std::int64_t drained = monotonicNanos();
  round.wallS = round.stats.elapsedSeconds;
  {
    const std::int64_t c0 = monotonicNanos();
    try {
      timed(log, SpanKind::kCheckpoint, round.runSpan,
            [&] { engine->checkpoint(checkpointPath); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint failed: %s\n", e.what());
      round.checkpointFailed = true;
    }
    round.checkpointS.push_back(1e-9 *
                                static_cast<double>(monotonicNanos() - c0));
    round.checkpointBytes = engine->stats().checkpoint.lastBytes;
  }
  std::remove(checkpointPath.c_str());
  for (const auto* socket : sockets) {
    out.protocolErrors += socket->protocolErrors();
    out.skipped += socket->skippedRecords();
  }
  out.evictions = broadcaster.accepted() - broadcaster.subscribers();
  out.anomalies = store.totalSize();
  broadcaster.stop();
  subscriber.join();
  conns.clear();
  engine.reset();

  // Open loop: latency runs from the due send time of the closing record.
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t u = 0; u < plans[s].unitSlots(); ++u) {
      if (plans[s].closeAt[u] < plans[s].records) {
        round.tracks[s].closeNs[u] = dueNs(step, t0, s, plans[s].closeAt[u]);
      }
    }
    out.recall.push_back(spikesFound(spec->hierarchy, plans[s].spikes,
                                     [&] {
                                       std::vector<Anomaly> v;
                                       for (const auto& a :
                                            store.snapshot(plans[s].name)) {
                                         v.push_back(a.anomaly);
                                       }
                                       return v;
                                     }()));
  }
  out.latencyMs = latencySamplesMs(plans, reference, round.tracks);
  // Backlog growth: mean queue lag over the last third of the step exceeds
  // the first third's by more than a quarter of the queue capacity.
  const double growthLimit =
      static_cast<double>(kStreams * EngineConfig{}.streamQueueCapacity) / 4;
  if (lag.size() >= 3) {
    const std::size_t third = lag.size() / 3;
    double head = 0, tail = 0;
    for (std::size_t i = 0; i < third; ++i) {
      head += static_cast<double>(lag[i]);
      tail += static_cast<double>(lag[lag.size() - 1 - i]);
    }
    out.backlogGrew =
        (tail - head) / static_cast<double>(third) > growthLimit;
  }
  out.deliveredRps = static_cast<double>(round.stats.recordsProcessed) /
                     (1e-9 * static_cast<double>(drained - t0));
  if (log != nullptr) {
    Span run = log->spans()[round.runSpan];
    run.end = monotonicNanos();
    log->set(round.runSpan, run);
    addUnitSpans(*log, round.tracks, round.runSpan);
  }
  return out;
}

}  // namespace

int runLive(const Options& opt) {
  const auto spec = mediumSpec();
  std::vector<std::string> paths;
  paths.reserve(spec->hierarchy.size());
  for (std::size_t n = 0; n < spec->hierarchy.size(); ++n) {
    paths.push_back(spec->hierarchy.path(static_cast<tiresias::NodeId>(n)));
  }
  const auto hierarchy = tiresias::workload::sharedHierarchy(spec);
  const std::string checkpointPath = opt.outDir + "/live.ckpt";
  Checks checks;
  Accounting acc;
  const auto check = [&](const StepInput& in, const Reference& ref,
                         const StepResult& r, bool nominal) {
    account(in.plans, ref, r.round.tracks, r.round.stats, acc);
    if (nominal) {
      for (double ms : r.latencyMs) acc.late += ms > kLatencyLimitMs ? 1 : 0;
    }
    checks.expect(r.protocolErrors == 0 && r.skipped == 0 && r.send.ok,
                  "every connection ends cleanly with no protocol error or "
                  "skipped record");
    checks.expect(r.evictions == 0 && r.subscriberLines == r.anomalies,
                  "the subscriber receives one line per stored anomaly");
    checks.expect(!r.round.checkpointFailed, "every checkpoint is written");
    for (std::size_t s = 0; s < kStreams; ++s) {
      checks.expect(r.recall[s] == spikesFound(spec->hierarchy,
                                               in.plans[s].spikes,
                                               ref.anomalies[s]),
                    "injected-spike recall equals the reference's");
    }
  };
  const auto reopen = [](const StepInput& in) {
    return [&in](std::size_t s) -> std::unique_ptr<RecordSource> {
      return std::make_unique<MemorySource>(in.wires[s].records,
                                            in.plans[s].config.delta);
    };
  };

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<double> setup, checkpoint, p50, p99, rps, ups, pooled;
    std::size_t samples = 0;
    double sustained = 0;
    bool allBelowSustained = true;
    for (std::size_t k = 0; k < kSteps; ++k) {
      const bool nominal = k == kNominal;
      bool stepOk = true;
      double delivered = 0;
      for (std::size_t rep = 0; rep < (nominal ? kNominalRepeats : 1); ++rep) {
        const StepInput in =
            makeStep(*spec, paths, kRates[k], opt.seconds / kStepRuns,
                     opt.seed * 100 + k * 10 + rep);
        const Reference ref = runReference(in.plans, hierarchy, reopen(in));
        const StepResult r = runStep(in, ref, checkpointPath, nullptr, false);
        check(in, ref, r, nominal);
        const double stepP99 = percentile(r.latencyMs, 0.99);
        const bool ok = stepP99 <= kLatencyLimitMs && !r.backlogGrew;
        std::printf("step %7.0f records/s: delivered %.0f/s, latency p50 "
                    "%.3f ms p99 %.3f ms (%zu samples), max queue lag %zu, "
                    "generator lag p99 %.3f ms -> %s\n",
                    kRates[k], r.deliveredRps, percentile(r.latencyMs, 0.5),
                    stepP99, r.latencyMs.size(), r.round.maxQueueLag,
                    percentile(r.send.lagMs, 0.99),
                    ok ? "sustained" : "not sustained");
        stepOk &= ok;
        delivered = std::max(delivered, r.deliveredRps);
        setup.push_back(r.round.setupS);
        checkpoint.insert(checkpoint.end(), r.round.checkpointS.begin(),
                          r.round.checkpointS.end());
        if (nominal) {
          windowPercentiles(in.plans, ref, r.round.tracks, p50, p99);
          samples += r.latencyMs.size();
          pooled.insert(pooled.end(), r.latencyMs.begin(), r.latencyMs.end());
          rps.push_back(static_cast<double>(r.round.stats.recordsProcessed) /
                        r.round.wallS);
          ups.push_back(static_cast<double>(r.round.stats.unitsProcessed) /
                        r.round.wallS);
        }
      }
      allBelowSustained &= stepOk;
      if (allBelowSustained) sustained = delivered;
    }
    checks.expect(sustained > 0, "the lowest offered rate is sustained");
    if (setup.size() < kMinSetupSamples) {
      const StepInput in = makeStep(*spec, paths, kRates[kNominal], 0.05,
                                    opt.seed);
      const Reference none;
      while (setup.size() < kMinSetupSamples) {
        setup.push_back(
            runStep(in, none, checkpointPath, nullptr, true).round.setupS);
      }
    }
    std::printf("latency at %.0f records/s: %zu samples in %zu windows; "
                "pooled p50 %.3f ms p99 %.3f ms max %.3f ms\n",
                kRates[kNominal], samples, p99.size(), percentile(pooled, 0.5),
                percentile(pooled, 0.99), percentile(pooled, 1.0));
    metrics = {
        {"setup_s", median(setup), "s"},
        {"records_per_s", median(rps), "records/s"},
        {"units_per_s", median(ups), "units/s"},
        {"latency_p50_ms", median(p50), "ms"},
        {"latency_p99_ms", median(p99), "ms"},
        {"sustained_rps", sustained, "records/s"},
        {"checkpoint_s", median(checkpoint), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"delivered_share",
         acc.offered > 0 ? 1.0 - static_cast<double>(acc.failed()) /
                                     static_cast<double>(acc.offered)
                         : 0.0,
         "ratio"},
    };
  } else {
    // Traced: the nominal step only, alternating timed and traced runs.
    const double stepS = opt.seconds / 4;
    const StepInput in = makeStep(*spec, paths, kRates[kNominal], stepS,
                                  opt.seed * 10 + kNominal);
    const Reference ref = runReference(in.plans, hierarchy, reopen(in));
    SpanLog log;
    std::vector<double> timedP50, tracedP50;
    StepResult traced;
    const std::int64_t begin = monotonicNanos();
    do {
      const StepResult t = runStep(in, ref, checkpointPath, nullptr, false);
      check(in, ref, t, true);
      timedP50.push_back(percentile(t.latencyMs, 0.5));
      log.clear();
      traced = runStep(in, ref, checkpointPath, &log, false);
      check(in, ref, traced, true);
      tracedP50.push_back(percentile(traced.latencyMs, 0.5));
    } while (1e-9 * static_cast<double>(monotonicNanos() - begin) <
             opt.seconds);
    const CorePass core = runCorePass(in.plans, hierarchy, reopen(in), ref,
                                      &log);
    checks.expect(core.matchesReference,
                  "the single-thread processUnit pass equals the reference");
    LayerReport report = tracedLayers(opt, in.plans, ref, traced.round, core,
                                      log, kWorkers + kIngestThreads);
    report.netFrames = traced.send.writes;
    report.protocolErrors = traced.protocolErrors;
    report.serveEvictions = traced.evictions;
    report.loadgenLagMs = traced.send.lagMs;
    report.offeredRps = static_cast<double>(traced.send.records) /
                        (1e-9 * (traced.send.lastNs - traced.send.firstNs));
    // An open loop's throughput is the offered rate, so tracing cost shows
    // as added latency instead.
    report.overheadShare = median(tracedP50) / median(timedP50) - 1.0;
    std::printf("loadgen (outside the ledger): net.send_s %.4f s over %zu "
                "writes\n",
                report.totals.sendS, report.totals.sends);
    metrics = layerMetrics(report);
  }
  checks.expect(acc.mismatched == 0, "every result equals the sequential "
                                     "TiresiasPipeline::run reference");
  checks.expect(acc.lost == 0 && acc.discarded == 0,
                "every offered unit is processed");
  checks.expect(acc.late == 0, "no unit misses the latency limit at the "
                               "nominal rate");
  return finish(opt, checks.ok(), acc.offered, acc.failed(), metrics,
                checks.failed());
}

}  // namespace perfbench
