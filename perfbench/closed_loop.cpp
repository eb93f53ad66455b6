// Closed-loop engine runs (replay and fleet): every stream's input is
// available when the engine starts, so the engine sets the pace and the
// figures are throughput, unit latency under saturation, and the costs
// of set-up and checkpoints.
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "harness.h"

namespace perfbench {

using tiresias::monotonicNanos;
using tiresias::engine::DetectionEngine;
using tiresias::engine::EngineConfig;


std::optional<Record> MemorySource::next() {
  if (pos_ >= records_.size()) return std::nullopt;
  return records_[pos_++];
}

std::size_t MemorySource::nextBatch(std::vector<Record>& out,
                                    std::size_t max) {
  out.clear();
  const std::size_t end = std::min(records_.size(), pos_ + max);
  std::size_t n = 0;
  if (pos_ < end) {
    const TimeUnit unit = records_[pos_].time / delta_;
    while (pos_ + n < end && records_[pos_ + n].time / delta_ == unit) ++n;
  }
  out.insert(out.end(), records_.begin() + static_cast<std::ptrdiff_t>(pos_),
             records_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return n;
}

Round runClosedLoop(const ClosedLoop& loop,
                    const std::vector<StreamPlan>& plans, SpanLog* log,
                    bool setupOnly) {
  Round round;
  round.tracks.resize(plans.size());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    round.tracks[s].reset(plans[s].unitSlots());
  }
  if (log != nullptr) {
    Span run;
    run.kind = SpanKind::kRun;
    run.start = monotonicNanos();
    round.runSpan = log->add(run);
  }
  ResultTracker tracker(plans, round.tracks, log, round.runSpan);

  const std::int64_t setup0 = monotonicNanos();
  std::shared_ptr<const Hierarchy> hierarchy;
  timed(log, SpanKind::kHierarchyBuild, round.runSpan,
        [&] { hierarchy = loop.buildHierarchy(); });
  round.hierarchyS = 1e-9 * static_cast<double>(monotonicNanos() - setup0);
  EngineConfig cfg;
  cfg.workers = loop.workers;
  cfg.ingestThreads = loop.ingestThreads;
  cfg.maxResidentStreams = loop.maxResident;
  std::unique_ptr<DetectionEngine> engine;
  timed(log, SpanKind::kEngineConstruct, round.runSpan, [&] {
    engine = std::make_unique<DetectionEngine>(cfg, tracker.sink());
  });
  for (std::size_t s = 0; s < plans.size(); ++s) {
    auto source = std::make_unique<ClockedSource>(
        loop.open(s, *hierarchy), plans[s], round.tracks[s],
        static_cast<std::uint32_t>(s), log, round.runSpan);
    const std::int64_t t0 = monotonicNanos();
    engine->addStream(plans[s].name, hierarchy, plans[s].config,
                      std::move(source));
    const std::int64_t t1 = monotonicNanos();
    round.addStreamS += 1e-9 * static_cast<double>(t1 - t0);
  }
  timed(log, SpanKind::kEngineStart, round.runSpan, [&] { engine->start(); });
  round.setupS = 1e-9 * static_cast<double>(monotonicNanos() - setup0);
  if (setupOnly) {
    engine->stop();
    return round;
  }

  std::atomic<bool> done{false};
  const auto checkpointNow = [&] {
    const std::int64_t t0 = monotonicNanos();
    try {
      timed(log, SpanKind::kCheckpoint, round.runSpan,
            [&] { engine->checkpoint(loop.checkpointPath); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint failed: %s\n", e.what());
      round.checkpointFailed = true;
    }
    round.checkpointS.push_back(1e-9 *
                                static_cast<double>(monotonicNanos() - t0));
  };
  // Checkpoints at fixed shares of progress, so every run snapshots
  // comparable state; queue-lag polling only in traced runs (a stats()
  // call walks every stream).
  std::thread checkpointer([&] {
    for (double share : loop.checkpointAt) {
      const auto target = static_cast<std::size_t>(
          share * static_cast<double>(loop.expectedResults));
      while (!done.load() && tracker.delivered() < target) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (done.load()) return;
      checkpointNow();
    }
  });
  std::thread poller([&] {
    if (log == nullptr) return;
    while (!done.load()) {
      round.maxQueueLag =
          std::max(round.maxQueueLag, engine->stats().queueLagUnits());
      std::this_thread::sleep_for(std::chrono::milliseconds(loop.pollMs));
    }
  });
  timed(log, SpanKind::kDrain, round.runSpan,
        [&] { round.stats = engine->drain(); });
  done.store(true);
  checkpointer.join();
  poller.join();
  round.wallS = round.stats.elapsedSeconds;
  if (loop.checkpointAt.empty()) checkpointNow();
  round.checkpointBytes = engine->stats().checkpoint.lastBytes;
  engine.reset();
  std::remove(loop.checkpointPath.c_str());

  if (log != nullptr) {
    Span run = log->spans()[round.runSpan];
    run.end = monotonicNanos();
    log->set(round.runSpan, run);
    addUnitSpans(*log, round.tracks, round.runSpan);
  }
  return round;
}

RoundSummary summarize(const Round& round, const std::vector<StreamPlan>& plans,
                       const Reference& reference) {
  RoundSummary s;
  s.setupS = round.setupS;
  s.wallS = round.wallS;
  s.records = round.stats.recordsProcessed;
  s.units = round.stats.unitsProcessed;
  s.checkpointS = round.checkpointS;
  s.latencySamples = latencySamplesMs(plans, reference, round.tracks).size();
  windowPercentiles(plans, reference, round.tracks, s.p50Ms, s.p99Ms);
  return s;
}

std::vector<Metric> closedLoopMetrics(const std::vector<RoundSummary>& rounds,
                                      double setupS, const Accounting& acc) {
  std::vector<double> rps, ups, p50, p99, ckpt;
  std::size_t samples = 0;
  for (const RoundSummary& r : rounds) {
    rps.push_back(static_cast<double>(r.records) / r.wallS);
    ups.push_back(static_cast<double>(r.units) / r.wallS);
    p50.insert(p50.end(), r.p50Ms.begin(), r.p50Ms.end());
    p99.insert(p99.end(), r.p99Ms.begin(), r.p99Ms.end());
    ckpt.insert(ckpt.end(), r.checkpointS.begin(), r.checkpointS.end());
    samples += r.latencySamples;
  }
  std::printf("closed loop: %zu rounds, %zu latency samples in %zu windows\n",
              rounds.size(), samples, p99.size());
  const double records = median(rps);
  return {
      {"setup_s", setupS, "s"},
      {"records_per_s", records, "records/s"},
      {"units_per_s", median(ups), "units/s"},
      {"latency_p50_ms", median(p50), "ms"},
      {"latency_p99_ms", median(p99), "ms"},
      // A closed loop always runs at the rate the system sustains.
      {"sustained_rps", records, "records/s"},
      {"checkpoint_s", median(ckpt), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"delivered_share",
       acc.offered > 0 ? 1.0 - static_cast<double>(acc.failed()) /
                                   static_cast<double>(acc.offered)
                       : 0.0,
       "ratio"},
  };
}

int runClosedLoopWorkload(const Options& opt, ClosedLoop loop,
                          const std::vector<StreamPlan>& plans,
                          const std::shared_ptr<const Hierarchy>& hierarchy,
                          const SourceFactory& open) {
  const Reference reference = runReference(plans, hierarchy, open);
  for (const auto& stream : reference.hash) {
    for (std::uint64_t h : stream) loop.expectedResults += h != 0 ? 1 : 0;
  }
  Checks checks;
  Accounting acc;
  std::size_t skipped = 0;
  bool checkpointsOk = true;
  const auto check = [&](const Round& round) {
    account(plans, reference, round.tracks, round.stats, acc);
    skipped += round.stats.junkRowsSkipped;
    checkpointsOk &= !round.checkpointFailed;
  };
  std::vector<RoundSummary> timedRounds;
  std::vector<double> tracedRps;
  SpanLog log;
  Round traced;
  const std::int64_t begin = monotonicNanos();
  const auto elapsed = [&] {
    return 1e-9 * static_cast<double>(monotonicNanos() - begin);
  };
  do {
    const Round round = runClosedLoop(loop, plans, nullptr, false);
    check(round);
    timedRounds.push_back(summarize(round, plans, reference));
    if (opt.trace) {
      log.clear();
      traced = runClosedLoop(loop, plans, &log, false);
      check(traced);
      tracedRps.push_back(
          static_cast<double>(traced.stats.recordsProcessed) / traced.wallS);
    }
  } while (elapsed() < opt.seconds);

  checks.expect(acc.mismatched == 0, "every result equals the sequential "
                                     "TiresiasPipeline::run reference");
  checks.expect(acc.lost == 0 && acc.discarded == 0,
                "every offered unit is processed");
  checks.expect(skipped == 0, "no input record is skipped");
  checks.expect(checkpointsOk, "every checkpoint is written");

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // A workload whose round is long still reports set-up as a median.
    std::vector<double> setups;
    for (const RoundSummary& r : timedRounds) setups.push_back(r.setupS);
    while (setups.size() < kMinSetupSamples) {
      setups.push_back(runClosedLoop(loop, plans, nullptr, true).setupS);
    }
    metrics = closedLoopMetrics(timedRounds, median(setups), acc);
  } else {
    const CorePass core = runCorePass(plans, hierarchy, open, reference, &log);
    checks.expect(core.matchesReference,
                  "the single-thread processUnit pass equals the reference");
    LayerReport report =
        tracedLayers(opt, plans, reference, traced, core, log,
                     loop.workers + loop.ingestThreads);
    report.offeredRps = static_cast<double>(traced.stats.recordsProcessed) /
                        traced.wallS;
    std::vector<double> timedRps;
    for (const RoundSummary& r : timedRounds) {
      timedRps.push_back(static_cast<double>(r.records) / r.wallS);
    }
    report.overheadShare = median(timedRps) / median(tracedRps) - 1.0;
    metrics = layerMetrics(report);
  }
  return finish(opt, checks.ok(), acc.offered, acc.failed(), metrics,
                checks.failed());
}

}  // namespace perfbench
