// Shared machinery of the end-to-end benchmark: run options, the
// in-memory span log, the timing source decorator, the result tracker
// that every workload's engine sink goes through, the sequential
// reference and single-threaded core pass, and result printing.
//
// All timing here sits in the benchmark's own files, around calls into
// the library's public API; nothing inside src/ is instrumented.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "stream/source.h"
#include "workload/injector.h"

namespace perfbench {

using tiresias::Anomaly;
using tiresias::Hierarchy;
using tiresias::InstanceResult;
using tiresias::PipelineConfig;
using tiresias::Record;
using tiresias::RecordSource;
using tiresias::TimeUnit;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where result files, span dumps and scratch inputs go.
  std::string outDir = ".";
  std::string gitCommit = "unknown";
  std::string sourceDigest = "unknown";
};

// ---- spans ---------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kRun,              // one traced engine run (root)
  kHierarchyBuild,   // hierarchy construction in set-up
  kEngineConstruct,  // DetectionEngine constructor
  kAddStream,        // one addStream call
  kEngineStart,      // start()
  kFetch,            // one RecordSource::nextBatch on an ingest thread
  kUnit,             // a unit from its closing record to the sink
  kSink,             // the engine's ResultSink call
  kPublish,          // one JsonLineBroadcaster::publish inside the sink
  kCheckpoint,       // one DetectionEngine::checkpoint call
  kSend,             // one TcpConn::writeAll by the load generator
  kDrain,            // drain()
  kCorePass,         // the single-threaded core pass (root)
  kCoreUnit,         // one TiresiasPipeline::processUnit in that pass
};
const char* spanName(SpanKind kind);

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

struct Span {
  std::int64_t start = 0;  // steady-clock ns
  std::int64_t end = 0;
  std::uint32_t parent = kNoSpan;
  std::uint32_t stream = kNoSpan;
  std::int64_t unit = -1;
  std::uint64_t count = 0;  // records fetched, bytes sent, ...
  SpanKind kind = SpanKind::kRun;
  bool idle = false;        // fetch: empty pull on a source that is idle
};

/// Spans of a traced run, kept in memory and written out when it ends.
/// Thread-safe (one mutex: the traced run pays for it, and the benchmark
/// reports what tracing cost as trace.overhead_share).
class SpanLog {
 public:
  std::uint32_t add(const Span& span);
  /// Replaces span `id` (a placeholder reserved with add()).
  void set(std::uint32_t id, const Span& span);
  void setParent(std::uint32_t id, std::uint32_t parent);
  std::vector<Span> spans() const;
  void clear();
  /// Tab-separated dump: id, name, start/end ns relative to the first
  /// span, parent, stream, unit, count.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` into a span when `log` is set; returns the span id.
template <class Fn>
std::uint32_t timed(SpanLog* log, SpanKind kind, std::uint32_t parent,
                    Fn&& fn, std::uint32_t stream = kNoSpan);

// ---- inputs and tracking --------------------------------------------------

/// One stream's generated inputs and the facts the checks need about them.
struct StreamPlan {
  std::string name;
  PipelineConfig config;
  TimeUnit firstUnit = 0;
  /// closeAt[i] = records in units firstUnit..firstUnit+i; the record at
  /// that index is the one that closes unit firstUnit+i (== records: the
  /// unit is closed by the end of the stream, not by a record).
  std::vector<std::size_t> closeAt;
  std::size_t records = 0;
  /// Injected spikes (live workload), for the recall check.
  std::vector<tiresias::workload::SpikeSpec> spikes;

  std::size_t unitSlots() const { return closeAt.size(); }
};

/// Fills plan.firstUnit/closeAt/records from a stream's record sequence.
void indexUnits(StreamPlan& plan, const std::vector<Record>& records);

/// Per-stream observations of one engine run.
struct StreamTrack {
  std::vector<std::uint64_t> hash;    // result digest per unit (0 = none)
  std::vector<std::int64_t> recvNs;   // sink entry per unit
  std::vector<std::int64_t> closeNs;  // latency origin per unit
  std::vector<std::uint32_t> sinkSpan;
  void reset(std::size_t units);
};

/// Digest of one InstanceResult (unit, SHHH set, anomalies); never 0.
std::uint64_t resultHash(const InstanceResult& result);

/// RecordSource decorator. Stamps, per unit, the moment the record that
/// closes it was handed to the engine (one clock read per pull), and in a
/// traced run records a span per pull.
class ClockedSource final : public RecordSource {
 public:
  ClockedSource(std::unique_ptr<RecordSource> inner, const StreamPlan& plan,
                StreamTrack& track, std::uint32_t stream, SpanLog* log,
                std::uint32_t parent);
  std::optional<Record> next() override;
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;
  std::size_t skippedRecords() const override {
    return inner_->skippedRecords();
  }
  bool idle() const override { return inner_->idle(); }
  void noteResumePoint(tiresias::Timestamp time) override {
    inner_->noteResumePoint(time);
  }

 private:
  void advance(std::size_t n, std::int64_t now);

  std::unique_ptr<RecordSource> inner_;
  const StreamPlan& plan_;
  StreamTrack& track_;
  std::uint32_t stream_;
  SpanLog* log_;
  std::uint32_t parent_;
  std::size_t consumed_ = 0;
  std::size_t nextClose_ = 0;
};

/// Every workload's engine sink runs through this: stamps the receive
/// time, digests the result, runs the workload's own sink work, and in a
/// traced run logs the sink span.
class ResultTracker {
 public:
  /// Workload sink work: stream name, result, and the sink span id (for
  /// nested spans; kNoSpan when untraced).
  using Extra = std::function<void(const std::string&, const InstanceResult&,
                                   std::uint32_t)>;
  ResultTracker(const std::vector<StreamPlan>& plans,
                std::vector<StreamTrack>& tracks, SpanLog* log,
                std::uint32_t parent, Extra extra = {});
  tiresias::engine::DetectionEngine::ResultSink sink();
  std::size_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  void onResult(const std::string& name, const InstanceResult& result);

  const std::vector<StreamPlan>& plans_;
  std::vector<StreamTrack>& tracks_;
  SpanLog* log_;
  std::uint32_t parent_;
  Extra extra_;
  std::unordered_map<std::string, std::size_t> ids_;
  std::atomic<std::size_t> delivered_{0};
};

/// Adds a kUnit span (closing record to sink exit) per delivered result
/// and re-parents each sink span under it. Call after the run.
void addUnitSpans(SpanLog& log, const std::vector<StreamTrack>& tracks,
                  std::uint32_t parent);

// ---- reference and core pass ---------------------------------------------

using SourceFactory =
    std::function<std::unique_ptr<RecordSource>(std::size_t stream)>;

struct Reference {
  std::vector<std::vector<std::uint64_t>> hash;  // [stream][unit slot]
  std::vector<std::size_t> units;                // units processed
  std::vector<std::vector<Anomaly>> anomalies;   // [stream]
};

/// Sequential TiresiasPipeline::run over every stream's inputs.
Reference runReference(const std::vector<StreamPlan>& plans,
                       const std::shared_ptr<const Hierarchy>& hierarchy,
                       const SourceFactory& open);

/// Single-threaded pass feeding the identical batches through
/// TiresiasPipeline::processUnit, timing each unit; also the
/// single-thread baseline.
struct CorePass {
  std::vector<std::vector<std::int64_t>> unitNs;  // [stream][unit slot]
  std::vector<double> resultUnitUs;  // units that produced a result
  double busyS = 0, updateS = 0, createS = 0, judgeS = 0;
  double shhhSum = 0;
  std::size_t instances = 0, anomalies = 0;
  bool matchesReference = true;
};
CorePass runCorePass(const std::vector<StreamPlan>& plans,
                     const std::shared_ptr<const Hierarchy>& hierarchy,
                     const SourceFactory& open, const Reference& reference,
                     SpanLog* log);

// ---- checks and failure accounting ---------------------------------------

struct Accounting {
  std::size_t offered = 0;     // units offered (reference unit counts)
  std::size_t mismatched = 0;  // result differs from the reference
  std::size_t lost = 0;        // never processed, not discarded
  std::size_t discarded = 0;
  std::size_t late = 0;        // over the latency limit (live)
  std::size_t failed() const { return mismatched + lost + discarded + late; }
};
/// Compares one engine run's tracks and per-stream counters with the
/// reference and adds its units to `acc`.
void account(const std::vector<StreamPlan>& plans, const Reference& reference,
             const std::vector<StreamTrack>& tracks,
             const tiresias::engine::EngineStats& stats, Accounting& acc);

/// Latency samples (ms) of units that have a result and a closing record:
/// recvNs - closeNs.
std::vector<double> latencySamplesMs(const std::vector<StreamPlan>& plans,
                                     const Reference& reference,
                                     const std::vector<StreamTrack>& tracks);

/// Latency percentiles are taken per window of this many consecutive
/// units (ordered by latency origin) and reported as the median over the
/// windows, so a descheduled stretch of a shared machine moves the windows
/// it hits instead of a whole run's figure; 1000 samples leave 10 beyond
/// p99.
inline constexpr std::size_t kWindowSamples = 1000;

/// Appends the p50 and p99 of each window of the run's latency samples
/// (a short tail is folded into the last window; fewer samples than one
/// window make one window).
void windowPercentiles(const std::vector<StreamPlan>& plans,
                       const Reference& reference,
                       const std::vector<StreamTrack>& tracks,
                       std::vector<double>& p50, std::vector<double>& p99);

/// How many of `spikes` some anomaly reports: one on the spike node's root
/// path (either direction) while the spike is active.
std::size_t spikesFound(const Hierarchy& hierarchy,
                        const std::vector<tiresias::workload::SpikeSpec>& spikes,
                        const std::vector<Anomaly>& anomalies);

// ---- ledger, metrics and output --------------------------------------------

/// Span-derived per-layer figures of one traced engine run.
struct LayerTotals {
  double fetchS = 0, sinkS = 0, publishS = 0, sendS = 0;
  std::size_t fetchCalls = 0, fetchRecords = 0, idlePulls = 0;
  std::size_t sendBytes = 0, sends = 0;
  std::vector<double> sinkUs, publishUs;
};
LayerTotals layerTotals(const std::vector<Span>& spans);

/// Per-unit waits of an engine run: close-to-emit minus the core time the
/// single-thread pass measured for that unit.
std::vector<double> unitWaitMs(const std::vector<StreamPlan>& plans,
                               const Reference& reference,
                               const std::vector<StreamTrack>& tracks,
                               const CorePass& core);

struct LedgerRow {
  std::string name;
  double seconds = 0;
};
/// Prints wall x threads split into `rows` plus the unattributed
/// remainder; returns the remainder.
double printLedger(double wallS, std::size_t threads,
                   const std::vector<LedgerRow>& rows);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Peak resident set of this process, MB.
double peakRssMb();

/// Run context line (machine, build, commit, seed).
std::string contextJson(const Options& opt);
/// Prints the metric table, writes the result file and prints the final
/// JSON line. Returns the process exit code (0 iff correct).
int finish(const Options& opt, bool correct, std::size_t attempted,
           std::size_t failed, const std::vector<Metric>& metrics,
           const std::vector<std::string>& failedChecks);

/// Records a named check; false results are collected for the report.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failed_.empty(); }
  const std::vector<std::string>& failed() const { return failed_; }

 private:
  std::vector<std::string> failed_;
};

// ---- engine runs ---------------------------------------------------------------

/// Benchmark-side replay of pre-generated records (the load generator's
/// output), shared without copying between the engine and the reference.
/// A pull yields at most one timeunit, the way a feed delivers records as
/// they happen, so a unit's closing record reaches the engine when the
/// ingest gets to that stream, not all at once with the first pull.
class MemorySource final : public RecordSource {
 public:
  MemorySource(const std::vector<Record>& records, tiresias::Duration delta)
      : records_(records), delta_(delta) {}
  std::optional<Record> next() override;
  std::size_t nextBatch(std::vector<Record>& out, std::size_t max) override;

 private:
  const std::vector<Record>& records_;
  tiresias::Duration delta_;
  std::size_t pos_ = 0;
};

/// What one engine run (set-up, run, drain) observed.
struct Round {
  double setupS = 0;       // hierarchy + engine + addStream + start
  double hierarchyS = 0;
  double addStreamS = 0;
  double wallS = 0;        // start() until drain() returns
  tiresias::engine::EngineStats stats;
  std::vector<StreamTrack> tracks;
  std::vector<double> checkpointS;
  std::size_t checkpointBytes = 0;
  bool checkpointFailed = false;
  std::size_t maxQueueLag = 0;  // polled; traced runs and live only
  std::uint32_t runSpan = kNoSpan;
};

/// A closed-loop workload: every stream's input is available up front.
struct ClosedLoop {
  std::size_t workers = 3;
  std::size_t ingestThreads = 1;
  std::size_t maxResident = 0;
  /// Timed as hierarchy.build inside set-up.
  std::function<std::shared_ptr<const Hierarchy>()> buildHierarchy;
  /// Opens a stream's source inside set-up (after the hierarchy build).
  std::function<std::unique_ptr<RecordSource>(std::size_t stream,
                                              const Hierarchy&)>
      open;
  /// Checkpoints during the run, when this share of the expected results
  /// has been delivered; empty = one checkpoint after drain().
  std::vector<double> checkpointAt;
  /// Results the reference produced (set by runClosedLoopWorkload).
  std::size_t expectedResults = 0;
  std::string checkpointPath;
  /// Queue-lag poll period in traced runs (stats() walks every stream).
  int pollMs = 10;
};
/// Set-up is timed at least this many times per run (extra set-up-only
/// engines when fewer runs fit), and setup_s is the median.
inline constexpr std::size_t kMinSetupSamples = 15;

/// One set-up, run and drain; `setupOnly` stops right after start()
/// (set-up timing samples).
Round runClosedLoop(const ClosedLoop& loop, const std::vector<StreamPlan>& plans,
                    SpanLog* log, bool setupOnly);

/// The figures of one timed round that the end-to-end metrics use.
struct RoundSummary {
  double setupS = 0, wallS = 0;
  std::size_t records = 0, units = 0;
  std::vector<double> p50Ms, p99Ms;  // per latency window
  std::size_t latencySamples = 0;
  std::vector<double> checkpointS;
};
RoundSummary summarize(const Round& round, const std::vector<StreamPlan>& plans,
                       const Reference& reference);

/// End-to-end metrics of closed-loop timed rounds (medians over rounds).
std::vector<Metric> closedLoopMetrics(const std::vector<RoundSummary>& rounds,
                                      double setupS, const Accounting& acc);

/// Every per-layer metric, zero where a workload has no such layer.
struct LayerReport {
  CorePass core;
  LayerTotals totals;
  double addStreamS = 0, hierarchyS = 0;
  std::vector<double> unitWaitMs;
  std::size_t queueLagMax = 0, backpressureWaits = 0, claims = 0,
              requeues = 0, unitsProcessed = 0, skipped = 0;
  double unattributedS = 0;
  std::size_t netFrames = 0, protocolErrors = 0, serveEvictions = 0;
  std::size_t checkpointBytes = 0, evictions = 0, wakes = 0;
  std::vector<double> loadgenLagMs;
  double offeredRps = 0;
  double overheadShare = 0;
};
std::vector<Metric> layerMetrics(const LayerReport& r);

/// Traced-run bookkeeping shared by every workload: fills the per-layer
/// report of `traced` against the core pass, prints the ledger over
/// `threads` engine threads, and writes the span dump.
LayerReport tracedLayers(const Options& opt,
                         const std::vector<StreamPlan>& plans,
                         const Reference& reference, const Round& traced,
                         const CorePass& core, SpanLog& log,
                         std::size_t threads);

/// Runs a closed-loop workload end to end (timed rounds for
/// opt.seconds, or alternating timed/traced rounds plus the core pass)
/// and prints the result. `open` reopens a stream's input for the
/// reference and core passes.
int runClosedLoopWorkload(const Options& opt, ClosedLoop loop,
                          const std::vector<StreamPlan>& plans,
                          const std::shared_ptr<const Hierarchy>& hierarchy,
                          const SourceFactory& open);

// ---- workloads ---------------------------------------------------------------

int runReplay(const Options& opt);
int runLive(const Options& opt);
int runFleet(const Options& opt);

// ---- template definitions ----------------------------------------------------

template <class Fn>
std::uint32_t timed(SpanLog* log, SpanKind kind, std::uint32_t parent,
                    Fn&& fn, std::uint32_t stream) {
  if (log == nullptr) {
    fn();
    return kNoSpan;
  }
  Span span;
  span.kind = kind;
  span.parent = parent;
  span.stream = stream;
  span.start = tiresias::monotonicNanos();
  fn();
  span.end = tiresias::monotonicNanos();
  return log->add(span);
}

}  // namespace perfbench
