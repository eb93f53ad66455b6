// replay: 16 ccd-net/medium streams replayed from .tsrb trace files, one
// generator seed per stream, through 3 workers and 1 ingest thread with
// the paper's default forecaster (Holt-Winters derived in Step 3). This
// is the `detect --trace` / catch-up use: binary decode is cheap, so
// detection and worker scaling dominate.
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

#include "harness.h"
#include "stream/binary_source.h"
#include "workload/ccd.h"

namespace perfbench {

namespace {

using tiresias::workload::Scale;
using tiresias::workload::WorkloadSpec;

constexpr std::size_t kStreams = 16;
/// Three weeks of 15-minute units per stream: 288 units of warm-up, the
/// rest detection.
constexpr TimeUnit kUnits = 3 * 7 * 96;

/// The `detect --trace` configuration: derived Holt-Winters (no factory),
/// day and week candidate periods, a three-day window.
PipelineConfig detectConfig(const WorkloadSpec& spec) {
  PipelineConfig cfg;
  cfg.delta = spec.unit;
  cfg.detector.theta = 8.0;
  cfg.detector.windowLength = 288;
  cfg.detector.ratioThreshold = 2.8;
  cfg.detector.diffThreshold = 8.0;
  cfg.candidatePeriods = {static_cast<std::size_t>(tiresias::kDay / spec.unit),
                          static_cast<std::size_t>(tiresias::kWeek / spec.unit)};
  return cfg;
}

std::shared_ptr<const Hierarchy> buildHierarchy() {
  return tiresias::workload::sharedHierarchy(std::make_shared<const WorkloadSpec>(
      tiresias::workload::ccdNetworkWorkload(Scale::kMedium)));
}

/// Generates one stream, indexes it into `plan` (with the detect
/// configuration) and writes it as `<base>.tsrb`; returns that path.
std::string writeTrace(const WorkloadSpec& spec, std::uint64_t seed,
                       const std::string& base, StreamPlan& plan) {
  tiresias::workload::GeneratorSource gen(spec, 0, kUnits, seed);
  std::vector<Record> records, chunk;
  while (gen.nextBatch(chunk, 65536) > 0) {
    records.insert(records.end(), chunk.begin(), chunk.end());
  }
  plan.config = detectConfig(spec);
  indexUnits(plan, records);
  tiresias::writeRecordsCsv(base + ".csv", spec.hierarchy, records);
  tiresias::convertCsvTraceToBinary(base + ".csv", base + ".tsrb");
  std::remove((base + ".csv").c_str());
  return base + ".tsrb";
}

}  // namespace

int runReplay(const Options& opt) {
  const auto spec = std::make_shared<const WorkloadSpec>(
      tiresias::workload::ccdNetworkWorkload(Scale::kMedium));
  std::vector<StreamPlan> plans(kStreams);
  std::vector<std::string> traces(kStreams);
  // Trace files are written before anything is timed; four writer threads
  // keep that preparation short.
  std::vector<std::thread> writers;
  std::atomic<bool> writeFailed{false};
  for (std::size_t w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      try {
        for (std::size_t s = w; s < kStreams; s += 4) {
          plans[s].name = "replay-" + std::to_string(s);
          traces[s] = writeTrace(*spec, opt.seed * 1000 + s + 1,
                                 opt.outDir + "/" + plans[s].name, plans[s]);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "replay: cannot write traces: %s\n", e.what());
        writeFailed = true;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  if (writeFailed) return 1;

  ClosedLoop loop;
  loop.workers = 3;
  loop.ingestThreads = 1;
  loop.buildHierarchy = buildHierarchy;
  loop.open = [&](std::size_t s, const Hierarchy& h) {
    return std::make_unique<tiresias::BinarySource>(traces[s], h);
  };
  loop.checkpointPath = opt.outDir + "/replay.ckpt";
  const int rc = runClosedLoopWorkload(
      opt, loop, plans, tiresias::workload::sharedHierarchy(spec),
      [&](std::size_t s) -> std::unique_ptr<RecordSource> {
        return std::make_unique<tiresias::BinarySource>(traces[s],
                                                        spec->hierarchy);
      });
  for (const std::string& t : traces) std::remove(t.c_str());
  return rc;
}

}  // namespace perfbench
