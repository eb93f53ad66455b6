// fleet: about 20k thin generated streams sharing one hierarchy, each long
// enough to leave warm-up, under a resident cap far below the fleet size
// (in-memory hibernation), with checkpoints at fixed shares of progress;
// 3 workers and 1 ingest thread. Per-unit fixed costs dominate here —
// claims, workspace attach, hibernate/wake, checkpoint quiesce — while
// detection is light.
#include "harness.h"
#include "timeseries/ewma.h"
#include "workload/ccd.h"

namespace perfbench {

namespace {

using tiresias::workload::Scale;
using tiresias::workload::WorkloadSpec;

constexpr std::size_t kStreams = 20000;
constexpr std::size_t kMaxResident = 512;
constexpr std::size_t kWindow = 8;
/// Thin traffic (a few records per unit) with a threshold low enough that
/// the SHHH set is not empty.
constexpr double kTheta = 4.0;
/// Daytime units (10:00 onwards), so thin streams still carry records;
/// 16 units = 8 of warm-up plus 8 of detection.
constexpr TimeUnit kFirstUnit = 40;
constexpr TimeUnit kUnits = 16;

WorkloadSpec thinSpec() {
  WorkloadSpec spec = tiresias::workload::ccdNetworkWorkload(Scale::kTest);
  spec.baseRatePerUnit = 12;
  return spec;
}

}  // namespace

int runFleet(const Options& opt) {
  const auto spec = std::make_shared<const WorkloadSpec>(thinSpec());
  std::vector<StreamPlan> plans(kStreams);
  std::vector<std::vector<Record>> inputs(kStreams);
  const auto forecaster = std::make_shared<tiresias::EwmaFactory>(0.5);
  for (std::size_t s = 0; s < kStreams; ++s) {
    tiresias::workload::GeneratorSource gen(*spec, kFirstUnit,
                                            kFirstUnit + kUnits,
                                            opt.seed * 100000 + s + 1);
    std::vector<Record> chunk;
    while (gen.nextBatch(chunk, 4096) > 0) {
      inputs[s].insert(inputs[s].end(), chunk.begin(), chunk.end());
    }
    StreamPlan& plan = plans[s];
    plan.name = "fleet-" + std::to_string(s);
    plan.config.delta = spec->unit;
    plan.config.startTime = kFirstUnit * spec->unit;
    plan.config.detector.theta = kTheta;
    plan.config.detector.windowLength = kWindow;
    plan.config.detector.forecasterFactory = forecaster;
    indexUnits(plan, inputs[s]);
  }

  ClosedLoop loop;
  loop.workers = 3;
  loop.ingestThreads = 1;
  loop.maxResident = kMaxResident;
  loop.buildHierarchy = [] {
    return tiresias::workload::sharedHierarchy(
        std::make_shared<const WorkloadSpec>(thinSpec()));
  };
  loop.open = [&](std::size_t s, const Hierarchy&) {
    return std::make_unique<MemorySource>(inputs[s], spec->unit);
  };
  loop.checkpointAt = {0.25, 0.5, 0.75};
  loop.checkpointPath = opt.outDir + "/fleet.ckpt";
  loop.pollMs = 100;
  return runClosedLoopWorkload(
      opt, loop, plans, tiresias::workload::sharedHierarchy(spec),
      [&](std::size_t s) -> std::unique_ptr<RecordSource> {
        return std::make_unique<MemorySource>(inputs[s], spec->unit);
      });
}

}  // namespace perfbench
