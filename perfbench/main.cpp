// perfbench: the repository's end-to-end benchmark. Normally started by
// perfbench/run.py, which builds it first:
//
//   perfbench --workload replay|live|fleet --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]
//
// Prints a run-context line, the metric table (and, with --trace 1, the
// per-layer ledger), then one JSON result object as the last line. Exits
// non-zero when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "net/tcp.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay|live|fleet --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-commit SHA] "
               "[--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0)) {
        return usage();
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.outDir = value;
    } else if (key == "--git-commit") {
      opt.gitCommit = value;
    } else if (key == "--source-digest") {
      opt.sourceDigest = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();
  tiresias::net::ignoreSigpipe();
  std::printf("{\"context\": %s}\n", perfbench::contextJson(opt).c_str());
  if (opt.workload == "replay") return perfbench::runReplay(opt);
  if (opt.workload == "live") return perfbench::runLive(opt);
  if (opt.workload == "fleet") return perfbench::runFleet(opt);
  return usage();
}
