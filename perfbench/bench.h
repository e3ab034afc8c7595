// The benchmark's workloads. Each one fills a Report with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run); see
// perfbench/README.md for what every metric means on every workload.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch space for data directories, logs and trace files.
  std::string work_dir;
  // The dire_cli binary the serve workloads launch.
  std::string cli;
  // Committed reference digests of the eval-batch suite.
  std::string digests;
};

// Sets the shared end-to-end latency metrics from the summaries of the
// workload's headline operation (`main`) and its secondary one (`side`).
void SetLatencyMetrics(const Summary& main, const Summary& side,
                       Report* report);

int RunEvalBatch(const Options& opts, Report* report);
int RunServe(const Options& opts, Report* report);

// Regenerates the committed eval-batch reference digests (naive mode,
// greedy planner, one thread, unoptimized programs).
int MakeDigests(const Options& opts);

// The oracles' self-checks: each must reject a deliberately corrupted
// input. Returns false (after printing why) if any accepts it.
bool SelfCheckEvalOracle(const Options& opts);
bool SelfCheckReachOracle();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
