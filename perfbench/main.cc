// dire_perfbench: the DIRE benchmark program. Usually started by
// perfbench/run.py, which builds it and adds the machine fingerprint:
//
//   dire_perfbench --workload {eval-batch,serve-read,serve-write}
//                  --seed N --seconds S --trace {0,1}
//                  --work-dir DIR --cli PATH/dire_cli --digests FILE
//   dire_perfbench --make-digests --work-dir DIR --digests FILE
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

// Every metric name in BENCHMARK.json, so each run reports all of them (a
// per-layer metric of a layer the workload never calls reads 0).
const std::vector<std::pair<std::string, std::string>> kEndToEndMetrics = {
    {"setup_s", "s"},      {"p50_ms", "ms"},      {"p99_ms", "ms"},
    {"side_p50_ms", "ms"}, {"side_p99_ms", "ms"}, {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics = {
    {"parser.parse_ms", "ms"},
    {"core.optimize_ms", "ms"},
    {"core.rewritten", "count"},
    {"core.hoisted", "count"},
    {"eval.evaluate_ms.tc", "ms"},
    {"eval.evaluate_ms.sg", "ms"},
    {"eval.evaluate_ms.multijoin", "ms"},
    {"eval.evaluate_ms.buys", "ms"},
    {"eval.evaluate_ms.hoist", "ms"},
    {"eval.emitted_per_derived.tc", "ratio"},
    {"eval.emitted_per_derived.sg", "ratio"},
    {"eval.emitted_per_derived.multijoin", "ratio"},
    {"eval.emitted_per_derived.buys", "ratio"},
    {"eval.emitted_per_derived.hoist", "ratio"},
    {"eval.rule_exec_share", "ratio"},
    {"eval.firings", "count"},
    {"eval.iterations", "count"},
    {"eval.replans", "count"},
    {"eval.plan_cache_hits", "count"},
    {"storage.load_ms", "ms"},
    {"storage.snapshot_ms", "ms"},
    {"storage.arena_mb", "MB"},
    {"server.query_queue_us.p50", "us"},
    {"server.query_queue_us.p99", "us"},
    {"server.query_exec_us.p50", "us"},
    {"server.query_exec_us.p99", "us"},
    {"server.query_wire_us.p50", "us"},
    {"server.query_est_rows_per_answer", "ratio"},
    {"server.write_queue_us.p50", "us"},
    {"server.write_queue_us.p99", "us"},
    {"server.write_exec_us.p50", "us"},
    {"server.write_exec_us.p99", "us"},
    {"server.checkpoints", "count"},
    {"server.ivm_applied", "count"},
    {"server.ivm_fallbacks", "count"},
    {"server.rejected", "count"},
    {"storage.wal_commit_us.p50", "us"},
    {"storage.wal_commit_us.p99", "us"},
    {"eval.maintain_add_us.p50", "us"},
    {"eval.maintain_retract_us.p50", "us"},
    {"eval.maintain_variants_per_delta", "ratio"},
    {"eval.maintain_rederived_per_overdeleted", "ratio"},
    {"eval.fold_ms", "ms"},
    {"storage.recovery_open_ms", "ms"},
    {"eval.recovery_maintain_ms", "ms"},
    {"client.gen_late_ms", "ms"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.overhead_p99_ms", "ms"},
};

// Pre-fills `report` with every metric of the run's kind at 0.
void DeclareMetrics(bool trace, Report* report) {
  for (const auto& [name, unit] : trace ? kPerLayerMetrics : kEndToEndMetrics) {
    report->Set(name, 0, unit);
  }
}

}  // namespace

void SetLatencyMetrics(const Summary& m, const Summary& s, Report* report) {
  report->Set("p50_ms", m.p50, "ms");
  report->Set("p99_ms", m.tail, "ms");
  report->Set("side_p50_ms", s.p50, "ms");
  report->Set("side_p99_ms", s.tail, "ms");
  report->Note("main op: " + std::to_string(m.n) + " samples, tail is p" +
               std::to_string(m.tail_pct) + "; side op: " +
               std::to_string(s.n) + " samples, tail is p" +
               std::to_string(s.tail_pct));
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dire_perfbench --workload W --seed N --seconds S "
               "--trace {0,1} --work-dir DIR --cli DIRE_CLI --digests FILE\n"
               "       dire_perfbench --make-digests --work-dir DIR "
               "--digests FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Options opts;
  bool make_digests = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--make-digests") {
      make_digests = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--cli") {
      opts.cli = value;
    } else if (flag == "--digests") {
      opts.digests = value;
    } else {
      return Usage();
    }
  }
  if (opts.work_dir.empty() || opts.digests.empty()) return Usage();
  perfbench::RemoveTree(opts.work_dir);
  if (!perfbench::MakeDirs(opts.work_dir)) return 1;
  if (make_digests) return perfbench::MakeDigests(opts);
  if (opts.seconds <= 0) return Usage();

  // Every oracle must reject corrupted input before it is trusted.
  if (!perfbench::SelfCheckEvalOracle(opts) ||
      !perfbench::SelfCheckReachOracle()) {
    return 1;
  }
  perfbench::Report report;
  report.Note("oracle self-checks: corrupted answers and digests rejected");
  perfbench::DeclareMetrics(opts.trace, &report);
  int rc = 0;
  if (opts.workload == "eval-batch") {
    rc = perfbench::RunEvalBatch(opts, &report);
  } else if (opts.workload == "serve-read" ||
             opts.workload == "serve-write") {
    if (opts.cli.empty()) return Usage();
    rc = perfbench::RunServe(opts, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  report.Note("error_frac " +
              std::to_string(report.attempted() == 0
                                 ? 1.0
                                 : static_cast<double>(report.failed()) /
                                       static_cast<double>(report.attempted())));
  report.Print(report.failed() == 0 && report.attempted() > 0);
  return 0;
}
