// Shared plumbing for the DIRE benchmark program: clocks, seeded inputs,
// latency summaries, the in-memory span recorder, result reporting, and a
// few file helpers. Everything here belongs to the benchmark, not the
// engine; the engine is only reached through its public headers.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

int64_t NowNs();
double NsToMs(int64_t ns);

// SplitMix64: the benchmark's own input generator, so inputs for a seed
// never change when the engine's RNG does.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound);

 private:
  uint64_t state_;
};

uint64_t Fnv1a64(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL);
std::string Hex64(uint64_t v);

// A latency sample set summarized the way every timing in the report is:
// the median, and the highest percentile (at most the 99th) that has at
// least ten samples beyond it, with the sample count.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  int tail_pct = 50;  // Which percentile `tail` is.
};
// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
double Percentile(std::vector<double>* v, double pct);
Summary Summarize(std::vector<double> v);
double Median(std::vector<double> v);

// A timed sample: when the operation started (or was due) and its latency.
struct TimedSample {
  int64_t at_ns = 0;
  double ms = 0;
};
// Splits [start_ns, end_ns) into `windows` equal windows and summarizes
// each; returns the medians across windows of the per-window p50 and tail
// (tail_pct is the lowest per-window tail percentile, n the total count).
// Robust to a transient stall hitting one window. `rate` (optional) gets
// the median per-window throughput in samples per second.
Summary WindowedSummary(const std::vector<TimedSample>& samples,
                        int64_t start_ns, int64_t end_ns, int windows,
                        double* rate = nullptr);

// One benchmark run's output: named metrics with units, plus the
// correctness tally. Metrics print in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // A human-readable line printed before the final JSON.
  void Note(const std::string& line);
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  // Records one failed operation; `why` is kept (first few) for the log.
  void Fail(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // Prints notes, then "metric name value unit" lines, then the final JSON
  // object. `correct` is false when any oracle rejected an output.
  void Print(bool correct) const;

 private:
  std::string MetricsJson() const;

  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  mutable std::mutex mu_;
};

// In-memory span recorder for the traced run. Each span carries its name
// ("<layer>.<call>"), start and end, the index of its parent span (or -1),
// and a request id shared by the spans of one request. Spans are recorded
// only when the tracer is enabled; the untraced run pays one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  // Opens a span and returns its index (-1 when disabled).
  int Begin(const std::string& name, int parent, uint64_t request);
  void End(int index);
  // Adds an already-measured span (e.g. a client round trip).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, uint64_t request);
  std::vector<Span> spans() const;
  // Self time per layer (the part of "<layer>.*" spans not covered by
  // child spans), in ms, summed over all spans.
  std::map<std::string, double> SelfMsByLayer() const;
  // Writes the spans as Chrome trace_event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span on a tracer; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), index_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// Peak resident set (VmHWM) of `pid` (0 = this process), in MB; 0 if
// unreadable.
double PeakRssMb(pid_t pid = 0);

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& data);
// Creates `dir` and its parents.
bool MakeDirs(const std::string& dir);
void RemoveTree(const std::string& path);
// Copies the regular files directly inside `from` into a fresh `to`.
bool CopyFlatDir(const std::string& from, const std::string& to);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
