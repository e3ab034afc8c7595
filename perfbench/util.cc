#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SeedRng::Uniform(uint64_t bound) {
  // Rejection sampling: no modulo bias, identical on every platform.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % bound;
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double Percentile(std::vector<double>* v, double pct) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = Percentile(&v, 50);
  // Highest integer percentile <= 99 leaving at least ten samples above
  // its rank; below 20 samples no tail qualifies and the median stands in.
  int pct = 50;
  for (int p = 99; p > 50; --p) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (v.size() >= rank + 10) {
      pct = p;
      break;
    }
  }
  s.tail_pct = pct;
  s.tail = Percentile(&v, pct);
  return s;
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

Summary WindowedSummary(const std::vector<TimedSample>& samples,
                        int64_t start_ns, int64_t end_ns, int windows,
                        double* rate) {
  windows = std::max(windows, 1);
  const double width = static_cast<double>(end_ns - start_ns) / windows;
  std::vector<std::vector<double>> per(static_cast<size_t>(windows));
  for (const TimedSample& s : samples) {
    int w = static_cast<int>(static_cast<double>(s.at_ns - start_ns) / width);
    per[static_cast<size_t>(std::clamp(w, 0, windows - 1))].push_back(s.ms);
  }
  Summary out;
  out.n = samples.size();
  out.tail_pct = 99;
  std::vector<double> p50s, tails, rates;
  for (const std::vector<double>& v : per) {
    if (v.empty()) continue;
    Summary s = Summarize(v);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    rates.push_back(static_cast<double>(v.size()) / (width / 1e9));
    out.tail_pct = std::min(out.tail_pct, s.tail_pct);
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  if (rate != nullptr) *rate = Median(rates);
  return out;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = {value, unit};
}

void Report::Note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(line);
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order_) {
    const auto& [value, unit] = metrics_.at(name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

void Report::Print(bool correct) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const std::string& f : failures_) {
    std::printf("failure: %s\n", f.c_str());
  }
  for (const std::string& name : order_) {
    const auto& [value, unit] = metrics_.at(name);
    std::printf("metric %-44s %14.6g %s\n", name.c_str(), value,
                unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), MetricsJson().c_str());
  std::fflush(stdout);
}

int Tracer::Begin(const std::string& name, int parent, uint64_t request) {
  if (!enabled_) return -1;
  return Add(name, NowNs(), 0, parent, request);
}

void Tracer::End(int index) {
  if (index < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<Span> all = spans();
  std::vector<int64_t> child_ns(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> all = spans();
  int64_t base = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) base = std::min(base, s.start_ns);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i != 0) out << ",\n";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\",\"ts\":"
        << buf << ",\"pid\":1,\"tid\":" << s.request
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "]}\n";
  return WriteFile(path, out.str());
}

double PeakRssMb(pid_t pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool CopyFlatDir(const std::string& from, const std::string& to) {
  RemoveTree(to);
  if (!MakeDirs(to)) return false;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(from, ec)) {
    if (!entry.is_regular_file()) continue;
    std::filesystem::copy_file(entry.path(), to + "/" +
                                   entry.path().filename().string(),
                               ec);
    if (ec) return false;
  }
  return !ec;
}

}  // namespace perfbench
