// eval-batch: a closed loop over a fixed suite of from-scratch evaluations,
// the `dire_cli --eval` path. Each program runs ParseProgram ->
// core::OptimizeProgram -> Evaluator::Evaluate (2 threads) -> SaveSnapshot
// over an EDB loaded with LoadSnapshotFile. Every result is checked against
// committed digests of the original program's own predicates, produced by
// naive, greedy, single-threaded evaluation of the unoptimized program
// (`--make-digests`).
//
// The suite's EDBs are fixed (generated from constant seeds), so the
// committed digests hold for every run; the workload seed picks the order
// in which each pass runs the programs.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/plan_program.h"
#include "eval/evaluator.h"
#include "parser/parser.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace perfbench {
namespace {

struct Program {
  const char* name;
  const char* text;
  void (*make_edb)(dire::storage::Database*);
};

std::string Node(const char* prefix, uint64_t i) {
  return std::string(prefix) + std::to_string(i);
}

void AddOrDie(dire::storage::Database* db, const std::string& rel,
              const std::vector<std::string>& row) {
  if (!db->AddRow(rel, row).ok()) {
    std::fprintf(stderr, "perfbench: cannot add %s row\n", rel.c_str());
    std::exit(1);
  }
}

// m distinct random directed edges without self loops over n nodes.
void RandomGraph(dire::storage::Database* db, const std::string& rel, int n,
                 int m, SeedRng* rng) {
  std::set<std::pair<uint64_t, uint64_t>> edges;
  while (static_cast<int>(edges.size()) < m) {
    uint64_t a = rng->Uniform(static_cast<uint64_t>(n));
    uint64_t b = rng->Uniform(static_cast<uint64_t>(n));
    if (a != b) edges.emplace(a, b);
  }
  for (const auto& [a, b] : edges) AddOrDie(db, rel, {Node("n", a), Node("n", b)});
}

// TC/400: dense random graph, m = 8n (dedup-heavy closure).
void MakeTc(dire::storage::Database* db) {
  SeedRng rng(42);
  RandomGraph(db, "e", 400, 3200, &rng);
}

// SameGeneration/200: up, down and flat random graphs with 4n edges each.
void MakeSg(dire::storage::Database* db) {
  SeedRng rng(7);
  RandomGraph(db, "up", 200, 800, &rng);
  RandomGraph(db, "down", 200, 800, &rng);
  RandomGraph(db, "flat", 200, 800, &rng);
}

// MultiJoin/120: three-way join feeding a closure (probe-heavy).
void MakeMultiJoin(dire::storage::Database* db) {
  SeedRng rng(42);
  RandomGraph(db, "e", 120, 960, &rng);
}

// Buys/4000: paper Example 1.2 consumer data; the optimizer replaces the
// data independent recursion with its bounded rewrite (Theorem 2.1).
void MakeBuys(dire::storage::Database* db) {
  SeedRng rng(42);
  const int people = 4000;
  const int products = people / 5 + 1;
  for (int p = 0; p < people; ++p) {
    std::set<uint64_t> liked;
    while (liked.size() < 3) {
      liked.insert(rng.Uniform(static_cast<uint64_t>(products)));
    }
    for (uint64_t item : liked) {
      AddOrDie(db, "likes", {Node("p", p), Node("item", item)});
    }
    if (rng.Uniform(10) == 0) AddOrDie(db, "trendy", {Node("p", p)});
  }
}

// Example 6.1/1024: the optimizer hoists b(W, Y) out of the recursion
// (Theorem 6.1).
void MakeHoist(dire::storage::Database* db) {
  SeedRng rng(7);
  const int n = 1024;
  RandomGraph(db, "e", n, 3 * n, &rng);
  for (int i = 0; i < n / 2 + 1; ++i) {
    AddOrDie(db, "b", {Node("n", rng.Uniform(n)), Node("n", rng.Uniform(n))});
  }
  for (int i = 0; i < n / 10 + 1; ++i) {
    AddOrDie(db, "t0", {Node("n", i), Node("n", (i * 7) % n)});
  }
}

const std::vector<Program>& Suite() {
  static const std::vector<Program> suite = {
      {"tc", "t(X, Y) :- e(X, Z), t(Z, Y).\nt(X, Y) :- e(X, Y).\n", MakeTc},
      {"sg",
       "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).\n",
       MakeSg},
      {"multijoin",
       "p3(X, Y) :- e(X, A), e(A, B), e(B, Y).\nr(X, Y) :- p3(X, Y).\n"
       "r(X, Y) :- p3(X, Z), r(Z, Y).\n",
       MakeMultiJoin},
      {"buys", "buys(X, Y) :- likes(X, Y).\nbuys(X, Y) :- trendy(X), buys(Z, Y).\n",
       MakeBuys},
      {"hoist", "t(X, Y) :- e(X, Z), b(W, Y), t(Z, Y).\nt(X, Y) :- t0(X, Y).\n",
       MakeHoist},
  };
  return suite;
}

std::string EdbPath(const Options& opts, const Program& p) {
  return opts.work_dir + "/edb/" + p.name + ".dire";
}

// Writes every suite EDB as a snapshot file (untimed preparation).
bool PrepareEdbs(const Options& opts) {
  if (!MakeDirs(opts.work_dir + "/edb")) return false;
  for (const Program& p : Suite()) {
    dire::storage::Database db;
    p.make_edb(&db);
    if (!dire::storage::SaveSnapshotFile(db, EdbPath(opts, p)).ok()) {
      return false;
    }
  }
  return true;
}

// Canonical digest of the predicates `program` mentions: each relation's
// rows rendered "pred(a,b)", sorted, hashed in predicate order. Relations
// the optimizer adds (auxiliary predicates) are not part of it.
std::string DigestOriginal(const dire::storage::Database& db,
                           const dire::ast::Program& program) {
  std::set<std::string> preds;
  for (const dire::ast::Rule& r : program.rules) {
    preds.insert(r.head.predicate);
    for (const dire::ast::Atom& a : r.body) preds.insert(a.predicate);
  }
  uint64_t h = Fnv1a64("dire-perfbench-digest-v1\n");
  for (const std::string& pred : preds) {
    std::vector<std::string> lines;
    if (const dire::storage::Relation* rel = db.Find(pred)) {
      for (dire::storage::RowRef row : rel->rows()) {
        std::string line = pred + "(";
        for (size_t i = 0; i < row.size(); ++i) {
          if (i != 0) line += ',';
          line += db.symbols().Name(row[i]);
        }
        lines.push_back(line + ")");
      }
    }
    std::sort(lines.begin(), lines.end());
    h = Fnv1a64(pred + " " + std::to_string(lines.size()) + "\n", h);
    for (const std::string& line : lines) h = Fnv1a64(line + "\n", h);
  }
  return Hex64(h);
}

std::map<std::string, std::string> ReadDigests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::string text;
  if (!ReadFile(path, &text)) return out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (line.empty() || line[0] == '#' || !(fields >> name >> digest)) continue;
    out[name] = digest;
  }
  return out;
}

// Per-program measurements of one traced pass.
struct ProgramTrace {
  double parse_ms = 0;
  double optimize_ms = 0;
  double evaluate_ms = 0;
  double snapshot_ms = 0;
  double exec_ms = 0;  // Sum of RuleStats::exec_ns.
  size_t emitted = 0;
  size_t derived = 0;
  size_t firings = 0;
  size_t iterations = 0;
  size_t replans = 0;
  size_t plan_cache_hits = 0;
  int rewritten = 0;
  int hoisted = 0;
  double arena_mb = 0;
};

struct RunOutcome {
  bool ok = false;
  std::string error;
  std::string digest;
  int64_t timed_ns = 0;
  ProgramTrace trace;
};

// One program end to end. Only parse -> optimize -> evaluate -> serialize
// is timed; the EDB load before and the digest after are not.
RunOutcome RunProgram(const Options& opts, const Program& p, Tracer* tracer,
                      int parent, uint64_t request) {
  RunOutcome out;
  dire::storage::Database db;
  {
    ScopedSpan s(tracer, "storage.LoadSnapshotFile", parent, request);
    if (!dire::storage::LoadSnapshotFile(&db, EdbPath(opts, p)).ok()) {
      out.error = "cannot load EDB";
      return out;
    }
  }
  ScopedSpan program_span(tracer, std::string("bench.program:") + p.name,
                          parent, request);
  const int top = program_span.index();
  ProgramTrace& t = out.trace;
  const int64_t start = NowNs();
  int64_t mark = start;
  auto lap = [&mark]() {
    int64_t now = NowNs();
    double ms = NsToMs(now - mark);
    mark = now;
    return ms;
  };
  dire::Result<dire::ast::Program> parsed = [&] {
    ScopedSpan s(tracer, "parser.ParseProgram", top, request);
    return dire::parser::ParseProgram(p.text);
  }();
  t.parse_ms = lap();
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  dire::Result<dire::core::ProgramPlan> plan = [&] {
    ScopedSpan s(tracer, "core.OptimizeProgram", top, request);
    return dire::core::OptimizeProgram(*parsed);
  }();
  t.optimize_ms = lap();
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  dire::eval::EvalOptions eval_options;
  eval_options.num_threads = 2;
  dire::Result<dire::eval::EvalStats> stats = [&] {
    ScopedSpan s(tracer, "eval.Evaluate", top, request);
    dire::eval::Evaluator evaluator(&db, eval_options);
    return evaluator.Evaluate(plan->optimized);
  }();
  t.evaluate_ms = lap();
  if (!stats.ok()) {
    out.error = stats.status().ToString();
    return out;
  }
  dire::Result<std::string> snapshot = [&] {
    ScopedSpan s(tracer, "storage.SaveSnapshot", top, request);
    return dire::storage::SaveSnapshot(db);
  }();
  t.snapshot_ms = lap();
  out.timed_ns = mark - start;
  if (!snapshot.ok() || snapshot->empty()) {
    out.error = "SaveSnapshot failed";
    return out;
  }
  for (const dire::core::PredicateReport& r : plan->reports) {
    if (r.action == dire::core::PredicateReport::Action::kRewritten) {
      ++t.rewritten;
    }
    if (r.action == dire::core::PredicateReport::Action::kHoisted) {
      ++t.hoisted;
    }
  }
  int64_t exec_ns = 0;
  for (const dire::eval::RuleStats& rs : stats->rule_stats) {
    exec_ns += rs.exec_ns;
  }
  t.exec_ms = NsToMs(exec_ns);
  t.emitted = stats->tuples_emitted;
  t.derived = stats->tuples_derived;
  t.firings = stats->rule_firings;
  t.iterations = static_cast<size_t>(stats->iterations);
  t.replans = stats->replans;
  t.plan_cache_hits = stats->plan_cache_hits;
  t.arena_mb = static_cast<double>(db.ArenaBytes()) / (1024.0 * 1024.0);
  out.digest = DigestOriginal(db, *parsed);
  out.ok = true;
  return out;
}

// Wall times (s) of `reps` rounds of loading every suite EDB.
std::vector<double> TimeLoads(const Options& opts, int reps, bool* ok) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::unique_ptr<dire::storage::Database>> dbs;
    const int64_t start = NowNs();
    for (const Program& p : Suite()) {
      dbs.push_back(std::make_unique<dire::storage::Database>());
      if (!dire::storage::LoadSnapshotFile(dbs.back().get(), EdbPath(opts, p))
               .ok()) {
        *ok = false;
      }
    }
    samples.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return samples;
}

struct PhaseResult {
  std::vector<double> pass_ms;
  std::vector<double> program_ms;
  std::vector<std::map<std::string, ProgramTrace>> traces;  // Per pass.
  int64_t timed_ns = 0;
  uint64_t correct_programs = 0;
};

// Runs suite passes until `seconds` of wall time have elapsed (at least
// three passes).
PhaseResult RunPasses(const Options& opts, double seconds, SeedRng* order_rng,
                      const std::map<std::string, std::string>& digests,
                      Tracer* tracer, uint64_t* next_request,
                      Report* report) {
  PhaseResult out;
  std::vector<size_t> order(Suite().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (out.pass_ms.size() < 3 || NowNs() < deadline) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng->Uniform(i)]);
    }
    const uint64_t request = (*next_request)++;
    ScopedSpan pass_span(tracer, "bench.suite_pass", -1, request);
    int64_t pass_ns = 0;
    std::map<std::string, ProgramTrace> traces;
    for (size_t idx : order) {
      const Program& p = Suite()[idx];
      report->Attempt();
      RunOutcome r = RunProgram(opts, p, tracer, pass_span.index(), request);
      if (!r.ok) {
        report->Fail(std::string(p.name) + ": " + r.error);
        continue;
      }
      auto want = digests.find(p.name);
      if (want == digests.end() || want->second != r.digest) {
        report->Fail(std::string(p.name) + ": digest " + r.digest +
                     " != committed " +
                     (want == digests.end() ? "<none>" : want->second));
        continue;
      }
      ++out.correct_programs;
      pass_ns += r.timed_ns;
      out.program_ms.push_back(NsToMs(r.timed_ns));
      traces[p.name] = r.trace;
    }
    out.pass_ms.push_back(NsToMs(pass_ns));
    out.timed_ns += pass_ns;
    out.traces.push_back(std::move(traces));
  }
  return out;
}

void SetPerLayer(const PhaseResult& traced, const std::vector<double>& loads,
                 Report* report) {
  auto per_pass = [&](auto field) {
    std::vector<double> v;
    for (const auto& pass : traced.traces) {
      double sum = 0;
      for (const auto& [name, t] : pass) sum += field(t);
      v.push_back(sum);
    }
    return Median(v);
  };
  report->Set("parser.parse_ms", per_pass([](const ProgramTrace& t) {
                return t.parse_ms;
              }), "ms");
  report->Set("core.optimize_ms", per_pass([](const ProgramTrace& t) {
                return t.optimize_ms;
              }), "ms");
  report->Set("core.rewritten", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.rewritten);
              }), "count");
  report->Set("core.hoisted", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.hoisted);
              }), "count");
  double exec_ms = 0;
  double eval_ms = 0;
  double arena_mb = 0;
  for (const Program& p : Suite()) {
    std::vector<double> ms;
    std::vector<double> ratio;
    for (const auto& pass : traced.traces) {
      auto it = pass.find(p.name);
      if (it == pass.end()) continue;
      ms.push_back(it->second.evaluate_ms);
      ratio.push_back(it->second.derived == 0
                          ? 0.0
                          : static_cast<double>(it->second.emitted) /
                                static_cast<double>(it->second.derived));
      exec_ms += it->second.exec_ms;
      eval_ms += it->second.evaluate_ms;
      arena_mb = std::max(arena_mb, it->second.arena_mb);
    }
    report->Set(std::string("eval.evaluate_ms.") + p.name, Median(ms), "ms");
    report->Set(std::string("eval.emitted_per_derived.") + p.name,
                Median(ratio), "ratio");
  }
  report->Set("eval.rule_exec_share", eval_ms > 0 ? exec_ms / eval_ms : 0,
              "ratio");
  report->Set("eval.firings", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.firings);
              }), "count");
  report->Set("eval.iterations", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.iterations);
              }), "count");
  report->Set("eval.replans", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.replans);
              }), "count");
  report->Set("eval.plan_cache_hits", per_pass([](const ProgramTrace& t) {
                return static_cast<double>(t.plan_cache_hits);
              }), "count");
  report->Set("storage.load_ms", Median(loads) * 1e3, "ms");
  report->Set("storage.snapshot_ms", per_pass([](const ProgramTrace& t) {
                return t.snapshot_ms;
              }), "ms");
  report->Set("storage.arena_mb", arena_mb, "MB");
}

}  // namespace

int RunEvalBatch(const Options& opts, Report* report) {
  if (!PrepareEdbs(opts)) {
    std::fprintf(stderr, "perfbench: cannot write suite EDBs\n");
    return 1;
  }
  std::map<std::string, std::string> digests = ReadDigests(opts.digests);
  if (digests.size() != Suite().size()) {
    std::fprintf(stderr, "perfbench: missing reference digests in %s\n",
                 opts.digests.c_str());
    return 1;
  }
  Tracer tracer;
  bool loads_ok = true;
  std::vector<double> loads = TimeLoads(opts, 41, &loads_ok);
  if (!loads_ok) report->Fail("LoadSnapshotFile failed during set-up");

  SeedRng order_rng(opts.seed);
  uint64_t next_request = 1;
  report->Note("eval-batch: suite tc/400 sg/200 multijoin/120 buys/4000 "
               "hoist/1024, 2 eval threads, program order shuffled by seed");
  if (!opts.trace) {
    PhaseResult run = RunPasses(opts, opts.seconds, &order_rng, digests,
                                &tracer, &next_request, report);
    report->Set("setup_s", Median(loads), "s");
    SetLatencyMetrics(Summarize(run.pass_ms), Summarize(run.program_ms),
                      report);
    report->Set("ops_per_s",
                run.timed_ns > 0 ? static_cast<double>(run.correct_programs) /
                                       (static_cast<double>(run.timed_ns) / 1e9)
                                 : 0,
                "1/s");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Note("eval_suite_s (median suite pass) = " +
                 std::to_string(Median(run.pass_ms) / 1e3) + " s over " +
                 std::to_string(run.pass_ms.size()) + " passes");
    return 0;
  }

  // Traced run: an untraced half, then a traced half; the difference of
  // their medians is the tracing overhead.
  PhaseResult plain = RunPasses(opts, opts.seconds / 2, &order_rng, digests,
                                &tracer, &next_request, report);
  tracer.set_enabled(true);
  PhaseResult traced = RunPasses(opts, opts.seconds / 2, &order_rng, digests,
                                 &tracer, &next_request, report);
  SetPerLayer(traced, loads, report);
  Summary a = Summarize(plain.pass_ms);
  Summary b = Summarize(traced.pass_ms);
  report->Set("trace.overhead_p50_ms", b.p50 - a.p50, "ms");
  report->Set("trace.overhead_p99_ms", b.tail - a.tail, "ms");
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    report->Note("self time " + layer + ": " +
                 std::to_string(ms / static_cast<double>(traced.pass_ms.size())) +
                 " ms per traced suite pass");
  }
  const std::string trace_path = opts.work_dir + "/trace-eval-batch.json";
  if (tracer.WriteChromeTrace(trace_path)) {
    report->Note("spans written to " + trace_path);
  }
  return 0;
}

int MakeDigests(const Options& opts) {
  if (!PrepareEdbs(opts)) return 1;
  std::string out =
      "# eval-batch reference digests: naive mode, greedy planner, one\n"
      "# thread, unoptimized program. Regenerate with run.py --make-digests.\n";
  for (const Program& p : Suite()) {
    dire::storage::Database db;
    if (!dire::storage::LoadSnapshotFile(&db, EdbPath(opts, p)).ok()) return 1;
    dire::Result<dire::ast::Program> parsed = dire::parser::ParseProgram(p.text);
    if (!parsed.ok()) return 1;
    dire::eval::EvalOptions eo;
    eo.mode = dire::eval::EvalOptions::Mode::kNaive;
    eo.planner = dire::eval::PlannerMode::kGreedy;
    eo.num_threads = 1;
    dire::eval::Evaluator evaluator(&db, eo);
    dire::Result<dire::eval::EvalStats> stats = evaluator.Evaluate(*parsed);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s: %s\n", p.name,
                   stats.status().ToString().c_str());
      return 1;
    }
    out += std::string(p.name) + " " + DigestOriginal(db, *parsed) + "\n";
    std::printf("%s %zu derived\n", p.name, stats->tuples_derived);
  }
  if (!WriteFile(opts.digests, out)) return 1;
  std::printf("wrote %s\n", opts.digests.c_str());
  return 0;
}

bool SelfCheckEvalOracle(const Options& opts) {
  // The oracle is "digest of the original predicates == committed digest".
  // Evaluate one suite program, then require: the clean result passes, a
  // result with one fabricated tuple fails, and the clean result fails
  // against a corrupted committed digest.
  const Program& p = Suite()[1];
  std::map<std::string, std::string> digests = ReadDigests(opts.digests);
  dire::storage::Database db;
  dire::Result<dire::ast::Program> parsed = dire::parser::ParseProgram(p.text);
  if (!PrepareEdbs(opts) || !parsed.ok() ||
      !dire::storage::LoadSnapshotFile(&db, EdbPath(opts, p)).ok() ||
      !dire::eval::Evaluator(&db).Evaluate(*parsed).ok()) {
    std::fprintf(stderr, "perfbench: eval oracle self-check could not run\n");
    return false;
  }
  auto accepts = [](const std::map<std::string, std::string>& want,
                    const std::string& name, const std::string& digest) {
    auto it = want.find(name);
    return it != want.end() && it->second == digest;
  };
  const std::string clean = DigestOriginal(db, *parsed);
  std::map<std::string, std::string> flipped = digests;
  std::string& d = flipped[p.name];
  if (!d.empty()) d[0] = d[0] == '0' ? '1' : '0';
  AddOrDie(&db, "sg", {"n0", "corrupt"});
  const std::string corrupt = DigestOriginal(db, *parsed);
  if (!accepts(digests, p.name, clean) || accepts(digests, p.name, corrupt) ||
      accepts(flipped, p.name, clean)) {
    std::fprintf(stderr,
                 "perfbench: eval oracle self-check failed on %s (clean %s, "
                 "corrupted answer %s, corrupted digest %s)\n",
                 p.name,
                 accepts(digests, p.name, clean) ? "accepted" : "rejected",
                 accepts(digests, p.name, corrupt) ? "accepted" : "rejected",
                 accepts(flipped, p.name, clean) ? "accepted" : "rejected");
    return false;
  }
  return true;
}

}  // namespace perfbench
