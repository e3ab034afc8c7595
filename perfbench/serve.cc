// serve-read and serve-write: a real `dire_cli serve` child process driven
// over loopback TCP by this process, with every answer checked against
// reachability computed here by BFS.
//
// serve-read: TC over a seeded forest of disjoint strongly connected random
//   components (|t| about 2e5, 16..48 rows per answer). Closed loop on two
//   connections, 100% QUERY: 80% t(c, X), 20% t(X, c).
// serve-write: TC over a random graph (n = 200, m = 8n) with the server's
//   default write path (maintenance on, fold every 32 writes, fsync on).
//   Open loop at a fixed offered rate: 75% QUERY t(c, X) on three
//   connections, 25% durable writes in due order on the fourth, effective
//   ADDs and RETRACTs alternating over a seeded pool of edges. Latency
//   counts from each request's due time.
//
// Each server starts from a fresh copy of a data directory prepared here,
// outside timing, with the storage and eval APIs: a completed checkpoint
// (serve-read), or a completed checkpoint plus a WAL tail of writes
// (serve-write), so start-up is recovery.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "eval/checkpoint.h"
#include "eval/evaluator.h"
#include "eval/maintain.h"
#include "parser/parser.h"
#include "storage/persist.h"

namespace perfbench {
namespace {

constexpr char kTcProgram[] =
    "t(X, Y) :- e(X, Z), t(Z, Y).\nt(X, Y) :- e(X, Y).\n";

// serve-write's offered load, fixed so runs on different commits compare.
// Measured on the reference machine (4-core Xeon VM, seed 1): a QUERY
// executes in about 1 ms, an ADD in about 0.5 ms (WAL fsync plus counting
// maintenance), a RETRACT in about 200 ms (DRed over-deletes and rederives
// the whole closure of the dense graph), and a fold every 32 writes in
// about 70 ms, all but QUERY under the exclusive lock. At 60 requests/s
// (45 QUERY, 15 writes, 0.5 RETRACT per second) the server is busy about
// 20% of the time, well under the half-busy ceiling, so queueing stays the
// server's and not the generator's.
constexpr double kOfferedRate = 60;
// Writes cycle through kWriteCycle kinds (see Write).
constexpr int kWriteCycle = 30;
constexpr int kPoolEdges = 64;      // Edges the writes toggle.
constexpr int kWalTailWrites = 30;  // Writes left in the prepared WAL.
constexpr int kReplayWrites = 64;   // Writes replayed in-process (traced).
constexpr int kFoldEvery = 32;      // The server's default fold cadence.

std::string N(int i) { return "n" + std::to_string(i); }

// ---------------------------------------------------------------- graphs --

struct Graph {
  int n = 0;
  std::set<std::pair<int, int>> edges;
};

// Nodes reachable from `src` by a path of length >= 1 (forward), or that
// reach `src` (reverse).
std::vector<int> Reach(const std::vector<std::vector<int>>& adj, int src) {
  std::vector<char> seen(adj.size(), 0);
  std::vector<int> stack(adj[static_cast<size_t>(src)]);
  std::vector<int> out;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(v)]) continue;
    seen[static_cast<size_t>(v)] = 1;
    out.push_back(v);
    for (int w : adj[static_cast<size_t>(v)]) {
      if (!seen[static_cast<size_t>(w)]) stack.push_back(w);
    }
  }
  return out;
}

std::vector<std::vector<int>> Adjacency(int n,
                                        const std::set<std::pair<int, int>>& e,
                                        bool reverse) {
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (const auto& [a, b] : e) {
    if (reverse) {
      adj[static_cast<size_t>(b)].push_back(a);
    } else {
      adj[static_cast<size_t>(a)].push_back(b);
    }
  }
  return adj;
}

// The rows the server must answer, rendered and sorted as it sorts them.
std::vector<std::string> Rows(int key, const std::vector<int>& nodes,
                              bool reverse) {
  std::vector<std::string> rows;
  rows.reserve(nodes.size());
  for (int v : nodes) {
    rows.push_back(reverse ? "t(" + N(v) + ", " + N(key) + ")"
                           : "t(" + N(key) + ", " + N(v) + ")");
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Every t tuple of the graph's transitive closure, sorted.
std::vector<std::string> Closure(const Graph& g) {
  auto adj = Adjacency(g.n, g.edges, false);
  std::vector<std::string> rows;
  for (int a = 0; a < g.n; ++a) {
    std::vector<std::string> r = Rows(a, Reach(adj, a), false);
    rows.insert(rows.end(), r.begin(), r.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Disjoint components of 16..48 nodes, each a random Hamiltonian cycle plus
// 2k random extra edges, until |t| reaches about 2e5.
Graph MakeForest(SeedRng* rng) {
  Graph g;
  size_t closure = 0;
  while (closure < 200000) {
    int k = 16 + static_cast<int>(rng->Uniform(33));
    std::vector<int> perm(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) perm[static_cast<size_t>(i)] = g.n + i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng->Uniform(i)]);
    }
    for (int i = 0; i < k; ++i) {
      g.edges.emplace(perm[static_cast<size_t>(i)],
                      perm[static_cast<size_t>((i + 1) % k)]);
    }
    for (int extra = 0; extra < 2 * k;) {
      int a = g.n + static_cast<int>(rng->Uniform(static_cast<uint64_t>(k)));
      int b = g.n + static_cast<int>(rng->Uniform(static_cast<uint64_t>(k)));
      if (a != b && g.edges.emplace(a, b).second) ++extra;
    }
    g.n += k;
    closure += static_cast<size_t>(k) * static_cast<size_t>(k);
  }
  return g;
}

Graph MakeRandom(int n, int m, SeedRng* rng) {
  Graph g;
  g.n = n;
  while (static_cast<int>(g.edges.size()) < m) {
    int a = static_cast<int>(rng->Uniform(static_cast<uint64_t>(n)));
    int b = static_cast<int>(rng->Uniform(static_cast<uint64_t>(n)));
    if (a != b) g.edges.emplace(a, b);
  }
  return g;
}

// serve-write's write sequence cycles through kWriteCycle writes over a
// seeded pool of edges: ADD an absent pool edge, then ADDs re-asserting
// present pool edges (durable no-ops: WAL commit, no maintenance), then
// RETRACT a present one. Effective adds and retracts alternate, so the base
// set stays at steady state. A retraction costs about 400 times an ADD
// here and holds the exclusive lock long enough to delay the next three
// writes, so each retraction makes about four slow writes. With one in
// kWriteCycle writes, about a sixth of the writes (folds included) are slow:
// the write median lies well inside the commit path, where a larger slow
// share would put it in the commit path's fsync tail and let it swing with
// the disk, and the write tail (the tenth-highest of about 450 writes in a
// 30-second run) lies on the DRed path.
struct Write {
  bool add = false;
  bool noop = false;  // An ADD of a fact already present.
  int a = 0;
  int b = 0;
  std::string Ack() const {
    return add ? (noop ? "OK added=0" : "OK added=1") : "OK removed=1";
  }
  std::string Line() const {
    return std::string(add ? "ADD" : "RETRACT") + " e(" + N(a) + ", " +
           N(b) + ")";
  }
};

struct WriteWorkload {
  Graph base;                              // The prepared checkpoint's edges.
  std::vector<std::pair<int, int>> pool;   // Toggled edges.
  std::vector<Write> writes;               // WAL tail first, then the run.
  Graph after_tail;                        // Edges after the WAL tail.
};

WriteWorkload MakeWriteWorkload(uint64_t seed, size_t run_writes) {
  WriteWorkload w;
  SeedRng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  w.base = MakeRandom(200, 1600, &rng);
  std::vector<std::pair<int, int>> edges(w.base.edges.begin(),
                                         w.base.edges.end());
  std::set<std::pair<int, int>> pool;
  while (static_cast<int>(pool.size()) < kPoolEdges / 2) {
    pool.insert(edges[rng.Uniform(edges.size())]);
  }
  while (static_cast<int>(pool.size()) < kPoolEdges) {
    int a = static_cast<int>(rng.Uniform(200));
    int b = static_cast<int>(rng.Uniform(200));
    if (a != b && w.base.edges.count({a, b}) == 0) pool.emplace(a, b);
  }
  w.pool.assign(pool.begin(), pool.end());
  std::set<std::pair<int, int>> present;
  for (const auto& e : w.pool) {
    if (w.base.edges.count(e) != 0) present.insert(e);
  }
  w.after_tail = w.base;
  std::pair<int, int> added{-1, -1};
  const size_t total = kWalTailWrites + run_writes;
  for (size_t k = 0; k < total; ++k) {
    Write op;
    op.add = k % kWriteCycle != kWriteCycle - 1;
    op.noop = op.add && k % kWriteCycle != 0;
    const bool want_present = !op.add || op.noop;
    // A RETRACT never takes back the cycle's own new edge, so every cycle
    // (the WAL tail is one) nets to one addition and one retraction.
    std::vector<std::pair<int, int>> candidates;
    for (const auto& e : w.pool) {
      if ((present.count(e) != 0) == want_present && (op.add || e != added)) {
        candidates.push_back(e);
      }
    }
    const auto& e = candidates[rng.Uniform(candidates.size())];
    op.a = e.first;
    op.b = e.second;
    if (op.add) {
      present.insert(e);
      if (!op.noop) added = e;
    } else {
      present.erase(e);
    }
    if (k < static_cast<size_t>(kWalTailWrites)) {
      if (op.add) {
        w.after_tail.edges.insert(e);
      } else {
        w.after_tail.edges.erase(e);
      }
    }
    w.writes.push_back(op);
  }
  return w;
}

// ------------------------------------------------------------- data dirs --

// Builds a data directory holding a completed checkpoint of TC over `g`,
// then appends `tail` to its WAL without folding it.
bool PrepareDataDir(const std::string& dir, const Graph& g,
                    const std::vector<Write>& tail) {
  RemoveTree(dir);
  dire::Result<dire::ast::Program> program =
      dire::parser::ParseProgram(kTcProgram);
  auto dd = dire::storage::DataDir::Open(dir);
  if (!program.ok() || !dd.ok()) return false;
  for (const auto& [a, b] : g.edges) {
    if (!(*dd)->db()->AddRow("e", {N(a), N(b)}).ok()) return false;
  }
  dire::eval::DataDirCheckpointer checkpointer(
      dd->get(), dire::eval::ProgramCrc(kTcProgram));
  dire::eval::EvalOptions eo;
  eo.checkpointer = &checkpointer;
  dire::eval::Evaluator evaluator((*dd)->db(), eo);
  if (!evaluator.Evaluate(*program).ok()) return false;
  for (const Write& w : tail) {
    bool removed = false;
    dire::Status s = w.add ? (*dd)->AppendFact("e", {N(w.a), N(w.b)})
                           : (*dd)->RetractFact("e", {N(w.a), N(w.b)},
                                                &removed);
    if (!s.ok()) return false;
  }
  return true;
}

// --------------------------------------------------------------- network --

class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Open(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
    pos_ = 0;
  }

  bool Send(const std::string& line) {
    std::string data = line + "\n";
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Sends one request and reads its whole response: the status line, plus
  // the payload rows through "END" for QUERY (OK/PARTIAL) and STATS.
  bool Call(const std::string& request, std::string* status,
            std::vector<std::string>* body) {
    body->clear();
    if (!Send(request) || !ReadLine(status)) return false;
    const bool multi =
        (request.rfind("QUERY", 0) == 0 &&
         (status->rfind("OK", 0) == 0 || status->rfind("PARTIAL", 0) == 0)) ||
        (request == "STATS" && status->rfind("OK", 0) == 0);
    if (!multi) return true;
    std::string line;
    while (ReadLine(&line)) {
      if (line == "END") return true;
      body->push_back(line);
    }
    return false;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

std::string HttpGet(int port, const std::string& path) {
  Conn c;
  if (!c.Open(port) || !c.Send("GET " + path + " HTTP/1.0\r\n\r")) {
    return "";
  }
  std::string out;
  std::string line;
  while (c.ReadLine(&line)) out += line + "\n";
  return out;
}

// ------------------------------------------------------------ the server --

// One `dire_cli serve` child. The destructor kills and reaps it if it is
// still running, so no run leaves a process behind.
class ServerProc {
 public:
  ServerProc() = default;
  ~ServerProc() { Kill(); }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  // Starts the server over `dir` and waits until HEALTH reports ready=1.
  // Sets ready_s to the time from fork to readiness.
  bool Start(const Options& opts, const std::string& program_path,
             const std::string& dir, bool observe, double* ready_s) {
    const std::string port_file = dir + ".port";
    const std::string http_file = dir + ".http";
    ::unlink(port_file.c_str());
    ::unlink(http_file.c_str());
    std::vector<std::string> args = {opts.cli,     "serve",
                                     program_path, "--data-dir",
                                     dir,          "--port-file",
                                     port_file};
    if (observe) {
      access_log_ = dir + ".access.jsonl";
      ::unlink(access_log_.c_str());
      args.insert(args.end(), {"--access-log", access_log_, "--http-port",
                               "0", "--http-port-file", http_file});
    }
    const std::string log = dir + ".log";
    const int64_t start = NowNs();
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // Die with the bench, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    port_ = WaitPort(port_file);
    if (port_ <= 0) return false;
    if (observe) {
      http_port_ = WaitPort(http_file);
      if (http_port_ <= 0) return false;
    }
    Conn c;
    if (!c.Open(port_)) return false;
    std::string status;
    std::vector<std::string> body;
    while (NowNs() - start < 120'000'000'000LL) {
      if (!c.Call("HEALTH", &status, &body)) return false;
      if (status.find("ready=1") != std::string::npos) {
        *ready_s = static_cast<double>(NowNs() - start) / 1e9;
        return true;
      }
      ::usleep(200);
    }
    return false;
  }

  // SIGTERM (the server folds a final checkpoint) and wait for exit 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 60000; ++i) {
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(1000);
    }
    Kill();
    return false;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int http_port() const { return http_port_; }
  const std::string& access_log() const { return access_log_; }

 private:
  int WaitPort(const std::string& file) {
    for (int i = 0; i < 60000; ++i) {
      std::string text;
      if (ReadFile(file, &text) && text.find('\n') != std::string::npos) {
        return std::atoi(text.c_str());
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1;
      }
      ::usleep(500);
    }
    return -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
  int http_port_ = 0;
  std::string access_log_;
};

std::map<std::string, double> Stats(int port) {
  std::map<std::string, double> out;
  Conn c;
  std::string status;
  std::vector<std::string> body;
  if (!c.Open(port) || !c.Call("STATS", &status, &body)) return out;
  for (const std::string& line : body) {
    size_t sp = line.find(' ');
    if (sp != std::string::npos) {
      out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  return out;
}

double MetricValue(const std::string& prom, const std::string& name) {
  std::istringstream in(prom);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) == 0 &&
        (line.size() > name.size() &&
         (line[name.size()] == ' ' || line[name.size()] == '{'))) {
      return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
  }
  return 0;
}

// ------------------------------------------------------------ the client --

struct Sample {
  double ms = 0;       // Latency (closed loop: round trip; open: from due).
  double rtt_ms = 0;   // Send to response.
  double late_ms = 0;  // Open loop: send time minus due time.
  int64_t done_ns = 0; // When the response was complete.
  int64_t at_ns = 0;   // When it was sent (closed loop) or due (open).
  bool side = false;   // The workload's secondary operation.
};

// Checks one QUERY answer: exact (lower == upper) or bracketed between the
// answers over the smallest and largest edge sets the writes can produce.
bool CheckAnswer(const std::string& status,
                 const std::vector<std::string>& rows,
                 const std::vector<std::string>& lower,
                 const std::vector<std::string>& upper, std::string* why) {
  if (status != "OK " + std::to_string(rows.size())) {
    *why = "status '" + status + "'";
    return false;
  }
  if (!std::is_sorted(rows.begin(), rows.end())) {
    *why = "rows out of order";
    return false;
  }
  if (!std::includes(rows.begin(), rows.end(), lower.begin(), lower.end()) ||
      !std::includes(upper.begin(), upper.end(), rows.begin(), rows.end())) {
    *why = std::to_string(rows.size()) + " rows, expected " +
           (lower.size() == upper.size()
                ? std::to_string(lower.size())
                : std::to_string(lower.size()) + ".." +
                      std::to_string(upper.size()));
    return false;
  }
  return true;
}

// Expected answers per (key, direction).
struct Oracle {
  std::vector<std::vector<std::string>> fwd_lo, fwd_hi, rev_lo, rev_hi;
};

Oracle BuildOracle(const Graph& lo, const Graph& hi, bool reverse) {
  Oracle o;
  auto build = [](const Graph& g, bool rev,
                  std::vector<std::vector<std::string>>* out) {
    auto adj = Adjacency(g.n, g.edges, rev);
    out->resize(static_cast<size_t>(g.n));
    for (int c = 0; c < g.n; ++c) {
      (*out)[static_cast<size_t>(c)] = Rows(c, Reach(adj, c), rev);
    }
  };
  build(lo, false, &o.fwd_lo);
  build(hi, false, &o.fwd_hi);
  if (reverse) {
    build(lo, true, &o.rev_lo);
    build(hi, true, &o.rev_hi);
  }
  return o;
}

struct LoadResult {
  std::vector<Sample> samples;
  int64_t start_ns = 0;  // The measured interval.
  int64_t end_ns = 0;
};

// Closed loop: `clients` connections, each sending its next QUERY as soon
// as the previous answer arrives, until `seconds` pass. Two connections
// keep at most two server workers busy, half the reference machine's four
// cores, so the latencies are the server's and not the scheduler's: with
// four, the workers and this process's threads contended for the cores,
// and on a shared 4-vCPU host the reverse-bound QUERY's median moved by a
// third between runs.
LoadResult ClosedLoop(int port, int n_nodes, const Oracle& oracle,
                      uint64_t seed, double seconds, Tracer* tracer,
                      Report* report) {
  const int clients = 2;
  std::vector<std::vector<Sample>> per(clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      SeedRng rng(seed * 1000003ULL + static_cast<uint64_t>(t));
      Conn c;
      if (!c.Open(port)) {
        report->Attempt();
        report->Fail("cannot connect");
        return;
      }
      std::string status;
      std::vector<std::string> rows;
      uint64_t request = static_cast<uint64_t>(t + 1) << 32;
      while (NowNs() < deadline) {
        const int key =
            static_cast<int>(rng.Uniform(static_cast<uint64_t>(n_nodes)));
        const bool reverse = rng.Uniform(5) == 0;
        const std::string q = reverse ? "QUERY t(X, " + N(key) + ")"
                                      : "QUERY t(" + N(key) + ", X)";
        const int64_t t0 = NowNs();
        const bool sent = c.Call(q, &status, &rows);
        const int64_t t1 = NowNs();
        tracer->Add("server.QUERY", t0, t1, -1, ++request);
        report->Attempt();
        Sample s;
        s.ms = NsToMs(t1 - t0);
        s.rtt_ms = s.ms;
        s.at_ns = t0;
        s.side = reverse;
        std::string why = "connection lost";
        const auto& lo = reverse ? oracle.rev_lo : oracle.fwd_lo;
        const auto& hi = reverse ? oracle.rev_hi : oracle.fwd_hi;
        const bool ok =
            sent && CheckAnswer(status, rows, lo[static_cast<size_t>(key)],
                                hi[static_cast<size_t>(key)], &why);
        if (!ok) {
          report->Fail(q + ": " + why);
          if (!sent) return;
          continue;
        }
        per[static_cast<size_t>(t)].push_back(s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult out;
  out.start_ns = start;
  out.end_ns = deadline;
  for (const std::vector<Sample>& v : per) {
    out.samples.insert(out.samples.end(), v.begin(), v.end());
  }
  return out;
}

// Open loop: request i is due at start + i / rate; every fourth is the next
// write (sent in due order on its own connection), the rest QUERY t(c, X)
// taken in due order by three query connections. Returns the writes that
// were acknowledged.
LoadResult OpenLoop(int port, const WriteWorkload& w, size_t first_write,
                    const Oracle& oracle, uint64_t seed, double seconds,
                    Tracer* tracer, Report* report, size_t* writes_done) {
  const size_t total = static_cast<size_t>(kOfferedRate * seconds);
  std::vector<int64_t> query_due;
  std::vector<int64_t> write_due;
  const int64_t start = NowNs() + 20'000'000;  // Let the threads connect.
  for (size_t i = 0; i < total; ++i) {
    int64_t due = start + static_cast<int64_t>(static_cast<double>(i) *
                                               1e9 / kOfferedRate);
    (i % 4 == 3 ? write_due : query_due).push_back(due);
  }
  write_due.resize(
      std::min(write_due.size(), w.writes.size() - first_write));
  SeedRng key_rng(seed * 7919ULL + 11);
  std::vector<int> keys;
  for (size_t i = 0; i < query_due.size(); ++i) {
    keys.push_back(static_cast<int>(key_rng.Uniform(200)));
  }
  std::atomic<size_t> next_query{0};
  std::atomic<size_t> acked{0};
  std::vector<std::vector<Sample>> per(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Conn c;
      if (!c.Open(port)) {
        report->Attempt();
        report->Fail("cannot connect");
        return;
      }
      std::string status;
      std::vector<std::string> rows;
      auto& out = per[static_cast<size_t>(t)];
      for (size_t i = 0;; ++i) {
        const bool is_write = t == 0;
        size_t idx = is_write ? i : next_query.fetch_add(1);
        const auto& due_list = is_write ? write_due : query_due;
        if (idx >= due_list.size()) break;
        const int64_t due = due_list[idx];
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        std::string req;
        if (is_write) {
          req = w.writes[first_write + idx].Line();
        } else {
          req = "QUERY t(" + N(keys[idx]) + ", X)";
        }
        const int64_t sent_at = NowNs();
        const bool sent = c.Call(req, &status, &rows);
        const int64_t done = NowNs();
        tracer->Add(is_write ? "server.WRITE" : "server.QUERY", sent_at, done,
                    -1, (static_cast<uint64_t>(t + 1) << 32) + idx);
        report->Attempt();
        Sample s;
        s.ms = NsToMs(done - due);
        s.rtt_ms = NsToMs(done - sent_at);
        s.late_ms = NsToMs(sent_at - due);
        s.at_ns = due;
        s.done_ns = done;
        s.side = is_write;
        std::string why = "connection lost";
        bool ok = false;
        if (is_write) {
          const std::string want = w.writes[first_write + idx].Ack();
          ok = sent && status == want;
          if (sent && !ok) why = "'" + status + "', expected '" + want + "'";
          if (ok) acked.fetch_add(1);
        } else {
          ok = sent &&
               CheckAnswer(status, rows,
                           oracle.fwd_lo[static_cast<size_t>(keys[idx])],
                           oracle.fwd_hi[static_cast<size_t>(keys[idx])],
                           &why);
        }
        if (!ok) {
          report->Fail(req + ": " + why);
          if (!sent || is_write) return;  // Later writes depend on this one.
          continue;
        }
        out.push_back(s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult res;
  res.start_ns = start;
  res.end_ns = start + static_cast<int64_t>(static_cast<double>(total) * 1e9 /
                                            kOfferedRate);
  for (const std::vector<Sample>& v : per) {
    res.samples.insert(res.samples.end(), v.begin(), v.end());
  }
  *writes_done = acked.load();
  return res;
}

// Full-state check: QUERY t(X, Y) must equal the closure of `g`.
bool CheckFullState(int port, const Graph& g, const std::string& when,
                    Report* report) {
  Conn c;
  std::string status;
  std::vector<std::string> rows;
  report->Attempt();
  std::string why = "connection lost";
  std::vector<std::string> want = Closure(g);
  if (c.Open(port) && c.Call("QUERY t(X, Y)", &status, &rows) &&
      CheckAnswer(status, rows, want, want, &why)) {
    return true;
  }
  report->Fail("full state " + when + ": " + why);
  return false;
}

// ------------------------------------------------------ access log ledger --

struct AccessLog {
  std::vector<double> query_queue, query_exec, write_queue, write_exec;
  double cost_est = 0;
  double tuples = 0;
};

double JsonNumber(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

AccessLog ReadAccessLog(const std::string& path) {
  AccessLog log;
  std::string text;
  ReadFile(path, &text);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"admitted\":true") == std::string::npos) continue;
    const bool query = line.find("\"verb\":\"QUERY\"") != std::string::npos;
    const bool write = line.find("\"verb\":\"ADD\"") != std::string::npos ||
                       line.find("\"verb\":\"RETRACT\"") != std::string::npos;
    if (query) {
      log.query_queue.push_back(JsonNumber(line, "queue_us"));
      log.query_exec.push_back(JsonNumber(line, "exec_us"));
      log.cost_est += JsonNumber(line, "cost_est");
      log.tuples += JsonNumber(line, "tuples");
    } else if (write) {
      log.write_queue.push_back(JsonNumber(line, "queue_us"));
      log.write_exec.push_back(JsonNumber(line, "exec_us"));
    }
  }
  return log;
}

// ------------------------------------------------- in-process write replay --

// Recovery of a copy of the prepared directory, then (serve-write) a serial
// replay of the run's write sequence through DataDir and Maintainer, with a
// fold every kFoldEvery writes: the server's write path without the server.
void ReplayLayers(const Options& opts, const std::string& prepared,
                  const std::vector<Write>& writes, Tracer* tracer,
                  Report* report) {
  const std::string dir = opts.work_dir + "/replay";
  dire::Result<dire::ast::Program> program =
      dire::parser::ParseProgram(kTcProgram);
  std::vector<double> open_ms;
  std::vector<double> maintain_ms;
  std::unique_ptr<dire::storage::DataDir> dd;
  std::unique_ptr<dire::eval::Maintainer> m;
  for (int rep = 0; rep < 3; ++rep) {
    m.reset();
    dd.reset();
    if (!CopyFlatDir(prepared, dir)) break;
    int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "storage.DataDir::Open");
      auto opened = dire::storage::DataDir::Open(dir);
      if (!opened.ok()) break;
      dd = std::move(*opened);
    }
    int64_t t1 = NowNs();
    open_ms.push_back(NsToMs(t1 - t0));
    // Net the WAL tail exactly as the server's maintained recovery does.
    std::map<std::vector<std::string>, std::pair<int, bool>> net;
    for (const auto& op : dd->wal_tail()) {
      if (!op.effective) continue;
      auto& e = net[op.values];
      ++e.first;
      e.second = op.insert;
    }
    std::vector<dire::eval::FactDelta> ins;
    std::vector<dire::eval::FactDelta> del;
    for (const auto& [values, e] : net) {
      if (e.first % 2 == 1) (e.second ? ins : del).push_back({"e", values});
    }
    m = std::make_unique<dire::eval::Maintainer>(dd->db(), *program);
    int64_t t2 = NowNs();
    if (!ins.empty() || !del.empty()) {
      ScopedSpan s(tracer, "eval.Maintainer::ApplyDelta");
      if (!m->ApplyDelta(ins, del).ok()) {
        report->Fail("recovery ApplyDelta failed");
      }
    }
    maintain_ms.push_back(NsToMs(NowNs() - t2));
  }
  report->Set("storage.recovery_open_ms", Median(open_ms), "ms");
  report->Set("eval.recovery_maintain_ms", Median(maintain_ms), "ms");
  if (writes.empty() || dd == nullptr) return;

  dire::eval::DataDirCheckpointer checkpointer(
      dd.get(), dire::eval::ProgramCrc(kTcProgram));
  std::vector<double> commit_us, add_us, retract_us, fold_ms;
  double deltas = 0;
  double variants = 0;
  double overdeleted = 0;
  double rederived = 0;
  const size_t n = std::min(writes.size(), static_cast<size_t>(kReplayWrites));
  for (size_t i = 0; i < n; ++i) {
    const Write& w = writes[i];
    const uint64_t request = i + 1;
    ScopedSpan top(tracer, "bench.write", -1, request);
    int64_t t0 = NowNs();
    bool removed = false;
    dire::Status s;
    {
      ScopedSpan span(tracer, w.add ? "storage.AppendFact"
                                    : "storage.RetractFact",
                      top.index(), request);
      s = w.add ? dd->AppendFact("e", {N(w.a), N(w.b)})
                : dd->RetractFact("e", {N(w.a), N(w.b)}, &removed);
    }
    int64_t t1 = NowNs();
    if (!s.ok()) {
      report->Fail("replay write failed: " + s.ToString());
      return;
    }
    commit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    // A re-assert changes nothing; the server skips maintenance for it too.
    if (!w.noop) {
      std::vector<dire::eval::FactDelta> delta = {{"e", {N(w.a), N(w.b)}}};
      dire::Result<dire::eval::MaintainStats> st = [&] {
        ScopedSpan span(tracer, "eval.Maintainer::ApplyDelta", top.index(),
                        request);
        return w.add ? m->ApplyDelta(delta, {}) : m->ApplyDelta({}, delta);
      }();
      int64_t t2 = NowNs();
      if (!st.ok()) {
        report->Fail("replay ApplyDelta failed: " + st.status().ToString());
        return;
      }
      (w.add ? add_us : retract_us)
          .push_back(static_cast<double>(t2 - t1) / 1e3);
      ++deltas;
      variants += static_cast<double>(st->variants_executed);
      overdeleted += static_cast<double>(st->overdeleted);
      rederived += static_cast<double>(st->tuples_rederived);
    }
    if ((i + 1) % kFoldEvery == 0) {
      ScopedSpan span(tracer, "eval.Evaluate(fold)", top.index(), request);
      dire::eval::EvalOptions eo;
      eo.checkpointer = &checkpointer;
      dire::eval::Evaluator evaluator(dd->db(), eo);
      int64_t f0 = NowNs();
      if (!evaluator.Evaluate(*program).ok()) report->Fail("fold failed");
      fold_ms.push_back(NsToMs(NowNs() - f0));
    }
  }
  Summary commit = Summarize(commit_us);
  report->Set("storage.wal_commit_us.p50", commit.p50, "us");
  report->Set("storage.wal_commit_us.p99", commit.tail, "us");
  report->Set("eval.maintain_add_us.p50", Median(add_us), "us");
  report->Set("eval.maintain_retract_us.p50", Median(retract_us), "us");
  report->Set("eval.maintain_variants_per_delta",
              deltas > 0 ? variants / deltas : 0, "ratio");
  report->Set("eval.maintain_rederived_per_overdeleted",
              overdeleted > 0 ? rederived / overdeleted : 0, "ratio");
  report->Set("eval.fold_ms", Median(fold_ms), "ms");
  report->Note("replayed " + std::to_string(n) + " writes in-process; wal "
               "commit tail is p" + std::to_string(commit.tail_pct) +
               " of " + std::to_string(commit.n));
}

// ----------------------------------------------------------- the workload --

void SetServerLedger(const AccessLog& log, double rtt_p50_us,
                     const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& prom, Report* report) {
  Summary qq = Summarize(log.query_queue);
  Summary qe = Summarize(log.query_exec);
  Summary wq = Summarize(log.write_queue);
  Summary we = Summarize(log.write_exec);
  report->Set("server.query_queue_us.p50", qq.p50, "us");
  report->Set("server.query_queue_us.p99", qq.tail, "us");
  report->Set("server.query_exec_us.p50", qe.p50, "us");
  report->Set("server.query_exec_us.p99", qe.tail, "us");
  // The access log cannot be joined to client requests, so the wire share
  // is the difference of the medians.
  report->Set("server.query_wire_us.p50", rtt_p50_us - qq.p50 - qe.p50,
              "us");
  report->Set("server.query_est_rows_per_answer",
              log.tuples > 0 ? log.cost_est / log.tuples : 0, "ratio");
  report->Set("server.write_queue_us.p50", wq.p50, "us");
  report->Set("server.write_queue_us.p99", wq.tail, "us");
  report->Set("server.write_exec_us.p50", we.p50, "us");
  report->Set("server.write_exec_us.p99", we.tail, "us");
  auto delta = [&](const std::string& key) {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  report->Set("server.checkpoints", delta("checkpoints_total"), "count");
  report->Set("server.ivm_applied", delta("ivm_applied_total"), "count");
  report->Set("server.ivm_fallbacks", delta("ivm_fallbacks_total"), "count");
  report->Set("server.rejected", delta("rejected_total"), "count");
  report->Set("storage.arena_mb",
              MetricValue(prom, "dire_storage_arena_bytes") / (1024.0 * 1024.0),
              "MB");
  report->Note("access log: " + std::to_string(qe.n) + " QUERY, " +
               std::to_string(we.n) + " writes; exec tail is p" +
               std::to_string(qe.tail_pct));
}

struct LoadSplit {
  Summary main, side, late;
  double ops_per_s = 0;
};

// serve-read: QUERY (main) and its reverse-bound subset (side), each as the
// median over 2-second windows of the per-window percentiles, so a stall
// that hits one window does not move the result. serve-write: QUERY (main)
// and durable writes (side) over the whole run, timed from the due time.
LoadSplit Split(const LoadResult& r, bool write_workload) {
  LoadSplit s;
  if (write_workload) {
    std::vector<double> main, side, late;
    int64_t last_done = r.start_ns + 1;
    for (const Sample& x : r.samples) {
      last_done = std::max(last_done, x.done_ns);
      (x.side ? side : main).push_back(x.ms);
      late.push_back(x.late_ms);
    }
    s.main = Summarize(main);
    s.side = Summarize(side);
    s.late = Summarize(late);
    // Fixed by the offered rate unless the server falls behind.
    s.ops_per_s = static_cast<double>(main.size()) /
                  (static_cast<double>(last_done - r.start_ns) / 1e9);
    return s;
  }
  std::vector<TimedSample> all, side;
  for (const Sample& x : r.samples) {
    all.push_back({x.at_ns, x.ms});
    if (x.side) side.push_back({x.at_ns, x.ms});
  }
  const int windows = static_cast<int>(
      std::max<int64_t>(1, (r.end_ns - r.start_ns) / 2'000'000'000LL));
  s.main = WindowedSummary(all, r.start_ns, r.end_ns, windows, &s.ops_per_s);
  s.side = WindowedSummary(side, r.start_ns, r.end_ns, windows);
  return s;
}

// Open-loop validity: the generator must keep up. A run whose lateness in
// its last fifth has grown past 50 ms (median) is a backlog, not a latency;
// it is reported as invalid and gives no result.
bool OpenLoopValid(const LoadResult& r) {
  std::vector<Sample> ordered = r.samples;
  std::sort(ordered.begin(), ordered.end(),
            [](const Sample& a, const Sample& b) { return a.at_ns < b.at_ns; });
  std::vector<double> tail_late;
  for (size_t i = ordered.size() - ordered.size() / 5; i < ordered.size();
       ++i) {
    tail_late.push_back(ordered[i].late_ms);
  }
  const double m = Median(tail_late);
  if (m > 50) {
    std::printf("invalid run: generator backlog, median lateness %.1f ms over "
                "the last fifth of the schedule\n", m);
    std::fprintf(stderr, "perfbench: invalid run (generator backlog)\n");
    return false;
  }
  return true;
}

}  // namespace

int RunServe(const Options& opts, Report* report) {
  const bool write_workload = opts.workload == "serve-write";
  const std::string program_path = opts.work_dir + "/tc.dl";
  const std::string prepared = opts.work_dir + "/prepared";
  if (!MakeDirs(opts.work_dir) || !WriteFile(program_path, kTcProgram)) {
    return 1;
  }

  // Inputs and oracles (untimed).
  Graph read_graph;
  WriteWorkload ww;
  Oracle oracle;
  const size_t run_writes =
      static_cast<size_t>(kOfferedRate * opts.seconds / 4) + 8;
  if (write_workload) {
    ww = MakeWriteWorkload(opts.seed, run_writes);
    Graph lo = ww.base;
    Graph hi = ww.base;
    for (const auto& e : ww.pool) {
      lo.edges.erase(e);
      hi.edges.insert(e);
    }
    oracle = BuildOracle(lo, hi, false);
  } else {
    SeedRng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 1);
    read_graph = MakeForest(&rng);
    oracle = BuildOracle(read_graph, read_graph, true);
  }
  const Graph& g0 = write_workload ? ww.base : read_graph;
  std::vector<Write> tail;
  if (write_workload) {
    tail.assign(ww.writes.begin(), ww.writes.begin() + kWalTailWrites);
  }
  if (!PrepareDataDir(prepared, g0, tail)) {
    std::fprintf(stderr, "perfbench: cannot prepare the data directory\n");
    return 1;
  }
  report->Note(std::string(opts.workload) + ": |nodes| " +
               std::to_string(g0.n) + ", |e| " +
               std::to_string(g0.edges.size()) + ", WAL tail " +
               std::to_string(tail.size()) + " writes");

  Tracer tracer;
  const int starts = opts.trace ? 1 : 7;
  std::vector<double> ready_s;
  const std::string run_dir = opts.work_dir + "/run";
  std::unique_ptr<ServerProc> server;
  for (int i = 0; i < starts; ++i) {
    server = std::make_unique<ServerProc>();  // Kills the previous one.
    double s = 0;
    if (!CopyFlatDir(prepared, run_dir) ||
        !server->Start(opts, program_path, run_dir, false, &s)) {
      std::fprintf(stderr, "perfbench: server failed to start (see %s.log)\n",
                   run_dir.c_str());
      return 1;
    }
    ready_s.push_back(s);
  }

  auto run_load = [&](ServerProc* srv, double seconds, size_t* writes_done) {
    return write_workload
               ? OpenLoop(srv->port(), ww, kWalTailWrites, oracle, opts.seed,
                          seconds, &tracer, report, writes_done)
               : ClosedLoop(srv->port(), g0.n, oracle, opts.seed, seconds,
                            &tracer, report);
  };

  // Final-state oracle (serve-write): after drain and again after restart.
  auto check_final = [&](ServerProc* srv, size_t writes_done,
                         const std::string& dir) {
    Graph final_graph = ww.after_tail;
    for (size_t i = 0; i < writes_done; ++i) {
      const Write& w = ww.writes[kWalTailWrites + i];
      if (w.add) {
        final_graph.edges.emplace(w.a, w.b);
      } else {
        final_graph.edges.erase({w.a, w.b});
      }
    }
    CheckFullState(srv->port(), final_graph, "after drain", report);
    if (!srv->Stop()) report->Fail("server did not exit cleanly");
    ServerProc again;
    double s = 0;
    if (!again.Start(opts, program_path, dir, false, &s)) {
      report->Attempt();
      report->Fail("restart failed");
      return;
    }
    CheckFullState(again.port(), final_graph, "after restart", report);
    if (!again.Stop()) report->Fail("restarted server did not exit cleanly");
  };

  if (!opts.trace) {
    size_t writes_done = 0;
    LoadResult load = run_load(server.get(), opts.seconds, &writes_done);
    const double rss = PeakRssMb(server->pid());
    LoadSplit split = Split(load, write_workload);
    if (write_workload && !OpenLoopValid(load)) return 3;
    if (write_workload) {
      check_final(server.get(), writes_done, run_dir);
    } else if (!server->Stop()) {
      report->Fail("server did not exit cleanly");
    }
    report->Set("setup_s", Median(ready_s), "s");
    SetLatencyMetrics(split.main, split.side, report);
    report->Set("ops_per_s", split.ops_per_s, "1/s");
    report->Set("peak_rss_mb", rss, "MB");
    if (write_workload) {
      const Summary& late = split.late;
      report->Note("open loop: offered " + std::to_string(kOfferedRate) +
                   " req/s (75% QUERY, 25% writes), gen_late_ms p50 " +
                   std::to_string(late.p50) + " p" +
                   std::to_string(late.tail_pct) + " " +
                   std::to_string(late.tail) + " over " +
                   std::to_string(late.n) + " requests");
    }
    return 0;
  }

  // Traced run: an untraced half on a plain server, then a traced half on a
  // server with its access log and HTTP metrics on, with client spans.
  size_t writes_done = 0;
  LoadResult plain = run_load(server.get(), opts.seconds / 2, &writes_done);
  if (write_workload) {
    check_final(server.get(), writes_done, run_dir);
  } else if (!server->Stop()) {
    report->Fail("server did not exit cleanly");
  }
  server = std::make_unique<ServerProc>();
  double s = 0;
  if (!CopyFlatDir(prepared, run_dir) ||
      !server->Start(opts, program_path, run_dir, true, &s)) {
    std::fprintf(stderr, "perfbench: traced server failed to start\n");
    return 1;
  }
  tracer.set_enabled(true);
  std::map<std::string, double> before = Stats(server->port());
  LoadResult traced = run_load(server.get(), opts.seconds / 2, &writes_done);
  std::map<std::string, double> after = Stats(server->port());
  std::string prom = HttpGet(server->http_port(), "/metrics");
  tracer.set_enabled(false);
  const std::string access_log = server->access_log();
  if (write_workload) {
    check_final(server.get(), writes_done, run_dir);
  } else if (!server->Stop()) {
    report->Fail("server did not exit cleanly");
  }
  server.reset();
  if (write_workload && (!OpenLoopValid(plain) || !OpenLoopValid(traced))) {
    return 3;
  }
  LoadSplit a = Split(plain, write_workload);
  LoadSplit b = Split(traced, write_workload);
  report->Set("trace.overhead_p50_ms", b.main.p50 - a.main.p50, "ms");
  report->Set("trace.overhead_p99_ms", b.main.tail - a.main.tail, "ms");
  if (write_workload) {
    report->Set("client.gen_late_ms", b.late.tail, "ms");
  }
  std::vector<double> rtt_us;
  for (const Sample& x : traced.samples) {
    if (!(write_workload && x.side)) rtt_us.push_back(x.rtt_ms * 1e3);
  }
  SetServerLedger(ReadAccessLog(access_log), Median(rtt_us), before, after,
                  prom, report);
  tracer.set_enabled(true);
  std::vector<Write> replay;
  if (write_workload) {
    replay.assign(ww.writes.begin() + kWalTailWrites, ww.writes.end());
  }
  ReplayLayers(opts, prepared, replay, &tracer, report);
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    report->Note("self time " + layer + ": " + std::to_string(ms) + " ms");
  }
  const std::string trace_path =
      opts.work_dir + "/trace-" + opts.workload + ".json";
  if (tracer.WriteChromeTrace(trace_path)) {
    report->Note("spans written to " + trace_path);
  }
  return 0;
}

bool SelfCheckReachOracle() {
  // A 4-cycle: t(n0, X) is n0..n3. A dropped row and an extra row must both
  // be rejected; the exact answer accepted.
  Graph g;
  g.n = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  auto adj = Adjacency(g.n, g.edges, false);
  std::vector<std::string> want = Rows(0, Reach(adj, 0), false);
  std::vector<std::string> missing(want.begin() + 1, want.end());
  std::vector<std::string> extra = want;
  extra.push_back("t(n0, n9)");
  std::sort(extra.begin(), extra.end());
  std::string why;
  const bool ok =
      CheckAnswer("OK 4", want, want, want, &why) &&
      !CheckAnswer("OK 3", missing, want, want, &why) &&
      !CheckAnswer("OK 5", extra, want, want, &why) &&
      !CheckAnswer("PARTIAL 4 reason=deadline", want, want, want, &why) &&
      Closure(g).size() == 16;
  if (!ok) {
    std::fprintf(stderr, "perfbench: reach oracle accepted corrupted input\n");
  }
  return ok;
}

}  // namespace perfbench
