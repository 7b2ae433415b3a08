// servebench: drives the D(k)-index serving stack from outside and prints
// one JSON result line. See README.md for the workloads, the metrics and
// how the layer replay of a traced run works.
//
//   servebench --workload <read_hot|read_cold|write_mix> --seed <n>
//              --seconds <s> --trace <0|1> [--out <dir>]
//
// Set-up (timed, several times): XML text -> LoadXmlAsGraph -> requirement
// mining over the Section 6.1 load -> DkIndex::Build -> a durable
// QueryServer. Closed-loop clients then race a shared cursor over the read
// tape (QueryServer::Evaluate) and, on write_mix, one writer submits the
// write tape one op at a time (Submit* then Flush). Read-only workloads
// measure writes with a write probe on a second, fresh server that serves
// nothing else. Replies are checked (every one for its size and every 16th
// element-wise while the graph is fixed; every 16th beside the writer), and
// so are the final state and its recovery; any wrong answer exits 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/result_cache.h"
#include "serve/checkpoint.h"
#include "serve/query_server.h"

namespace servebench {
namespace {

constexpr int kSetupReps = 11;
// The read-only workloads' write probe runs whole write rounds for this
// share of --seconds.
constexpr double kProbeShare = 1.0 / 3;
constexpr int kFullCheckEvery = 16;    // replies compared element-wise
constexpr int kTraceSampleEvery = 16;  // client requests that get spans
constexpr size_t kMaxClientSpans = 20'000;  // per client thread
constexpr size_t kMaxReplaySpans = 100'000;
constexpr int kCheckThreads = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/servebench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--out") {
      a->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(a->workload) != nullptr &&
         a->seconds > 0;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// ------------------------------------------------------------------ set-up

// The serving stack of one set-up. Members are destroyed in reverse order:
// the server (joining its threads) before the index before its graph.
struct Stack {
  std::unique_ptr<dki::DataGraph> graph;
  std::unique_ptr<dki::DkIndex> index;
  dki::LabelRequirements reqs;
  std::unique_ptr<dki::QueryServer> server;
};

struct SetupTimes {
  std::vector<double> total_s, load_s, build_s;
};

std::unique_ptr<Stack> Setup(const Inputs& in, const std::string& dir,
                             SetupTimes* times) {
  std::filesystem::remove_all(dir);
  auto stack = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  dki::XmlToGraphResult loaded;
  std::string error;
  if (!dki::LoadXmlAsGraph(in.xml, in.graph_options, &loaded, &error)) {
    Fail("xml load failed: " + error);
  }
  stack->graph = std::make_unique<dki::DataGraph>(std::move(loaded.graph));
  const int64_t t1 = NowNs();
  dki::LoadAnalyzerOptions mining;
  mining.max_requirement = 4;  // A(4) covers the 2..5-label paths
  std::vector<std::string> errors;
  stack->reqs = dki::MineRequirementsFromText(
      in.tuning_queries, stack->graph->labels(), &errors, mining);
  if (!errors.empty()) Fail("tuning query failed to parse: " + errors[0]);
  stack->index = std::make_unique<dki::DkIndex>(
      dki::DkIndex::Build(stack->graph.get(), stack->reqs));
  const int64_t t2 = NowNs();
  dki::QueryServer::Options options;
  options.durability.dir = dir;
  stack->server = std::make_unique<dki::QueryServer>(*stack->index, options);
  const int64_t t3 = NowNs();
  times->load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  times->build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  times->total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  return stack;
}

// ------------------------------------------------------------------ phases

struct Env {
  const Inputs* in = nullptr;
  dki::QueryServer* server = nullptr;
  const ReadTape* read_tape = nullptr;
  WriteTape* write_tape = nullptr;
  dki::LabelRequirements grow, shrink;
  // Reference answers per pool entry while the graph is unchanged (read
  // phases of the read-only workloads); null when answers may move.
  const std::vector<std::vector<NodeId>>* expected = nullptr;
  int64_t read_cursor = 0;  // next read tape position
  std::vector<WriteOp> writes_done;
};

// A sampled reply beside the writer: its size and FNV-1a hash, keyed by the
// answering snapshot's seq (ops applied) and the pool entry, seq << 32 | q.
struct ReplyDigest {
  size_t size = 0;
  uint64_t hash = 0;
  bool operator==(const ReplyDigest&) const = default;
};
using SampledReplies = std::unordered_map<uint64_t, ReplyDigest>;

ReplyDigest Digest(const std::vector<NodeId>& ids) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (NodeId id : ids) h = (h ^ static_cast<uint64_t>(id)) * 0x100000001b3ull;
  return {ids.size(), h};
}

// Adds `d` under `key`; false when a different digest is already there.
bool AddSample(SampledReplies* sampled, uint64_t key, const ReplyDigest& d) {
  auto [it, inserted] = sampled->try_emplace(key, d);
  return inserted || it->second == d;
}

struct PhaseResult {
  LatencyHistogram read_hist, write_hist;
  int64_t reads = 0, writes = 0;
  // Reads and client-side nanoseconds per query shape.
  int64_t shape_reads[kNumShapes] = {}, shape_ns[kNumShapes] = {};
  // Beside the writer: sampled replies, and the samples left unchecked
  // because a publish landed during the call.
  SampledReplies sampled;
  int64_t unchecked = 0;
  double read_seconds = 0, write_seconds = 0;
  // Complete read rounds: how many, and the time from the start of the
  // first to the end of the last.
  int64_t read_rounds = 0;
  double read_rounds_seconds = 0;
  int64_t parse_failures = 0, submit_failures = 0, wrong_replies = 0;
  int64_t first_read = 0;  // tape position of the phase's first read
  int64_t cache_hits = 0, cache_misses = 0;  // result cache, over the phase
};

bool Submit(dki::QueryServer* server, const dki::UpdateOp& op) {
  switch (op.kind) {
    case dki::UpdateOp::Kind::kAddEdge:
      return server->SubmitAddEdge(op.u, op.v);
    case dki::UpdateOp::Kind::kRemoveEdge:
      return server->SubmitRemoveEdge(op.u, op.v);
    case dki::UpdateOp::Kind::kRetune:
      return server->SubmitRetune(op.retune_targets, op.retune_shrink);
    case dki::UpdateOp::Kind::kAddSubgraph:
      break;
  }
  return false;
}

// One measured phase. `readers` closed-loop reader clients; the writer runs
// `write_rounds` rounds (0: none, -1: whole rounds until `seconds` pass).
// Without a writer the readers stop at the first read-round boundary after
// `seconds`; with one they stop when the writer does.
PhaseResult RunPhase(Env* env, int readers, int64_t write_rounds,
                     double seconds, Tracer* tracer) {
  PhaseResult res;
  res.first_read = env->read_cursor;
  const dki::ResultCache::Stats cache_start = env->server->cache_stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t round = env->read_tape->round();
  std::atomic<int64_t> cursor{env->read_cursor};
  std::atomic<int64_t> stop_at{INT64_MAX};
  std::atomic<bool> writer_done{write_rounds == 0};
  const bool has_writer = write_rounds != 0;

  struct ReaderStats {
    LatencyHistogram hist;
    int64_t reads = 0, parse_failures = 0, wrong = 0, unchecked = 0;
    int64_t shape_reads[kNumShapes] = {}, shape_ns[kNumShapes] = {};
    SampledReplies sampled;
    int64_t end_ns = 0;
  };
  std::vector<ReaderStats> stats(static_cast<size_t>(readers));
  std::mutex boundaries_mu;
  std::vector<int64_t> boundaries;  // times the clients reached a round start
  auto mark_boundary = [&] {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(boundaries_mu);
    boundaries.push_back(now);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    threads.emplace_back([&, c, buf] {
      ReaderStats& st = stats[static_cast<size_t>(c)];
      for (;;) {
        const int64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= stop_at.load(std::memory_order_relaxed)) break;
        if (has_writer && writer_done.load(std::memory_order_relaxed)) break;
        if ((i - res.first_read) % round == 0) {
          mark_boundary();
          if (!has_writer && i > res.first_read && NowNs() >= deadline) {
            int64_t cur = stop_at.load();
            while (i < cur && !stop_at.compare_exchange_weak(cur, i)) {
            }
            break;
          }
        }
        const uint32_t q = env->read_tape->At(i);
        const Query& query = env->in->pool[q];
        Tracer* t = i % kTraceSampleEvery == 0 ? tracer : nullptr;
        // Beside the writer, every kFullCheckEvery-th reply is checked
        // afterwards against the snapshot that answered it, when no
        // publish landed during the call.
        std::shared_ptr<const dki::IndexSnapshot> before;
        if (env->expected == nullptr && i % kFullCheckEvery == 0) {
          before = env->server->snapshot();
        }
        const int64_t t0 = NowNs();
        std::optional<std::vector<NodeId>> reply;
        {
          ScopedSpan span(t, buf, "client.evaluate", i);
          reply = env->server->Evaluate(query.text);
        }
        const int64_t ns = NowNs() - t0;
        st.hist.Record(ns);
        ++st.reads;
        ++st.shape_reads[static_cast<int>(query.shape)];
        st.shape_ns[static_cast<int>(query.shape)] += ns;
        if (!reply.has_value()) {
          ++st.parse_failures;
        } else if (env->expected != nullptr) {
          const auto& want = (*env->expected)[q];
          if (reply->size() != want.size() ||
              (i % kFullCheckEvery == 0 && *reply != want)) {
            ++st.wrong;
          }
        } else if (before != nullptr) {
          if (env->server->snapshot() != before) {
            ++st.unchecked;
          } else if (!AddSample(&st.sampled, before->seq() << 32 | q,
                                Digest(*reply))) {
            ++st.wrong;  // two replies from one snapshot differ
          }
        }
      }
      st.end_ns = NowNs();
    });
  }

  if (has_writer) {
    Tracer::Buffer* buf = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    const int64_t w_start = NowNs();
    for (int64_t r = 0; write_rounds < 0 || r < write_rounds; ++r) {
      if (write_rounds < 0 && r > 0 && NowNs() >= deadline) break;
      for (const WriteOp& w : env->write_tape->NextRound()) {
        const dki::UpdateOp op = ToUpdateOp(w, env->grow, env->shrink);
        const int64_t id = -static_cast<int64_t>(env->writes_done.size()) - 1;
        const int64_t t0 = NowNs();
        {
          ScopedSpan root(tracer, buf, "client.write", id);
          bool ok;
          {
            ScopedSpan span(tracer, buf, "client.submit", id);
            ok = Submit(env->server, op);
          }
          if (!ok) ++res.submit_failures;
          ScopedSpan span(tracer, buf, "client.flush", id);
          env->server->Flush();
        }
        res.write_hist.Record(NowNs() - t0);
        ++res.writes;
        env->writes_done.push_back(w);
      }
    }
    res.write_seconds = static_cast<double>(NowNs() - w_start) / 1e9;
    writer_done.store(true);
  }
  for (std::thread& t : threads) t.join();

  int64_t end = start;
  for (const ReaderStats& st : stats) {
    res.read_hist.Merge(st.hist);
    res.reads += st.reads;
    res.parse_failures += st.parse_failures;
    res.wrong_replies += st.wrong;
    res.unchecked += st.unchecked;
    for (int s = 0; s < kNumShapes; ++s) {
      res.shape_reads[s] += st.shape_reads[s];
      res.shape_ns[s] += st.shape_ns[s];
    }
    for (const auto& [key, digest] : st.sampled) {
      if (!AddSample(&res.sampled, key, digest)) ++res.wrong_replies;
    }
    end = std::max(end, st.end_ns);
  }
  res.read_seconds = static_cast<double>(end - start) / 1e9;
  std::sort(boundaries.begin(), boundaries.end());
  if (boundaries.size() >= 2) {
    res.read_rounds = static_cast<int64_t>(boundaries.size()) - 1;
    res.read_rounds_seconds =
        static_cast<double>(boundaries.back() - boundaries.front()) / 1e9;
  }
  const dki::ResultCache::Stats cache_end = env->server->cache_stats();
  res.cache_hits = cache_end.hits - cache_start.hits;
  res.cache_misses = cache_end.misses - cache_start.misses;
  env->read_cursor = std::min(cursor.load(), stop_at.load());
  return res;
}

// ------------------------------------------------------------------ checks

// fn(i) for i in [0, n) over a few threads.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

dki::PathExpression MustParse(const std::string& text,
                              const dki::LabelTable& labels) {
  std::string error;
  auto expr = dki::PathExpression::Parse(text, labels, &error);
  if (!expr.has_value()) Fail("query failed to parse: " + text + ": " + error);
  return std::move(*expr);
}

// Reference answers (EvaluateOnDataGraph) of every pool entry on `g`.
std::vector<std::vector<NodeId>> References(const std::vector<Query>& pool,
                                            const dki::DataGraph& g) {
  std::vector<std::vector<NodeId>> out(pool.size());
  ParallelFor(pool.size(), [&](size_t i) {
    out[i] = dki::EvaluateOnDataGraph(g, MustParse(pool[i].text, g.labels()));
  });
  return out;
}

// The server's answers on its current snapshot against `expected`.
int64_t CheckServerAnswers(const dki::QueryServer& server,
                           const std::vector<Query>& pool,
                           const std::vector<std::vector<NodeId>>& expected) {
  std::atomic<int64_t> wrong{0};
  ParallelFor(pool.size(), [&](size_t i) {
    auto reply = server.Evaluate(pool[i].text);
    if (!reply.has_value() || *reply != expected[i]) ++wrong;
  });
  return wrong.load();
}

// After the writes: the final snapshot's answers to the Section 6.1 load
// against the data graph, a fresh build on the final graph, and the state
// recovered from the durability directory.
int64_t CheckWrites(const dki::QueryServer& server, const Inputs& in,
                    const dki::LabelRequirements& reqs,
                    const std::string& dir) {
  std::shared_ptr<const dki::IndexSnapshot> snap = server.snapshot();
  dki::DataGraph fresh_graph(snap->graph());
  const dki::DkIndex fresh = dki::DkIndex::Build(&fresh_graph, reqs);
  dki::DataGraph recovered_graph;
  dki::RecoveryStats stats;
  std::string error;
  std::optional<dki::DkIndex> recovered =
      dki::RecoverDkIndex(dir, &recovered_graph, &stats, &error);
  if (!recovered.has_value()) Fail("recovery failed: " + error);
  int64_t wrong = 0;
  if (recovered_graph.NumNodes() != snap->graph().NumNodes() ||
      recovered_graph.NumEdges() != snap->graph().NumEdges()) {
    ++wrong;
  }
  std::vector<Query> load;
  for (const std::string& text : in.tuning_queries) load.push_back({text});
  const std::vector<std::vector<NodeId>> want =
      References(load, snap->graph());
  wrong += CheckServerAnswers(server, load, want);
  for (size_t i = 0; i < load.size(); ++i) {
    const dki::PathExpression q =
        MustParse(load[i].text, snap->graph().labels());
    if (dki::EvaluateOnIndex(fresh.index(), q) != want[i]) ++wrong;
    if (dki::EvaluateOnIndex(recovered->index(), q) != want[i]) ++wrong;
  }
  return wrong;
}

// The sampled replies of reads that ran beside the writer, against
// EvaluateOnDataGraph on the graph of the snapshot that answered them. A
// snapshot's seq counts the ops logged before it (each op is logged and
// published on its own), so its graph is `initial` with the first seq ops
// of `writes` applied.
int64_t CheckSampledReplies(const dki::DataGraph& initial,
                            const std::vector<WriteOp>& writes,
                            const std::vector<Query>& pool,
                            const SampledReplies& sampled) {
  std::vector<std::pair<uint64_t, ReplyDigest>> samples(sampled.begin(),
                                                        sampled.end());
  std::sort(samples.begin(), samples.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  dki::DataGraph g(initial);
  size_t applied = 0;
  std::atomic<int64_t> wrong{0};
  for (size_t begin = 0; begin < samples.size();) {
    const uint64_t seq = samples[begin].first >> 32;
    size_t end = begin;
    while (end < samples.size() && samples[end].first >> 32 == seq) ++end;
    if (seq > writes.size()) {
      wrong += static_cast<int64_t>(end - begin);
      begin = end;
      continue;
    }
    for (; applied < seq; ++applied) {
      const WriteOp& w = writes[applied];
      if (w.kind == WriteOp::kAddEdge) g.AddEdge(w.u, w.v);
      if (w.kind == WriteOp::kRemoveEdge) g.RemoveEdge(w.u, w.v);
    }
    ParallelFor(end - begin, [&](size_t i) {
      const auto& [key, digest] = samples[begin + i];
      const std::string& text = pool[key & 0xffffffffu].text;
      if (Digest(dki::EvaluateOnDataGraph(g, MustParse(text, g.labels()))) !=
          digest) {
        ++wrong;
      }
    });
    begin = end;
  }
  return wrong.load();
}

// Bytes the result cache charges for every pool entry's answer
// (query/result_cache.cc: a fixed 96 per entry plus key and result bytes).
int64_t WorkingSetBytes(const std::vector<Query>& pool,
                        const std::vector<std::vector<NodeId>>& answers) {
  int64_t bytes = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    bytes += 96 +
             static_cast<int64_t>(dki::CanonicalizeQuery(pool[i].text).size()) +
             static_cast<int64_t>(answers[i].size() * sizeof(NodeId));
  }
  return bytes;
}

// ------------------------------------------------------------------ output

class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name, unit;
  double value;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Read throughput over the phase's complete rounds, the fixed work; the
// plain ratio when the phase completed none (a writer ended it first).
double ReadQps(const PhaseResult& r, int64_t round) {
  if (r.read_rounds > 0) {
    return static_cast<double>(r.read_rounds * round) / r.read_rounds_seconds;
  }
  return static_cast<double>(r.reads) / r.read_seconds;
}

double Us(double ns) { return ns / 1e3; }
double Ms(double ns) { return ns / 1e6; }

}  // namespace

// Server-side counters, read at the boundaries of the traced phase.
struct Counters {
  int64_t parse_hits = 0, parse_misses = 0, cache_hits = 0, cache_misses = 0;
  int64_t ops_applied = 0, batches = 0;
};

Counters ReadCounters(const dki::QueryServer& server) {
  auto& registry = dki::MetricsRegistry::Global();
  Counters c;
  c.parse_hits = registry.GetCounter("serve.parse_cache.hits").value();
  c.parse_misses = registry.GetCounter("serve.parse_cache.misses").value();
  const dki::ResultCache::Stats cache = server.cache_stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  const dki::QueryServer::Stats stats = server.stats();
  c.ops_applied = stats.ops_applied;
  c.batches = stats.batches;
  return c;
}

Counters Delta(const Counters& end, const Counters& start) {
  return {end.parse_hits - start.parse_hits,
          end.parse_misses - start.parse_misses,
          end.cache_hits - start.cache_hits,
          end.cache_misses - start.cache_misses,
          end.ops_applied - start.ops_applied,
          end.batches - start.batches};
}

// The measured phases on one stack: one untraced, then (when tracing) one
// traced, each `phase_s` long.
struct PhaseSet {
  std::vector<PhaseResult> phases;
  Counters traced;  // counter deltas over the traced phase
  std::vector<WriteOp> writes_done;
  SampledReplies sampled;  // beside the writer, over all phases
  int64_t unchecked = 0;
  int64_t attempted = 0, failed = 0, wrong = 0;
};

PhaseSet RunPhaseSet(const WorkloadSpec& spec, const Inputs& in, Stack* stack,
                     const ReadTape& read_tape, uint64_t seed, int readers,
                     int64_t write_rounds, double phase_s, Tracer* tracer,
                     const std::vector<std::vector<NodeId>>* expected) {
  WriteTape write_tape(spec, *stack->graph, seed);
  Env env;
  env.in = &in;
  env.server = stack->server.get();
  env.read_tape = &read_tape;
  env.write_tape = &write_tape;
  env.grow = stack->reqs;
  env.shrink = ShrinkTargets(stack->reqs);
  env.expected = expected;
  // Warm-up: whole read rounds, untimed, so that the caches and the
  // planner's per-query history settle before measuring.
  if (readers > 0) {
    for (int r = 0; r < spec.warmup_rounds; ++r) {
      (void)RunPhase(&env, readers, 0, 0.0, nullptr);
    }
  }
  PhaseSet result;
  result.phases.push_back(
      RunPhase(&env, readers, write_rounds, phase_s, nullptr));
  if (tracer != nullptr) {
    const Counters start = ReadCounters(*env.server);
    result.phases.push_back(
        RunPhase(&env, readers, write_rounds, phase_s, tracer));
    result.traced = Delta(ReadCounters(*env.server), start);
  }
  for (const PhaseResult& r : result.phases) {
    result.attempted += r.reads + r.writes;
    result.failed += r.parse_failures + r.submit_failures;
    result.wrong += r.wrong_replies;
    result.unchecked += r.unchecked;
    for (const auto& [key, digest] : r.sampled) {
      if (!AddSample(&result.sampled, key, digest)) ++result.wrong;
    }
  }
  result.writes_done = std::move(env.writes_done);
  return result;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <read_hot|read_cold|write_mix>"
                 " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::filesystem::create_directories(args.out);
  const std::string tag =
      spec.name + "-" + std::to_string(args.seed) + "-" +
      std::to_string(static_cast<long long>(getpid()));
  const std::string durable_dir = args.out + "/durable-" + tag;

  const Inputs in = MakeInputs(spec);
  if (in.pool.empty()) Fail("empty query pool");
  const ReadTape read_tape(in.pool.size(), spec.zipf_s, spec.read_round,
                           args.seed);
  Tracer tracer(kMaxClientSpans, 1);
  Tracer* traced = args.trace ? &tracer : nullptr;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;

  // Set-up is timed kSetupReps times. The first stack serves the measured
  // phases; the read-only workloads run their write probe on a second,
  // fresh stack, so their reads see the initial state. The remaining
  // repetitions run last, so that their allocations do not shape the
  // heap the measured phases run on.
  SetupTimes setup;
  std::unique_ptr<Stack> stack = Setup(in, durable_dir, &setup);

  // Reference answers on the initial snapshot, and the workload's sizes.
  std::shared_ptr<const dki::IndexSnapshot> snap0 = stack->server->snapshot();
  const std::vector<std::vector<NodeId>> expected =
      References(in.pool, snap0->graph());
  const int64_t working_set = WorkingSetBytes(in.pool, expected);
  const int64_t budget = stack->server->options().cache_byte_budget;
  const int64_t nodes = snap0->graph().NumNodes();
  const int64_t edges = snap0->graph().NumEdges();
  const int64_t index_nodes = snap0->index().NumIndexNodes();
  if (spec.name == "read_hot" && working_set > budget) {
    Fail("read_hot's working set does not fit the result cache");
  }
  if (spec.name == "read_cold" && working_set < 2 * budget) {
    Fail("read_cold's working set is not twice the result cache");
  }

  PhaseSet reads, writes;
  double peak_rss_mb = 0;
  int64_t wrong = 0, failed = 0;
  if (spec.writer_client) {
    reads = RunPhaseSet(spec, in, stack.get(), read_tape, args.seed,
                        spec.reader_clients, -1, phase_s, traced, nullptr);
    peak_rss_mb = PeakRssMb();
    snap0.reset();
    writes = reads;
    reads.attempted = reads.failed = reads.wrong = 0;  // counted in writes
  } else {
    reads = RunPhaseSet(spec, in, stack.get(), read_tape, args.seed,
                        spec.reader_clients, 0, phase_s, traced, &expected);
    if (stack->server->snapshot() != snap0) Fail("a read-only phase published");
    wrong += CheckServerAnswers(*stack->server, in.pool, expected);
    snap0.reset();
    stack.reset();
    stack = Setup(in, durable_dir, &setup);
    writes = RunPhaseSet(spec, in, stack.get(), read_tape, args.seed, 0, -1,
                         phase_s * kProbeShare, traced, nullptr);
    peak_rss_mb = PeakRssMb();
  }
  dki::QueryServer& server = *stack->server;
  server.Stop();
  const dki::QueryServer::Stats final_stats = server.stats();
  wrong += CheckWrites(server, in, stack->reqs, durable_dir);
  failed += final_stats.ops_invalid;
  const int64_t sampled_checks = static_cast<int64_t>(writes.sampled.size());
  if (spec.writer_client) {
    if (server.snapshot()->seq() != writes.writes_done.size()) {
      Fail("the final snapshot's seq does not count the writer's ops");
    }
    const int64_t t0 = NowNs();
    wrong += CheckSampledReplies(*stack->graph, writes.writes_done, in.pool,
                                 writes.sampled);
    std::fprintf(stderr, "servebench: %lld sampled replies checked in %.1f s\n",
                 static_cast<long long>(sampled_checks),
                 static_cast<double>(NowNs() - t0) / 1e9);
  }

  const int64_t attempted = reads.attempted + writes.attempted;
  failed += reads.failed + writes.failed;
  wrong += reads.wrong + writes.wrong;
  const PhaseResult& rd = reads.phases.back();
  const PhaseResult& wr = writes.phases.back();
  const double read_tail_q = TailQuantile(rd.read_hist.count());
  const double write_tail_q = TailQuantile(wr.write_hist.count());
  const double error_share =
      static_cast<double>(failed) /
      static_cast<double>(std::max<int64_t>(1, attempted));

  // Sizes and sample counts, for the record.
  JsonObject details;
  details.Str("workload", spec.name);
  details.Num("seed", static_cast<double>(args.seed));
  details.Str("loop", "closed");
  details.Num("reader_clients", spec.reader_clients);
  details.Num("writer_clients", spec.writer_client ? 1 : 0);
  details.Str("dataset", spec.dataset);
  details.Num("scale", spec.scale);
  details.Num("xml_bytes", static_cast<double>(in.xml.size()));
  details.Num("nodes", static_cast<double>(nodes));
  details.Num("edges", static_cast<double>(edges));
  details.Num("index_nodes", static_cast<double>(index_nodes));
  details.Num("pool_size", static_cast<double>(in.pool.size()));
  details.Num("working_set_bytes", static_cast<double>(working_set));
  details.Num("cache_byte_budget", static_cast<double>(budget));
  details.Num("read_samples", static_cast<double>(rd.read_hist.count()));
  details.Num("read_tail_quantile", read_tail_q);
  details.Num("write_samples", static_cast<double>(wr.write_hist.count()));
  details.Num("write_tail_quantile", write_tail_q);
  details.Num("result_cache_hit_ratio",
              static_cast<double>(rd.cache_hits) /
                  static_cast<double>(std::max<int64_t>(
                      1, rd.cache_hits + rd.cache_misses)));
  for (int s = 0; s < kNumShapes; ++s) {
    // What the readers would sustain on this shape alone, and the shape's
    // share of their time.
    if (rd.shape_reads[s] == 0) continue;
    const std::string shape = ShapeName(static_cast<Shape>(s));
    int64_t all_ns = 0;
    for (int64_t ns : rd.shape_ns) all_ns += ns;
    details.Num("read_qps." + shape,
                static_cast<double>(rd.shape_reads[s]) * spec.reader_clients /
                    (static_cast<double>(rd.shape_ns[s]) / 1e9));
    details.Num("read_time_share." + shape,
                static_cast<double>(rd.shape_ns[s]) /
                    static_cast<double>(all_ns));
  }
  if (spec.writer_client) {
    details.Num("concurrent_distinct_replies_checked",
                static_cast<double>(sampled_checks));
    details.Num("concurrent_replies_unchecked",
                static_cast<double>(writes.unchecked));
  }
  details.Num("checkpoints", static_cast<double>(final_stats.checkpoints));
  details.Num("wrong_answers", static_cast<double>(wrong));
  details.Num("error_share", error_share);
  std::printf("%s\n", details.str().c_str());

  std::map<std::string, double> layer;
  if (args.trace) {
    ReplayInput replay;
    replay.initial = stack->index.get();
    replay.grow = stack->reqs;
    replay.shrink = ShrinkTargets(stack->reqs);
    replay.pool = &in.pool;
    replay.tape = &read_tape;
    replay.first_read = rd.first_read;
    replay.num_reads = read_tape.round();
    replay.warmup_threads = spec.reader_clients;
    replay.writes = writes.writes_done;
    replay.cache_byte_budget = budget;
    replay.work_dir = args.out + "/replay-" + tag;
    Tracer replay_tracer(kMaxReplaySpans, int64_t{1} << 40);
    layer = ReplayLayers(replay, &replay_tracer);

    std::vector<Span> spans = tracer.Collect();
    const std::vector<Span> replayed = replay_tracer.Collect();
    spans.insert(spans.end(), replayed.begin(), replayed.end());
    const std::string trace_path = args.out + "/trace-" + spec.name + ".json";
    if (!WriteChromeTrace(spans, trace_path)) {
      Fail("cannot write " + trace_path);
    }
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), spans.size());
    std::map<std::string, SpanSummary> sum = SummarizeSpans(spans);
    auto mean = [&](const char* name) { return sum[name].mean_ns; };
    auto self_p50 = [&](const char* name) { return sum[name].median_self_ns; };

    double eval_ns = 0, eval_n = 0;
    for (int s = 0; s < kNumShapes; ++s) {
      const std::string shape = ShapeName(static_cast<Shape>(s));
      const SpanSummary& eval = sum["query.eval." + shape];
      eval_ns += eval.mean_ns * static_cast<double>(eval.count);
      eval_n += static_cast<double>(eval.count);
      layer["query.eval_us." + shape] = Us(eval.mean_ns);
    }
    layer["query.eval_us"] = eval_n > 0 ? Us(eval_ns / eval_n) : 0.0;
    // The write path's stages as the replay timed them (median self times),
    // and what they leave of the traced visibility latency.
    const double visible_p50_ms = Ms(wr.write_hist.Quantile(0.5));
    const double stages_ms =
        Ms(self_p50("replay.write") + self_p50("serve.wal.append") +
           self_p50("serve.wal.sync") + self_p50("index.apply") +
           self_p50("serve.publish") + self_p50("graph.copy") +
           self_p50("index.clone") + self_p50("query.freeze") +
           self_p50("serve.swap"));
    const auto share = [](int64_t a, int64_t b) {
      return static_cast<double>(a) /
             static_cast<double>(std::max<int64_t>(1, a + b));
    };
    const Counters& rc = reads.traced;
    const Counters& wc = writes.traced;
    layer["index.nodes"] =
        static_cast<double>(server.snapshot()->index().NumIndexNodes());
    layer["index.apply_us"] = Us(mean("index.apply"));
    layer["index.retune_ms"] = Ms(mean("index.retune"));
    layer["index.clone_ms"] = Ms(mean("index.clone"));
    layer["graph.copy_ms"] = Ms(mean("graph.copy"));
    layer["pathexpr.parse_us"] = Us(mean("pathexpr.parse"));
    layer["query.parse_cache.hit_ratio"] =
        share(rc.parse_hits, rc.parse_misses);
    layer["query.result_cache.hit_ratio"] =
        share(rc.cache_hits, rc.cache_misses);
    layer["query.result_cache.probe_us"] = Us(mean("query.result_cache.probe"));
    layer["query.plan_us"] = Us(mean("query.plan"));
    layer["query.freeze_ms"] = Ms(mean("query.freeze"));
    layer["query.frozen_bytes"] =
        static_cast<double>(server.snapshot()->frozen().ApproxBytes());
    layer["serve.publish_ms"] = Ms(mean("serve.publish"));
    layer["serve.swap_ms"] = Ms(mean("serve.swap"));
    layer["serve.batch_ops"] =
        static_cast<double>(wc.ops_applied) /
        static_cast<double>(std::max<int64_t>(1, wc.batches));
    layer["serve.wal.append_us"] = Us(mean("serve.wal.append"));
    layer["serve.wal.sync_ms"] = Ms(mean("serve.wal.sync"));
    layer["serve.checkpoint_ms"] = Ms(mean("serve.checkpoint"));
    layer["serve.queue_wait_ms"] = visible_p50_ms - stages_ms;
    layer["serve.recover_ms"] = Ms(mean("serve.recover"));
    layer["trace.overhead.read_p50_us"] =
        Us(rd.read_hist.Quantile(0.5) -
           reads.phases.front().read_hist.Quantile(0.5));
    layer["trace.overhead.write_visible_p50_ms"] =
        Ms(wr.write_hist.Quantile(0.5) -
           writes.phases.front().write_hist.Quantile(0.5));
    std::printf("write_visible_p50_ms %.4f = stages %.4f + queue_wait %.4f\n",
                visible_p50_ms, stages_ms, visible_p50_ms - stages_ms);
  }
  stack.reset();
  std::filesystem::remove_all(durable_dir);
  while (static_cast<int>(setup.total_s.size()) < kSetupReps) {
    Setup(in, durable_dir, &setup).reset();
  }
  std::filesystem::remove_all(durable_dir);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(setup.total_s)},
        {"read_qps", "1/s", ReadQps(rd, read_tape.round())},
        {"read_p50_us", "us", Us(rd.read_hist.Quantile(0.5))},
        {"read_p99_us", "us", Us(rd.read_hist.Quantile(read_tail_q))},
        {"write_ops_s", "1/s",
         static_cast<double>(wr.writes) / wr.write_seconds},
        {"write_visible_p50_ms", "ms", Ms(wr.write_hist.Quantile(0.5))},
        {"write_visible_p99_ms", "ms",
         Ms(wr.write_hist.Quantile(write_tail_q))},
        {"peak_rss_mb", "MB", peak_rss_mb},
        {"success_share", "share", 1.0 - error_share},
    };
  } else {
    layer["xml.load_s"] = Median(setup.load_s);
    layer["index.build_s"] = Median(setup.build_s);
    for (const auto& [name, value] : layer) {
      std::string unit = "count";
      if (name.ends_with("_us") || name.find("_us.") != std::string::npos) {
        unit = "us";
      } else if (name.ends_with("_ms")) {
        unit = "ms";
      } else if (name.ends_with("_s")) {
        unit = "s";
      } else if (name.ends_with("share") || name.ends_with("ratio")) {
        unit = "share";
      } else if (name.find("bytes") != std::string::npos) {
        unit = "bytes";
      }
      metrics.push_back({name, unit, value});
    }
  }

  const bool correct = wrong == 0;
  JsonObject m;
  for (const Metric& metric : metrics) {
    JsonObject v;
    v.Num("value", metric.value);
    v.Str("unit", metric.unit);
    m.Raw(metric.name, v.str());
  }
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false");
  result.Int("attempted", attempted);
  result.Int("failed", failed);
  result.Raw("metrics", m.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
