// The layer replay of a traced run. QueryServer's internals cannot be timed
// from outside, so the requests the clients sent are replayed, single
// threaded, through the same public functions in the order QueryServer
// calls them:
//
//   read:  ParseCache::Get -> ResultCache::TryGet -> FrozenView::PlanQuery
//          -> FrozenView::Evaluate -> ResultCache::Put
//   write: WriteAheadLog::Append/Sync -> ApplyUpdateOp -> IndexSnapshot's
//          three steps (DataGraph copy, IndexGraph::CloneOnto, FrozenView)
//          with CheckpointStore::Write on the checkpointer's cadence, and
//          RecoverDkIndex once at the end.
//
// Each call gets a span; counts come from EvalStats and the metrics
// registry, read at the same boundaries. Before the timed reads, every read
// the server answered earlier is replayed untimed, so the timed ones meet
// caches and planner history like the server's, and a fixed count of them
// is timed whatever the speed of the code.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/metrics.h"
#include "io/fs_util.h"
#include "query/frozen_view.h"
#include "query/parse_cache.h"
#include "query/result_cache.h"
#include "serve/apply.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"

namespace servebench {
namespace {

constexpr int64_t kMaxReadReplays = 8192;
// QueryServer's parse cache capacity (QueryServer::kMaxParsedQueries).
constexpr size_t kParseCacheEntries = 4096;
constexpr size_t kMaxWriteReplayOps = 2 * kWriteRound;

int64_t CounterValue(const char* name) {
  return dki::MetricsRegistry::Global().GetCounter(name).value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const char* kEvalSpan[kNumShapes] = {
    "query.eval.chain", "query.eval.wildcard_start",
    "query.eval.alternation_star", "query.eval.dead_label",
    "query.eval.closure"};

}  // namespace

std::map<std::string, double> ReplayLayers(const ReplayInput& input,
                                           Tracer* tracer) {
  std::map<std::string, double> out;
  Tracer::Buffer* buf = tracer->NewBuffer();
  int64_t request = 1'000'000'000;  // apart from the clients' request ids

  dki::DataGraph master_graph(input.initial->graph());
  dki::DkIndex master = input.initial->Fork(&master_graph);

  // ---- reads, against the initial state's frozen view.
  {
    dki::FrozenView view(master.index());
    dki::FrozenScratch scratch;
    dki::ParseCache parse_cache("servebench.replay.parse_cache",
                                kParseCacheEntries);
    dki::ResultCache cache(dki::ResultCache::Options{input.cache_byte_budget});
    const auto query_at = [&](int64_t i) {
      return &(*input.pool)[input.tape->At(i)];
    };
    {
      std::atomic<int64_t> next{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < input.warmup_threads; ++t) {
        threads.emplace_back([&] {
          dki::FrozenScratch local;
          for (int64_t i; (i = next.fetch_add(1)) < input.first_read;) {
            const std::string& text = query_at(i)->text;
            std::string error;
            auto expr = parse_cache.Get(text, master_graph.labels(), &error);
            if (expr == nullptr) continue;
            const std::string key = dki::CanonicalizeQuery(text);
            std::vector<NodeId> result;
            if (cache.TryGet(key, view.epoch(), &result)) continue;
            cache.Put(key, view.epoch(),
                      view.Evaluate(*expr, nullptr, /*validate=*/true, &local));
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    std::map<std::string, int64_t> plans;
    dki::EvalStats total;
    int64_t evals = 0;
    const int64_t n = std::min(input.num_reads, kMaxReadReplays);
    std::vector<const Query*> distinct;
    for (int64_t i = input.first_read; i < input.first_read + n; ++i) {
      const Query* q = query_at(i);
      distinct.push_back(q);
      ScopedSpan root(tracer, buf, "replay.read", ++request);
      std::shared_ptr<const dki::PathExpression> expr;
      {
        ScopedSpan span(tracer, buf, "query.parse_cache", request);
        std::string error;
        expr = parse_cache.Get(q->text, master_graph.labels(), &error);
      }
      if (expr == nullptr) continue;
      std::string key;
      std::vector<NodeId> result;
      bool hit;
      {
        ScopedSpan span(tracer, buf, "query.result_cache.probe", request);
        key = dki::CanonicalizeQuery(q->text);
        hit = cache.TryGet(key, view.epoch(), &result);
      }
      if (hit) continue;
      dki::EvalPlan plan;
      {
        ScopedSpan span(tracer, buf, "query.plan", request);
        plan = view.PlanQuery(*expr, /*validate=*/true);
      }
      ++plans[plan.empty ? "empty" : dki::EvalBackendName(plan.backend)];
      dki::EvalStats stats;
      {
        ScopedSpan span(tracer, buf, kEvalSpan[static_cast<int>(q->shape)],
                        request);
        result = view.Evaluate(*expr, &stats, /*validate=*/true, &scratch);
      }
      total.Accumulate(stats);
      ++evals;
      {
        ScopedSpan span(tracer, buf, "query.result_cache.put", request);
        cache.Put(key, view.epoch(), std::move(result));
      }
    }
    // Parsing alone, once per distinct text the replay saw.
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (const Query* q : distinct) {
      ScopedSpan span(tracer, buf, "pathexpr.parse", ++request);
      std::string error;
      (void)dki::PathExpression::Parse(q->text, master_graph.labels(), &error);
    }
    for (const char* backend :
         {"nfa", "dfa", "prefilter", "dfa_prefilter", "reverse", "empty"}) {
      out[std::string("query.plan.") + backend + ".share"] =
          Ratio(static_cast<double>(plans[backend]),
                static_cast<double>(evals));
    }
    out["query.index_nodes_visited_per_query"] =
        Ratio(static_cast<double>(total.index_nodes_visited),
              static_cast<double>(evals));
    out["query.data_nodes_visited_per_query"] =
        Ratio(static_cast<double>(total.data_nodes_visited),
              static_cast<double>(evals));
    out["query.validated_per_result"] =
        Ratio(static_cast<double>(total.validated_candidates),
              static_cast<double>(total.result_size));
  }

  // ---- writes, through a private WAL and checkpoint store.
  std::filesystem::remove_all(input.work_dir);
  std::string error;
  DKI_CHECK(dki::EnsureDir(input.work_dir, &error));
  {
    const dki::DurabilityOptions defaults;
    dki::WriteAheadLog wal(input.work_dir + "/wal.log", defaults.sync_every_n,
                           defaults.sync_interval_ms);
    dki::CheckpointStore store(input.work_dir);
    DKI_CHECK(wal.Open(&error));
    uint64_t seq = 0;
    DKI_CHECK(store.Write(master_graph, master.index(),
                          master.effective_requirements(), seq, &error));
    DKI_CHECK(wal.Reset(&error));

    int64_t wal_bytes = 0, recomputed = 0, ops = 0, checkpoints = 0;
    int64_t checkpoint_bytes = 0;
    // The checkpointer's cadence under QueryServer's default options.
    const int64_t checkpoint_interval_ns =
        defaults.checkpoint_interval_ms * 1'000'000;
    int64_t last_checkpoint = NowNs();
    // The published state: what IndexSnapshot holds.
    struct Published {
      std::unique_ptr<dki::DataGraph> graph;
      std::unique_ptr<dki::IndexGraph> index;
      std::unique_ptr<dki::FrozenView> frozen;
    } published;
    const size_t n = std::min(input.writes.size(), kMaxWriteReplayOps);
    for (size_t i = 0; i < n; ++i) {
      const WriteOp& w = input.writes[i];
      const dki::UpdateOp op = ToUpdateOp(w, input.grow, input.shrink);
      const bool retune =
          w.kind == WriteOp::kRetuneShrink || w.kind == WriteOp::kRetuneGrow;
      {
        ScopedSpan root(tracer, buf, "replay.write", ++request);
        {
          ScopedSpan span(tracer, buf, "serve.wal.append", request);
          DKI_CHECK(wal.Append(op, ++seq, &error));
        }
        wal_bytes += static_cast<int64_t>(
            dki::WriteAheadLog::EncodeRecord(op, seq).size());
        {
          ScopedSpan span(tracer, buf, "serve.wal.sync", request);
          DKI_CHECK(wal.Sync(/*force=*/false, &error));
        }
        const int64_t before =
            CounterValue("index.dk.incremental_rebuild.recomputed_nodes");
        {
          ScopedSpan span(tracer, buf, retune ? "index.retune" : "index.apply",
                          request);
          DKI_CHECK(dki::ApplyUpdateOp(&master, op));
        }
        recomputed +=
            CounterValue("index.dk.incremental_rebuild.recomputed_nodes") -
            before;
        ++ops;
        ScopedSpan publish(tracer, buf, "serve.publish", request);
        Published next;
        {
          ScopedSpan span(tracer, buf, "graph.copy", request);
          next.graph = std::make_unique<dki::DataGraph>(master_graph);
        }
        {
          ScopedSpan span(tracer, buf, "index.clone", request);
          next.index = std::make_unique<dki::IndexGraph>(
              master.index().CloneOnto(next.graph.get()));
        }
        {
          ScopedSpan span(tracer, buf, "query.freeze", request);
          next.frozen = std::make_unique<dki::FrozenView>(*next.index);
        }
        {
          // Replacing the published state frees the previous one.
          ScopedSpan span(tracer, buf, "serve.swap", request);
          published = std::move(next);
        }
      }
      if (NowNs() - last_checkpoint >= checkpoint_interval_ns || i + 1 == n) {
        ScopedSpan root(tracer, buf, "replay.checkpointer", ++request);
        ScopedSpan span(tracer, buf, "serve.checkpoint", request);
        DKI_CHECK(wal.Sync(/*force=*/true, &error));
        DKI_CHECK(store.Write(*published.graph, *published.index,
                              master.effective_requirements(), seq, &error));
        DKI_CHECK(wal.TruncateThrough(store.SafeTruncationSeq(), &error));
        checkpoint_bytes += static_cast<int64_t>(
            std::filesystem::file_size(store.List().front().path));
        ++checkpoints;
        last_checkpoint = NowNs();
      }
    }
    out["serve.wal.bytes_per_op"] =
        Ratio(static_cast<double>(wal_bytes), static_cast<double>(ops));
    out["index.recomputed_nodes_per_op"] =
        Ratio(static_cast<double>(recomputed), static_cast<double>(ops));
    out["serve.checkpoint_bytes"] = Ratio(static_cast<double>(checkpoint_bytes),
                                          static_cast<double>(checkpoints));
  }
  {
    ScopedSpan root(tracer, buf, "replay.recover", ++request);
    ScopedSpan span(tracer, buf, "serve.recover", request);
    dki::DataGraph graph;
    dki::RecoveryStats stats;
    auto recovered =
        dki::RecoverDkIndex(input.work_dir, &graph, &stats, &error);
    DKI_CHECK(recovered.has_value());
    DKI_CHECK_EQ(graph.NumEdges(), master_graph.NumEdges());
  }
  std::filesystem::remove_all(input.work_dir);
  return out;
}

}  // namespace servebench
