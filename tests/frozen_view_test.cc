// Equivalence suite for the frozen read path (query/frozen_view.h): frozen
// evaluation — single-query, batched over 1..8 threads, and with parallel
// uncertain-extent validation — must be bit-identical to the reference
// evaluators in results, across the workload generator's query mix on XMark
// and NASA — and in EvalStats, pop for pop, whenever the planner runs the
// plain NFA traversal (no prefilter anchor, no empty short-circuit).

#include "query/frozen_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/one_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "query/result_cache.h"
#include "query/workload.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// True when `view` runs `query` as the plain NFA traversal, the plan whose
// EvalStats match query/evaluator.cc pop for pop. Prefiltered and empty
// plans visit less by design (tests/backend_diff_test.cc holds their
// results bit-identical and bounds their stats).
bool PlainNfaPlan(const FrozenView& view, const PathExpression& query,
                  bool validate) {
  const EvalPlan plan = view.PlanQuery(query, validate);
  return !plan.empty && plan.backend == EvalBackend::kNfa &&
         plan.anchor_label == kInvalidLabel;
}

void ExpectStatsEq(const EvalStats& want, const EvalStats& got,
                   const std::string& context) {
  EXPECT_EQ(want.index_nodes_visited, got.index_nodes_visited) << context;
  EXPECT_EQ(want.data_nodes_visited, got.data_nodes_visited) << context;
  EXPECT_EQ(want.validated_candidates, got.validated_candidates) << context;
  EXPECT_EQ(want.uncertain_index_nodes, got.uncertain_index_nodes) << context;
  EXPECT_EQ(want.result_size, got.result_size) << context;
}

// Asserts frozen == reference for one (index, query) pair, on both the
// index path and the data-graph path, with and without validation. Returns
// how many index-path stats comparisons it made, so callers can assert the
// stats check did not go vacuous.
int ExpectFrozenMatchesReference(const IndexGraph& index,
                                 const FrozenView& view,
                                 const PathExpression& query,
                                 FrozenScratch* scratch) {
  const std::string ctx = "query: " + query.text();
  int stats_checks = 0;
  for (bool validate : {true, false}) {
    EvalStats ref_stats, frozen_stats;
    std::vector<NodeId> ref =
        EvaluateOnIndex(index, query, &ref_stats, validate);
    std::vector<NodeId> frozen =
        view.Evaluate(query, &frozen_stats, validate, scratch);
    EXPECT_EQ(ref, frozen) << ctx << " validate=" << validate;
    if (PlainNfaPlan(view, query, validate)) {
      ExpectStatsEq(ref_stats, frozen_stats,
                    ctx + " validate=" + std::to_string(validate));
      ++stats_checks;
    }
  }
  EvalStats ref_stats, frozen_stats;
  std::vector<NodeId> ref =
      EvaluateOnDataGraph(index.graph(), query, &ref_stats);
  std::vector<NodeId> frozen =
      view.EvaluateOnData(query, &frozen_stats, scratch);
  EXPECT_EQ(ref, frozen) << ctx << " (data path)";
  ExpectStatsEq(ref_stats, frozen_stats, ctx + " (data path)");
  return stats_checks;
}

// The workload generator's query mix over `graph`, plus a few handwritten
// expressions exercising wildcards, alternation and closures (the workload
// itself emits plain chains).
std::vector<std::string> MixedQueries(const DataGraph& graph, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions options;
  options.num_queries = 30;
  Workload load = GenerateWorkload(graph, options, &rng);
  std::vector<std::string> queries = load.queries;
  queries.push_back("_");
  queries.push_back("_._");
  if (!load.queries.empty()) {
    queries.push_back("(" + load.queries[0] + ")|(_._._)");
    queries.push_back("_*." + load.queries[0]);
  }
  queries.push_back("no_such_label_anywhere");
  return queries;
}

TEST(FrozenViewTest, MovieGraphMatchesReferenceOnAllIndexKinds) {
  DataGraph g = testing_util::BuildMovieGraph();
  const std::vector<std::string> queries = {
      "movieDB.director.movie",       "movie.title",
      "director.movie.title",         "actor.movie",
      "_.movie",                      "(director|actor).movie",
      "movieDB._._",                  "_*.title",
      "actor",                        "does_not_exist.movie",
  };

  IndexGraph one = OneIndex::Build(&g);
  AkIndex a0 = AkIndex::Build(&g, 0);
  AkIndex a2 = AkIndex::Build(&g, 2);
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);

  const std::vector<const IndexGraph*> kinds = {&one, &a0.index(),
                                                &a2.index(), &dk.index()};
  int stats_checks = 0;
  for (const IndexGraph* index : kinds) {
    FrozenView view(*index);
    EXPECT_EQ(view.epoch(), index->epoch());
    EXPECT_EQ(view.num_data_nodes(), g.NumNodes());
    EXPECT_EQ(view.num_index_nodes(), index->NumIndexNodes());
    EXPECT_GT(view.ApproxBytes(), 0);
    FrozenScratch scratch;  // shared across queries: exercises reuse
    for (const std::string& text : queries) {
      stats_checks += ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
  EXPECT_GT(stats_checks, 0);
}

TEST(FrozenViewTest, RandomGraphsMatchReference) {
  Rng rng(7);
  int stats_checks = 0;
  for (int round = 0; round < 8; ++round) {
    DataGraph g = testing_util::RandomGraph(/*n=*/120, /*num_labels=*/6,
                                            /*extra_edges=*/25, &rng);
    AkIndex ak = AkIndex::Build(&g, static_cast<int>(round % 4));
    FrozenView view(ak.index());
    FrozenScratch scratch;
    for (int q = 0; q < 12; ++q) {
      std::string text = testing_util::RandomChainQuery(
          g, 2 + static_cast<int>(rng.UniformInt(0, 3)), &rng);
      stats_checks += ExpectFrozenMatchesReference(
          ak.index(), view, testing_util::MustParse(text, g.labels()),
          &scratch);
    }
  }
  EXPECT_GT(stats_checks, 0);
}

TEST(FrozenViewTest, XmarkWorkloadMatchesReference) {
  XmarkOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  std::vector<std::string> queries = MixedQueries(g, 11);

  // D(k) mined from the load (mostly certain answers) AND a low-k A(k)
  // (many k-uncertain extents, exercising the validation path).
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);

  int stats_checks = 0;
  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    FrozenView view(*index);
    FrozenScratch scratch;
    for (const std::string& text : queries) {
      stats_checks += ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
  EXPECT_GT(stats_checks, 0);
}

TEST(FrozenViewTest, NasaWorkloadMatchesReference) {
  NasaOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateNasaGraph(opt).graph;
  std::vector<std::string> queries = MixedQueries(g, 13);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);

  int stats_checks = 0;
  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    FrozenView view(*index);
    FrozenScratch scratch;
    for (const std::string& text : queries) {
      stats_checks += ExpectFrozenMatchesReference(
          *index, view, testing_util::MustParse(text, g.labels()), &scratch);
    }
  }
  EXPECT_GT(stats_checks, 0);
}

TEST(FrozenViewTest, BatchMatchesSequentialAcrossThreadCounts) {
  XmarkOptions opt;
  opt.scale = 0.06;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  std::vector<std::string> texts = MixedQueries(g, 17);
  AkIndex ak = AkIndex::Build(&g, 1);
  FrozenView view(ak.index());

  std::vector<PathExpression> queries;
  for (const std::string& t : texts) {
    queries.push_back(testing_util::MustParse(t, g.labels()));
  }

  int stats_checks = 0;
  std::vector<std::vector<NodeId>> want_results;
  for (bool validate : {true, false}) {
    // Ground truth: the reference evaluator's answers, and sequential
    // frozen stats (equal to the reference's under a plain NFA plan).
    want_results.clear();
    std::vector<EvalStats> want_stats;
    FrozenScratch seq_scratch;
    for (const PathExpression& q : queries) {
      EvalStats ref_stats, seq_stats;
      want_results.push_back(
          EvaluateOnIndex(ak.index(), q, &ref_stats, validate));
      view.Evaluate(q, &seq_stats, validate, &seq_scratch);
      if (PlainNfaPlan(view, q, validate)) {
        ExpectStatsEq(ref_stats, seq_stats, "sequential " + q.text());
        ++stats_checks;
      }
      want_stats.push_back(seq_stats);
    }
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      std::vector<EvalStats> got_stats;
      std::vector<std::vector<NodeId>> got =
          view.EvaluateBatch(queries, &pool, &got_stats, validate);
      ASSERT_EQ(got.size(), queries.size());
      ASSERT_EQ(got_stats.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(want_results[i], got[i])
            << "threads=" << threads << " query=" << texts[i];
        ExpectStatsEq(want_stats[i], got_stats[i],
                      "threads=" + std::to_string(threads) +
                          " query=" + texts[i]);
      }
    }
  }
  EXPECT_GT(stats_checks, 0);
  // Persistent per-lane scratches, as a server passes them: one vector
  // reused across thread counts (growing on demand) and both validate
  // modes must not carry state between batches.
  std::vector<std::unique_ptr<FrozenScratch>> lanes;
  for (bool validate : {true, false}) {
    const std::vector<std::vector<NodeId>> want =
        view.EvaluateBatch(queries, nullptr, nullptr, validate);
    for (int threads : {2, 1, 4, 8, 2}) {
      ThreadPool pool(threads);
      EXPECT_EQ(view.EvaluateBatch(queries, &pool, nullptr, validate, &lanes),
                want)
          << "persistent lanes, threads=" << threads
          << " validate=" << validate;
    }
  }
  // Null pool runs inline (want_results now holds the validate=false truth).
  std::vector<std::vector<NodeId>> inline_results =
      view.EvaluateBatch(queries, nullptr, nullptr, /*validate=*/false);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(want_results[i], inline_results[i]);
  }
}

TEST(FrozenViewTest, ParallelValidationMatchesSequential) {
  // A(0) leaves every non-depth-0 match uncertain, so a multi-label chain
  // pushes hundreds of candidates through validation — well past
  // kParallelValidationThreshold, exercising the in-query fan-out.
  XmarkOptions opt;
  opt.scale = 0.12;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  AkIndex a0 = AkIndex::Build(&g, 0);
  FrozenView view(a0.index());
  ThreadPool pool(4);

  std::vector<std::string> texts = MixedQueries(g, 19);
  bool exercised_fanout = false;
  int stats_checks = 0;
  FrozenScratch seq_scratch, par_scratch;
  for (const std::string& text : texts) {
    PathExpression query = testing_util::MustParse(text, g.labels());
    EvalStats ref_stats, seq_stats, par_stats;
    std::vector<NodeId> ref = EvaluateOnIndex(a0.index(), query, &ref_stats);
    std::vector<NodeId> seq =
        view.Evaluate(query, &seq_stats, /*validate=*/true, &seq_scratch);
    std::vector<NodeId> par = view.Evaluate(query, &par_stats,
                                            /*validate=*/true, &par_scratch,
                                            &pool);
    EXPECT_EQ(ref, seq) << text;
    EXPECT_EQ(ref, par) << text;
    ExpectStatsEq(seq_stats, par_stats, "par " + text);
    if (PlainNfaPlan(view, query, /*validate=*/true)) {
      ExpectStatsEq(ref_stats, seq_stats, "seq " + text);
      ++stats_checks;
    }
    if (seq_stats.validated_candidates >=
        FrozenView::kParallelValidationThreshold) {
      exercised_fanout = true;
    }
  }
  EXPECT_TRUE(exercised_fanout)
      << "workload never crossed the parallel-validation threshold; "
         "the fan-out path went untested";
  EXPECT_GT(stats_checks, 0);
}

TEST(FrozenViewTest, ResultCacheServesFrozenPath) {
  DataGraph g = testing_util::BuildMovieGraph();
  AkIndex ak = AkIndex::Build(&g, 1);
  FrozenView view(ak.index());
  PathExpression query =
      testing_util::MustParse("director.movie.title", g.labels());

  ResultCache cache;
  EvalStats miss_stats;
  std::vector<NodeId> first =
      cache.CachedEvaluate(view, query, &miss_stats);
  EXPECT_EQ(first, EvaluateOnIndex(ak.index(), query));
  EXPECT_EQ(cache.stats().misses, 1);

  EvalStats hit_stats;
  std::vector<NodeId> second = cache.CachedEvaluate(view, query, &hit_stats);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(hit_stats.index_nodes_visited, 0);  // served from memory
  EXPECT_EQ(hit_stats.result_size, miss_stats.result_size);
}

TEST(FrozenViewTest, ScratchReusesAcrossViewsAndQueries) {
  // One scratch across different graphs, views, automaton sizes and label
  // universes: the per-query recompile key and the generation-stamped
  // arrays must never leak state between evaluations.
  Rng rng(23);
  FrozenScratch scratch;
  for (int round = 0; round < 4; ++round) {
    DataGraph g = testing_util::RandomGraph(
        /*n=*/60 + round * 40, /*num_labels=*/3 + round * 4,
        /*extra_edges=*/10, &rng);
    AkIndex ak = AkIndex::Build(&g, 1);
    FrozenView view(ak.index());
    for (int q = 0; q < 6; ++q) {
      std::string text = testing_util::RandomChainQuery(g, 3, &rng);
      PathExpression query = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(EvaluateOnIndex(ak.index(), query),
                view.Evaluate(query, nullptr, true, &scratch))
          << text;
    }
  }
}

TEST(FrozenViewTest, ScratchReusedAfterMutationAtSameShape) {
  // A server thread keeps its scratch across snapshot swaps. After an edge
  // insertion the new view has the same node count and label universe, so
  // nothing in the scratch is resized: the generation stamps and the
  // text-keyed compiled-query cache alone must keep answers fresh.
  Rng rng(127);
  DataGraph g = testing_util::RandomGraph(250, 5, 50, &rng);
  DkIndex dk = DkIndex::Build(&g, {});
  const FrozenView before(dk.index());

  dk.AddEdge(static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1)),
             static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1)));
  const FrozenView after(dk.index());
  ASSERT_EQ(after.num_data_nodes(), before.num_data_nodes());

  FrozenScratch scratch;
  for (int q = 0; q < 10; ++q) {
    const std::string text = testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(1, 4)), &rng);
    const PathExpression query = testing_util::MustParse(text, g.labels());
    (void)before.Evaluate(query, nullptr, true, &scratch);  // warm
    EXPECT_EQ(after.Evaluate(query, nullptr, true, &scratch),
              EvaluateOnIndex(dk.index(), query))
        << text;
    EXPECT_EQ(after.EvaluateOnData(query, nullptr, &scratch),
              EvaluateOnDataGraph(g, query))
        << text;
  }
}

TEST(FrozenViewTest, ApproxBytesCoversTheOwnedArrays) {
  // ApproxBytes is the view's footprint: at least four bytes per entry of
  // every owned array (label buckets' offset arrays left out).
  XmarkOptions opt;
  opt.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  AkIndex ak = AkIndex::Build(&g, 2);
  const FrozenView view(ak.index());
  const int64_t n = g.NumNodes();
  const int64_t m = ak.index().NumIndexNodes();
  const int64_t data_side = 2 * n + 2 * (n + 1) + 2 * g.NumEdges();
  const int64_t index_side = 3 * m + 3 * (m + 1) +
                             2 * ak.index().NumIndexEdges() + n;
  EXPECT_GE(view.ApproxBytes(),
            static_cast<int64_t>(sizeof(int32_t)) * (data_side + index_side));
}

// Satellite: the label inverted indexes behind the bucket-backed
// NodesWithLabel must agree with a full scan, on both graphs, including
// unknown/invalid labels.
TEST(FrozenViewTest, NodesWithLabelMatchesScan) {
  XmarkOptions opt;
  opt.scale = 0.05;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  AkIndex ak = AkIndex::Build(&g, 2);
  const IndexGraph& index = ak.index();

  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    std::vector<NodeId> scan;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.label(v) == l) scan.push_back(v);
    }
    EXPECT_EQ(scan, g.NodesWithLabel(l)) << "data label " << l;

    std::vector<IndexNodeId> index_scan;
    for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
      if (index.label(i) == l) index_scan.push_back(i);
    }
    EXPECT_EQ(index_scan, index.NodesWithLabel(l)) << "index label " << l;
  }
  EXPECT_TRUE(g.NodesWithLabel(kInvalidLabel).empty());
  EXPECT_TRUE(g.NodesWithLabel(static_cast<LabelId>(g.labels().size()))
                  .empty());
  EXPECT_TRUE(index.NodesWithLabel(kInvalidLabel).empty());
}

// Satellite: buckets stay correct through the Section 5 mutation paths
// (SplitOff via update algorithms, AppendNode via subgraph merges).
TEST(FrozenViewTest, NodesWithLabelSurvivesMutations) {
  Rng rng(29);
  DataGraph g = testing_util::RandomGraph(80, 5, 15, &rng);
  LabelRequirements reqs;
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    reqs[l] = 2;
  }
  DkIndex dk = DkIndex::Build(&g, reqs);
  for (int i = 0; i < 10; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    dk.AddEdge(u, v);
  }
  const IndexGraph& index = dk.index();
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    std::vector<IndexNodeId> scan;
    for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
      if (index.label(i) == l) scan.push_back(i);
    }
    EXPECT_EQ(scan, index.NodesWithLabel(l)) << "after updates, label " << l;
  }
}

}  // namespace
}  // namespace dki
