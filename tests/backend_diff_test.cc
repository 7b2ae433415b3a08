// Differential suite for the planned read path (query/backend.h): whatever
// the static planner picks — plain NFA traversal, the required-label
// prefilter, or the empty short-circuit — FrozenView::Evaluate must return
// RESULTS bit-identical to the reference EvaluateOnIndex, in both validate
// modes, on random graphs, XMark and NASA, and across epochs. Stats are
// checked per plan shape: a plain kNfa plan matches the reference
// pop-for-pop; a prefilter plan visits no more index pairs and leaves every
// other counter unchanged; an empty plan visits nothing. And the plan,
// hence the stats, must not depend on how often or on which view a query
// ran before.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "query/load_analyzer.h"
#include "query/workload.h"
#include "serve/apply.h"
#include "tests/test_util.h"

namespace dki {
namespace {

// The label with the smallest non-empty population (skipping the root): the
// most selective prefilter anchor the graph offers.
std::string RarestLabel(const DataGraph& g) {
  LabelId rare = kInvalidLabel;
  size_t rare_pop = 0;
  for (LabelId l = 1; l < static_cast<LabelId>(g.labels().size()); ++l) {
    const size_t pop = g.NodesWithLabel(l).size();
    if (pop > 0 && (rare == kInvalidLabel || pop < rare_pop)) {
      rare = l;
      rare_pop = pop;
    }
  }
  return std::string(g.labels().Name(rare));
}

// The workload generator's chains plus handwritten expressions picking the
// shapes the planner routes differently: wildcard starts anchored on a rare
// required label (prefilter bait once the index has kPrefilterMinSeeds
// nodes), alternation and closures, and dead/absent labels (empty
// short-circuit).
std::vector<std::string> BackendQueries(const DataGraph& g, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions options;
  options.num_queries = 20;
  Workload load = GenerateWorkload(g, options, &rng);
  std::vector<std::string> queries = load.queries;
  for (int len : {2, 3, 4}) {
    queries.push_back(testing_util::RandomChainQuery(g, len, &rng));
  }
  const std::string a = testing_util::RandomChainQuery(g, 1, &rng);
  const std::string b = testing_util::RandomChainQuery(g, 2, &rng);
  queries.push_back("_");
  queries.push_back("_." + a);
  queries.push_back("_*." + a);
  queries.push_back("_._." + a);
  queries.push_back("(" + a + ")|(" + b + ")");
  queries.push_back("(" + b + ")|(_._)");
  queries.push_back(a + "._*");
  queries.push_back(a + "?._");
  const std::string rare = RarestLabel(g);
  queries.push_back("_._." + rare);
  queries.push_back("_*." + rare);
  queries.push_back("_." + rare + "._");
  queries.push_back("label_absent_from_this_graph");
  queries.push_back("_.label_absent_from_this_graph._");
  return queries;
}

std::string PlanName(const EvalPlan& plan) {
  return plan.empty ? "empty" : EvalBackendName(plan.backend);
}

void ExpectSameStats(const EvalStats& want, const EvalStats& got,
                     const std::string& context) {
  EXPECT_EQ(want.index_nodes_visited, got.index_nodes_visited) << context;
  EXPECT_EQ(want.data_nodes_visited, got.data_nodes_visited) << context;
  EXPECT_EQ(want.validated_candidates, got.validated_candidates) << context;
  EXPECT_EQ(want.uncertain_index_nodes, got.uncertain_index_nodes) << context;
  EXPECT_EQ(want.result_size, got.result_size) << context;
}

// How often each plan shape came up in one suite, so a suite can assert it
// actually exercised the shapes it is meant to cover.
struct PlanCounts {
  int nfa = 0;
  int prefilter = 0;
  int empty = 0;

  void Add(const PlanCounts& o) {
    nfa += o.nfa;
    prefilter += o.prefilter;
    empty += o.empty;
  }
  void ExpectAllShapes() const {
    EXPECT_GT(nfa, 0);
    EXPECT_GT(prefilter, 0);
    EXPECT_GT(empty, 0);
  }
};

// Checks planner == reference(EvaluateOnIndex) for every query in both
// validate modes on one view of `index`, plus the per-shape stats contract
// from the file comment.
PlanCounts ExpectPlannerMatchesReference(
    const IndexGraph& index, const DataGraph& g,
    const std::vector<std::string>& texts) {
  FrozenView view(index);
  FrozenScratch scratch;
  EXPECT_EQ(view.epoch(), index.epoch());

  PlanCounts counts;
  for (const std::string& text : texts) {
    const PathExpression query = testing_util::MustParse(text, g.labels());
    for (bool validate : {true, false}) {
      const EvalPlan plan = view.PlanQuery(query, validate);
      const std::string ctx = "plan=" + PlanName(plan) + " validate=" +
                              std::to_string(validate) + " query=" + text;
      EvalStats want_stats, got_stats;
      const std::vector<NodeId> want =
          EvaluateOnIndex(index, query, &want_stats, validate);
      const std::vector<NodeId> got =
          view.Evaluate(query, &got_stats, validate, &scratch);
      EXPECT_EQ(want, got) << ctx;

      if (plan.empty) {
        ++counts.empty;
        EXPECT_TRUE(want.empty()) << ctx;
        ExpectSameStats(EvalStats(), got_stats, ctx);
      } else if (plan.backend == EvalBackend::kNfa) {
        ++counts.nfa;
        EXPECT_EQ(plan.anchor_label, kInvalidLabel) << ctx;
        ExpectSameStats(want_stats, got_stats, ctx);
      } else {
        ++counts.prefilter;
        EXPECT_NE(plan.anchor_label, kInvalidLabel) << ctx;
        EXPECT_LE(got_stats.index_nodes_visited,
                  want_stats.index_nodes_visited)
            << ctx;
        EvalStats pruned = want_stats;
        pruned.index_nodes_visited = got_stats.index_nodes_visited;
        ExpectSameStats(pruned, got_stats, ctx);
      }
    }
  }
  return counts;
}

TEST(BackendDiffTest, RandomGraphsPlannerMatchesReference) {
  // Six small graphs, then two whose A(k) index is large enough (at least
  // kPrefilterMinSeeds nodes, twelve labels) for the prefilter gate.
  Rng rng(41);
  PlanCounts total;
  for (int round = 0; round < 8; ++round) {
    const bool large = round >= 6;
    DataGraph g = testing_util::RandomGraph(
        /*n=*/large ? 600 : 150, /*num_labels=*/large ? 12 : 6,
        /*extra_edges=*/large ? 120 : 30, &rng);
    AkIndex ak = AkIndex::Build(&g, large ? round - 4 : round % 4);
    total.Add(ExpectPlannerMatchesReference(ak.index(), g,
                                            BackendQueries(g, 1000 + round)));
  }
  total.ExpectAllShapes();
}

TEST(BackendDiffTest, XmarkPlannerMatchesReference) {
  XmarkOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(opt).graph;
  std::vector<std::string> queries = BackendQueries(g, 43);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);  // low k: the validate path dominates
  PlanCounts total;
  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    total.Add(ExpectPlannerMatchesReference(*index, g, queries));
  }
  total.ExpectAllShapes();
}

TEST(BackendDiffTest, NasaPlannerMatchesReference) {
  NasaOptions opt;
  opt.scale = 0.08;
  DataGraph g = GenerateNasaGraph(opt).graph;
  std::vector<std::string> queries = BackendQueries(g, 47);

  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);
  AkIndex a1 = AkIndex::Build(&g, 1);
  PlanCounts total;
  for (const IndexGraph* index : {&dk.index(), &a1.index()}) {
    total.Add(ExpectPlannerMatchesReference(*index, g, queries));
  }
  total.ExpectAllShapes();
}

TEST(BackendDiffTest, PlannerMatchesReferenceAcrossEpochs) {
  // Mutate the index between freezes: the planner must track the new
  // quotient, and views of the same index must carry the same epoch stamp.
  Rng rng(59);
  DataGraph g = testing_util::RandomGraph(600, 12, 120, &rng);
  LabelRequirements reqs;
  for (LabelId l = 0; l < static_cast<LabelId>(g.labels().size()); ++l) {
    reqs[l] = 2;
  }
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::vector<std::string> queries = BackendQueries(g, 61);
  PlanCounts total;
  for (int epoch_round = 0; epoch_round < 3; ++epoch_round) {
    total.Add(ExpectPlannerMatchesReference(dk.index(), g, queries));
    const uint64_t before = dk.index().epoch();
    for (int i = 0; i < 5; ++i) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      const NodeId v =
          static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
      ApplyUpdateOp(&dk, UpdateOp::AddEdge(u, v));
    }
    EXPECT_GT(dk.index().epoch(), before) << "round " << epoch_round;
  }
  total.ExpectAllShapes();
}

// The plan is a pure function of (view, query): evaluating a query again —
// on the same view, or on a second view frozen from the same index — must
// pick the same plan and report the same EvalStats. Each query is shared
// across both views and all repetitions, as a ParseCache entry is shared
// across a server's readers.
void ExpectPlansAndStatsRepeat(const IndexGraph& index, const DataGraph& g,
                               const std::vector<std::string>& texts) {
  constexpr int kRepeats = 5;
  FrozenView first(index);
  FrozenView second(index);
  FrozenScratch first_scratch, second_scratch;
  for (const std::string& text : texts) {
    const PathExpression query = testing_util::MustParse(text, g.labels());
    for (bool validate : {true, false}) {
      const EvalPlan want_plan = first.PlanQuery(query, validate);
      EvalStats want_stats;
      first.Evaluate(query, &want_stats, validate, &first_scratch);
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (const FrozenView* view : {&first, &second}) {
          const std::string ctx =
              std::string(view == &first ? "same" : "second") +
              " view rep=" + std::to_string(rep) +
              " validate=" + std::to_string(validate) + " query=" + text;
          const EvalPlan plan = view->PlanQuery(query, validate);
          EXPECT_EQ(PlanName(want_plan), PlanName(plan)) << ctx;
          EXPECT_EQ(want_plan.anchor_label, plan.anchor_label) << ctx;
          EvalStats stats;
          view->Evaluate(query, &stats, validate,
                         view == &first ? &first_scratch : &second_scratch);
          ExpectSameStats(want_stats, stats, ctx);
        }
      }
    }
  }
}

TEST(BackendDiffTest, PlannerIsDeterministicAcrossCallsAndViews) {
  XmarkOptions xopt;
  xopt.scale = 0.08;
  DataGraph xmark = GenerateXmarkGraph(xopt).graph;
  std::vector<std::string> xqueries = BackendQueries(xmark, 43);
  DkIndex xdk = DkIndex::Build(
      &xmark, MineRequirementsFromText(xqueries, xmark.labels(), nullptr));
  ExpectPlansAndStatsRepeat(xdk.index(), xmark, xqueries);

  NasaOptions nopt;
  nopt.scale = 0.08;
  DataGraph nasa = GenerateNasaGraph(nopt).graph;
  AkIndex na1 = AkIndex::Build(&nasa, 1);
  ExpectPlansAndStatsRepeat(na1.index(), nasa, BackendQueries(nasa, 47));
}

// EvaluateBatch's lane sizing. Floor division caps the lane count so EVERY
// lane gets >= kMinQueriesPerLane queries and ChunkBounds keeps per-lane
// loads within one query of each other.
TEST(BackendDiffTest, BatchLaneSizingRespectsMinQueriesPerLane) {
  DataGraph g = testing_util::BuildMovieGraph();
  AkIndex ak = AkIndex::Build(&g, 1);
  FrozenView view(ak.index());
  ThreadPool pool(8);

  const PathExpression query =
      testing_util::MustParse("director.movie", g.labels());
  ASSERT_EQ(FrozenView::kMinQueriesPerLane, 8);  // thresholds below assume it

  const struct {
    int total;
    int want_lanes;
  } cases[] = {
      {1, 1},  {7, 1},  {8, 1},  {9, 1},   // floor(9/8) = 1: no starved lane
      {16, 2}, {17, 2}, {23, 2}, {64, 8},
  };
  for (const auto& c : cases) {
    std::vector<const PathExpression*> batch(static_cast<size_t>(c.total),
                                             &query);
    std::vector<std::unique_ptr<FrozenScratch>> lanes;
    std::vector<std::vector<NodeId>> results =
        view.EvaluateBatch(batch, &pool, nullptr, true, &lanes);
    EXPECT_EQ(static_cast<int>(lanes.size()), c.want_lanes)
        << "total=" << c.total;
    const std::vector<NodeId> want = view.Evaluate(query);
    for (const auto& r : results) EXPECT_EQ(want, r) << "total=" << c.total;
  }
}

}  // namespace
}  // namespace dki
