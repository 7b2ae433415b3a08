// The experiment harness itself is load-bearing for every number in
// EXPERIMENTS.md — test its recipes: dataset reproducibility, workload
// construction, the Section 6.2 edge recipe, and row aggregation.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/random.h"
#include "index/ak_index.h"
#include "query/evaluator.h"

namespace dki {
namespace bench {
namespace {

TEST(HarnessTest, DatasetsAreReproducible) {
  Dataset a = MakeXmark(0.2);
  Dataset b = MakeXmark(0.2);
  EXPECT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  Dataset n = MakeNasa(0.2);
  EXPECT_EQ(n.name, "Nasa");
  EXPECT_GT(n.graph.NumNodes(), 0);
}

TEST(HarnessTest, WorkloadRecipeIsStable) {
  Dataset d = MakeXmark(0.2);
  auto w1 = MakeWorkload(d.graph, 50, 123);
  auto w2 = MakeWorkload(d.graph, 50, 123);
  ASSERT_EQ(w1.size(), 50u);
  ASSERT_EQ(w2.size(), 50u);
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].text(), w2[i].text());
  }
  // Every query is non-empty on its dataset (the §6.1 guarantee).
  for (const PathExpression& q : w1) {
    EXPECT_FALSE(EvaluateOnDataGraph(d.graph, q).empty()) << q.text();
  }
}

TEST(HarnessTest, MinedRequirementsCapAtFour) {
  // The experiments compare against A(4) as the sound horizon; mined
  // requirements must never exceed 4 (paths have 2..5 labels = 1..4 edges).
  Dataset d = MakeXmark(0.2);
  auto workload = MakeWorkload(d.graph, 100, 7);
  LabelRequirements reqs = MineWorkloadRequirements(workload, d.graph.labels());
  EXPECT_FALSE(reqs.empty());
  for (const auto& [label, k] : reqs) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 4);
  }
}

TEST(HarnessTest, UpdateEdgesFollowTheRecipe) {
  Dataset d = MakeXmark(0.2);
  auto edges = MakeUpdateEdges(d, 100, 42);
  ASSERT_EQ(edges.size(), 100u);
  // Endpoints respect some ID/IDREF label pair of the DTD.
  std::set<std::pair<LabelId, LabelId>> allowed;
  for (const auto& [from, to] : d.ref_pairs) {
    LabelId lf = d.graph.labels().Find(from);
    LabelId lt = d.graph.labels().Find(to);
    if (lf != kInvalidLabel && lt != kInvalidLabel) allowed.emplace(lf, lt);
  }
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(allowed.count({d.graph.label(u), d.graph.label(v)}) > 0);
  }
  // Deterministic per seed.
  auto again = MakeUpdateEdges(d, 100, 42);
  EXPECT_EQ(edges, again);
  auto other = MakeUpdateEdges(d, 100, 43);
  EXPECT_NE(edges, other);
}

TEST(HarnessTest, SeriesRowAggregation) {
  Dataset d = MakeXmark(0.1);
  AkIndex a2 = AkIndex::Build(&d.graph, 2);
  auto workload = MakeWorkload(d.graph, 20, 9);
  SeriesRow row = MakeRow("A(2)", a2.index(), workload);
  EXPECT_EQ(row.index_name, "A(2)");
  EXPECT_EQ(row.index_nodes, a2.index().NumIndexNodes());
  EXPECT_GT(row.avg_cost, 0.0);

  // Row cost equals the mean of per-query costs.
  EvalStats total;
  for (const PathExpression& q : workload) {
    EvaluateOnIndex(a2.index(), q, &total);
  }
  EXPECT_DOUBLE_EQ(row.avg_cost,
                   static_cast<double>(total.cost()) /
                       static_cast<double>(workload.size()));
}

TEST(HarnessTest, JsonDoublesSurviveEmitParseEmitExactly) {
  // The old %.6g emitter silently rounded doubles to 6 significant digits,
  // so any pipeline that parses a benchmark JSON and re-emits it (series
  // aggregation, CI comparisons) corrupted timestamps, rates, and long
  // counters. Emission now picks the shortest form that strtod round-trips.
  const double cases[] = {
      0.0,
      -0.0,
      1.0 / 3.0,
      0.1,
      123456789.123456,            // > 6 significant digits
      1755021712345678848.0,       // nanosecond-scale timestamp
      98765.432109876543,
      6.02214076e23,
      5e-324,                      // min subnormal
      1.7976931348623157e308,      // max double
  };
  for (double v : cases) {
    Json j = Json::Num(v);
    const std::string emitted = j.ToString();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::Parse(emitted, &parsed, &error))
        << emitted << ": " << error;
    EXPECT_EQ(parsed.AsDouble(), v) << "value corrupted through '" << emitted
                                    << "'";
    // Emit -> parse -> emit is a fixed point: byte-identical second pass.
    EXPECT_EQ(parsed.ToString(), emitted);
  }

  // Whole nested documents too, with adversarial random doubles.
  Rng rng(139);
  Json doc = Json::Object();
  Json arr = Json::Array();
  for (int i = 0; i < 200; ++i) {
    const double v =
        static_cast<double>(rng.UniformInt(1, int64_t{1} << 62)) /
        static_cast<double>(rng.UniformInt(1, 1000000));
    arr.Push(Json::Num(v));
  }
  doc.Set("values", std::move(arr));
  const std::string once = doc.ToString();
  Json reparsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(once, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), once);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(reparsed.Find("values")->items()[i].AsDouble(),
              doc.Find("values")->items()[i].AsDouble());
  }
}

TEST(HarnessTest, ScaleFromEnvParsesAndClamps) {
  // Only exercised when DKI_SCALE is unset in the test environment.
  if (std::getenv("DKI_SCALE") == nullptr) {
    EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  }
  setenv("DKI_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 2.5);
  setenv("DKI_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 0.05);  // clamped
  setenv("DKI_SCALE", "1e9", 1);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 100.0);  // clamped
  // Garbage warns and falls back to the default scale, never to the 0.05
  // floor a lenient parse (garbage read as 0, then clamped) would give.
  for (const char* bad : {"abc", "", "0.5x", " 2", "2 ", "1,5", "nan",
                          "inf", "1e999", "--1"}) {
    setenv("DKI_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0) << "'" << bad << "'";
  }
  unsetenv("DKI_SCALE");
}

}  // namespace
}  // namespace bench
}  // namespace dki
