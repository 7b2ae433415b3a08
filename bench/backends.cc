// Reference evaluator vs. the planned frozen read path across query shapes
// on the paper's two datasets: for each (dataset, query-shape class) this
// times EvaluateOnIndex (the reference oracle over the mutable index graph)
// against FrozenView::Evaluate (the production path: one NFA product-BFS
// plus the required-label prefilter and the empty short-circuit, chosen by
// a static rule — query/backend.h), reports which plan the planner took
// for each query, the deterministic traversal counters of both paths, and
// an FNV-1a hash of each path's results. ANY result divergence is a
// correctness bug: the binary prints the offending class and exits
// nonzero, which is what the CI bench-smoke job gates on.
//
// Usage: backends [--small] [--json PATH]
//   --small   CI smoke shape: tiny datasets, few repetitions
//   --json    also emit BENCH_backends.json (schema v2, docs/BENCHMARKS.md)
//
// The frozen path is timed through one persistent scratch (the serving
// configuration — compiled tables warm across repetitions exactly as they
// do across a server's request stream).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/random.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "tests/test_util.h"

namespace dki {
namespace {

struct ShapeClass {
  std::string name;
  std::vector<std::string> texts;
};

// Label of the smallest non-empty data population (skipping the document
// root) — the most selective prefilter anchor the dataset offers —
// and one from the largest, for unselective baselines.
std::pair<std::string, std::string> RareAndCommonLabels(const DataGraph& g) {
  LabelId rare = kInvalidLabel, common = kInvalidLabel;
  size_t rare_pop = 0, common_pop = 0;
  for (LabelId l = 1; l < static_cast<LabelId>(g.labels().size()); ++l) {
    const size_t pop = g.NodesWithLabel(l).size();
    if (pop == 0) continue;
    if (rare == kInvalidLabel || pop < rare_pop) {
      rare = l;
      rare_pop = pop;
    }
    if (common == kInvalidLabel || pop > common_pop) {
      common = l;
      common_pop = pop;
    }
  }
  return {g.labels().Name(rare), g.labels().Name(common)};
}

std::vector<ShapeClass> MakeClasses(const DataGraph& g, uint64_t seed) {
  Rng rng(seed);
  auto chain = [&](int len) {
    return testing_util::RandomChainQuery(g, len, &rng);
  };
  const auto [rare, common] = RareAndCommonLabels(g);

  std::vector<ShapeClass> classes;
  ShapeClass literal{"literal_chain", {}};
  for (int i = 0; i < 8; ++i) literal.texts.push_back(chain(3 + i % 3));
  classes.push_back(std::move(literal));

  // Wildcard/high-fanout starts: the NFA seeds every index node unless a
  // rare required literal bounds the cone (prefilter bait).
  ShapeClass wild{"wildcard_start", {}};
  wild.texts.push_back("_." + rare);
  wild.texts.push_back("_._." + chain(1));
  wild.texts.push_back("_*." + rare);
  wild.texts.push_back("_*." + rare + "._");
  wild.texts.push_back("_." + rare + "." + "_");
  wild.texts.push_back("_*." + common);
  classes.push_back(std::move(wild));

  // Alternations and closures: shapes that keep several NFA states live
  // per index node.
  ShapeClass alt{"alternation_star", {}};
  alt.texts.push_back("(" + chain(2) + ")|(" + chain(2) + ")");
  alt.texts.push_back("(" + chain(3) + ")|(" + chain(3) + ")");
  alt.texts.push_back("(" + chain(2) + ")|(_._._)");
  alt.texts.push_back(chain(1) + "?._._");
  alt.texts.push_back("_*." + chain(2));
  alt.texts.push_back("(" + rare + "|" + common + ")._");
  classes.push_back(std::move(alt));

  // Labels absent from the graph (or unreachable combinations): the
  // required-label emptiness shortcircuit answers these without traversal.
  ShapeClass dead{"dead_label", {}};
  dead.texts.push_back("label_absent_from_this_dataset");
  dead.texts.push_back("_.label_absent_from_this_dataset");
  dead.texts.push_back("_*.label_absent_from_this_dataset._");
  dead.texts.push_back(common + ".label_absent_from_this_dataset");
  classes.push_back(std::move(dead));
  return classes;
}

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (b * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashResults(const std::vector<std::vector<NodeId>>& results) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& r : results) {
    h = Fnv1aMix(h, 0x9e3779b97f4a7c15ull + r.size());
    for (NodeId v : r) h = Fnv1aMix(h, static_cast<uint64_t>(v));
  }
  return h;
}

struct PathRun {
  double ns_per_query = 0;
  uint64_t result_hash = 0;
  EvalStats stats;  // summed over the class, one untimed pass
};

// Times `reps` passes of the class through `eval` after one untimed pass
// that records the results and the traversal counters. ns_per_query is the
// median pass over the class size: one descheduled pass moves a mean, not
// a median.
template <typename Eval>
PathRun TimePath(const std::vector<PathExpression>& qs, int reps,
                 const Eval& eval) {
  PathRun run;
  std::vector<std::vector<NodeId>> results(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    results[i] = eval(qs[i], &run.stats);
  }
  run.result_hash = HashResults(results);

  std::vector<double> pass_ns;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (const PathExpression& q : qs) (void)eval(q, nullptr);
    pass_ns.push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::nth_element(pass_ns.begin(), pass_ns.begin() + reps / 2,
                   pass_ns.end());
  run.ns_per_query = pass_ns[static_cast<size_t>(reps / 2)] /
                     static_cast<double>(qs.size());
  return run;
}

bench::Json PathRow(const std::string& path, const PathRun& run) {
  bench::Json row = bench::Json::Object();
  row.Set("path", bench::Json::Str(path));
  row.Set("ns_per_query", bench::Json::Num(run.ns_per_query));
  row.Set("index_nodes_visited",
          bench::Json::Int(run.stats.index_nodes_visited));
  row.Set("data_nodes_visited",
          bench::Json::Int(run.stats.data_nodes_visited));
  return row;
}

std::string HashHex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

int Main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      small = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  const double scale = small ? 0.15 : bench::ScaleFromEnv();
  const int reps = small ? 3 : 25;

  bench::Json datasets_json = bench::Json::Array();
  bool diverged = false;

  std::vector<bench::Dataset> datasets;
  datasets.push_back(bench::MakeXmark(scale));
  datasets.push_back(bench::MakeNasa(scale));
  for (bench::Dataset& dataset : datasets) {
    bench::PrintDatasetBanner(dataset);
    DataGraph& g = dataset.graph;

    // The serving index: D(k) mined from the literal chains, so chain
    // answers are mostly certain while wildcard/closure shapes exercise the
    // validate path.
    std::vector<ShapeClass> classes = MakeClasses(g, 20030609);
    auto mined = bench::MakeWorkload(g, 20, 20030609);
    LabelRequirements reqs =
        bench::MineWorkloadRequirements(mined, g.labels());
    DkIndex dk = DkIndex::Build(&g, reqs);
    FrozenView view(dk.index());
    FrozenScratch scratch;

    std::printf("\n%-10s %-18s %14s %14s %10s  %s\n", dataset.name.c_str(),
                "class", "reference ns", "frozen ns", "speedup", "plans");
    bench::Json classes_json = bench::Json::Array();
    for (const ShapeClass& cls : classes) {
      std::vector<PathExpression> parsed;
      for (const std::string& t : cls.texts) {
        parsed.push_back(testing_util::MustParse(t, g.labels()));
      }
      const PathRun reference =
          TimePath(parsed, reps, [&](const PathExpression& q, EvalStats* st) {
            return EvaluateOnIndex(dk.index(), q, st);
          });
      const PathRun frozen =
          TimePath(parsed, reps, [&](const PathExpression& q, EvalStats* st) {
            return view.Evaluate(q, st, /*validate=*/true, &scratch);
          });
      if (frozen.result_hash != reference.result_hash) {
        std::fprintf(stderr,
                     "RESULT DIVERGENCE: %s/%s frozen hash %016llx != "
                     "reference %016llx\n",
                     dataset.name.c_str(), cls.name.c_str(),
                     static_cast<unsigned long long>(frozen.result_hash),
                     static_cast<unsigned long long>(reference.result_hash));
        diverged = true;
      }

      // The planner's rule is static, so one plan per query says it all.
      std::map<std::string, int> plans;
      for (const PathExpression& q : parsed) {
        const EvalPlan plan = view.PlanQuery(q, /*validate=*/true);
        plans[plan.empty ? "empty" : EvalBackendName(plan.backend)]++;
      }
      std::string plan_text;
      bench::Json plans_json = bench::Json::Object();
      for (const auto& [name, count] : plans) {
        plan_text += name + "=" + std::to_string(count) + " ";
        plans_json.Set(name, bench::Json::Int(count));
      }
      const double speedup = frozen.ns_per_query > 0
                                 ? reference.ns_per_query / frozen.ns_per_query
                                 : 0;
      std::printf("%-10s %-18s %14.0f %14.0f %9.2fx  %s\n", "",
                  cls.name.c_str(), reference.ns_per_query,
                  frozen.ns_per_query, speedup, plan_text.c_str());

      bench::Json rows = bench::Json::Array();
      rows.Push(PathRow("reference", reference));
      bench::Json frozen_row = PathRow("frozen", frozen);
      frozen_row.Set("speedup_vs_reference", bench::Json::Num(speedup));
      rows.Push(std::move(frozen_row));

      bench::Json cls_json = bench::Json::Object();
      cls_json.Set("name", bench::Json::Str(cls.name));
      cls_json.Set("queries", bench::Json::Int(
                                  static_cast<int64_t>(cls.texts.size())));
      cls_json.Set("result_hash",
                   bench::Json::Str(HashHex(reference.result_hash)));
      cls_json.Set("plans", std::move(plans_json));
      cls_json.Set("rows", std::move(rows));
      classes_json.Push(std::move(cls_json));
    }

    bench::Json ds = bench::Json::Object();
    ds.Set("name", bench::Json::Str(dataset.name));
    ds.Set("nodes", bench::Json::Int(g.NumNodes()));
    ds.Set("edges", bench::Json::Int(g.NumEdges()));
    ds.Set("index_nodes", bench::Json::Int(dk.index().NumIndexNodes()));
    ds.Set("classes", std::move(classes_json));
    datasets_json.Push(std::move(ds));
  }

  if (!json_path.empty()) {
    bench::Json root = bench::Json::Object();
    root.Set("bench", bench::Json::Str("backends"));
    root.Set("version", bench::Json::Int(2));
    root.Set("small", bench::Json::Bool(small));
    root.Set("reps", bench::Json::Int(reps));
    root.Set("datasets", std::move(datasets_json));
    std::string error;
    if (!bench::Json::WriteFile(json_path, root, &error)) {
      std::fprintf(stderr, "backends: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (diverged) {
    std::fprintf(stderr, "backends: frozen/reference result divergence\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dki

int main(int argc, char** argv) { return dki::Main(argc, argv); }
