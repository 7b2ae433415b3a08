#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "graph/graph_algos.h"
#include "query/load_analyzer.h"
#include "query/workload.h"

namespace dki {
namespace bench {

double ScaleFromEnv() {
  const char* env = std::getenv("DKI_SCALE");
  if (env == nullptr) return 1.0;
  // Strict parse: std::atof would turn "abc" into 0 (then clamped to the
  // smallest scale); garbage must fall back loudly to the default instead.
  std::optional<double> scale = ParseDouble(env);
  if (!scale.has_value()) {
    std::fprintf(stderr,
                 "dki: ignoring invalid DKI_SCALE='%s' (want a number); "
                 "using 1.0\n",
                 env);
    return 1.0;
  }
  return std::clamp(*scale, 0.05, 100.0);
}

Dataset MakeXmark(double scale) {
  XmarkOptions options;
  options.scale = scale;
  Dataset dataset;
  dataset.name = "Xmark";
  dataset.graph = GenerateXmarkGraph(options).graph;
  dataset.ref_pairs = XmarkRefLabelPairs();
  return dataset;
}

namespace {

// Splices unary chains out of the root: while the root has exactly one
// child (XmlToGraph's document-element indirection — root -> site -> ...),
// drop the chain and attach the last chain node's children directly to the
// root. ShardRouter::Partition seeds one provisional group per root child,
// so without this every XML-derived tree is a single group and sharding
// degenerates to one populated shard.
DataGraph SpliceUnaryRoot(const DataGraph& g) {
  NodeId top = g.root();
  while (g.children(top).size() == 1) top = g.children(top)[0];
  if (top == g.root()) return g;

  DataGraph out;
  std::vector<NodeId> to_new(static_cast<size_t>(g.NumNodes()),
                             kInvalidNode);
  to_new[static_cast<size_t>(g.root())] =
      out.AddNode(g.labels().Name(g.label(g.root())));
  std::vector<NodeId> queue(g.children(top).begin(), g.children(top).end());
  for (NodeId c : queue) {
    to_new[static_cast<size_t>(c)] =
        out.AddNode(g.labels().Name(g.label(c)));
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    for (NodeId v : g.children(queue[head])) {
      if (to_new[static_cast<size_t>(v)] != kInvalidNode) continue;
      to_new[static_cast<size_t>(v)] =
          out.AddNode(g.labels().Name(g.label(v)));
      queue.push_back(v);
    }
  }
  for (NodeId c : g.children(top)) {
    out.AddEdge(out.root(), to_new[static_cast<size_t>(c)]);
  }
  for (NodeId u : queue) {
    for (NodeId v : g.children(u)) {
      out.AddEdge(to_new[static_cast<size_t>(u)],
                  to_new[static_cast<size_t>(v)]);
    }
  }
  return out;
}

}  // namespace

Dataset MakeXmarkTree(double scale) {
  XmarkOptions options;
  options.scale = scale;
  XmlToGraphOptions graph_options = XmarkGraphOptions();
  graph_options.idref_attributes.clear();
  Dataset dataset;
  dataset.name = "XmarkTree";
  dataset.graph = SpliceUnaryRoot(
      XmlToGraph(GenerateXmarkDocument(options), graph_options).graph);
  dataset.ref_pairs = XmarkRefLabelPairs();
  return dataset;
}

Dataset MakeNasa(double scale) {
  NasaOptions options;
  options.scale = scale;
  Dataset dataset;
  dataset.name = "Nasa";
  dataset.graph = GenerateNasaGraph(options).graph;
  dataset.ref_pairs = NasaRefLabelPairs();
  return dataset;
}

void PrintDatasetBanner(const Dataset& dataset) {
  GraphStats s = ComputeStats(dataset.graph);
  std::printf(
      "dataset=%s nodes=%lld edges=%lld labels=%lld depth=%d "
      "non_tree_edges=%lld\n",
      dataset.name.c_str(), static_cast<long long>(s.num_nodes),
      static_cast<long long>(s.num_edges),
      static_cast<long long>(s.num_labels), s.max_depth,
      static_cast<long long>(s.num_non_tree_edges));
}

std::vector<PathExpression> MakeWorkload(const DataGraph& graph, int count,
                                         uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions options;
  options.num_queries = count;
  Workload workload = GenerateWorkload(graph, options, &rng);
  std::vector<PathExpression> parsed;
  for (const std::string& text : workload.queries) {
    std::string error;
    auto expr = PathExpression::Parse(text, graph.labels(), &error);
    DKI_CHECK(expr.has_value());
    parsed.push_back(std::move(*expr));
  }
  return parsed;
}

LabelRequirements MineWorkloadRequirements(
    const std::vector<PathExpression>& workload, const LabelTable& labels) {
  LoadAnalyzerOptions options;
  options.max_requirement = 4;  // A(4) is sound for the 2..5-label paths
  return MineRequirements(workload, labels, options);
}

EvalStats EvaluateWorkload(const IndexGraph& index,
                           const std::vector<PathExpression>& workload) {
  EvalStats total;
  for (const PathExpression& query : workload) {
    EvaluateOnIndex(index, query, &total);
  }
  return total;
}

SeriesRow MakeRow(const std::string& name, const IndexGraph& index,
                  const std::vector<PathExpression>& workload) {
  EvalStats stats = EvaluateWorkload(index, workload);
  SeriesRow row;
  row.index_name = name;
  row.index_nodes = index.NumIndexNodes();
  row.index_edges = index.NumIndexEdges();
  row.avg_cost = workload.empty()
                     ? 0.0
                     : static_cast<double>(stats.cost()) /
                           static_cast<double>(workload.size());
  row.validation_visits = stats.data_nodes_visited;
  row.uncertain_nodes = stats.uncertain_index_nodes;
  return row;
}

void PrintSeries(const std::string& title,
                 const std::vector<SeriesRow>& rows) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-8s %12s %12s %14s %14s %10s\n", "index", "index_nodes",
              "index_edges", "avg_cost", "valid_visits", "uncertain");
  for (const SeriesRow& row : rows) {
    std::printf("%-8s %12lld %12lld %14.2f %14lld %10lld\n",
                row.index_name.c_str(),
                static_cast<long long>(row.index_nodes),
                static_cast<long long>(row.index_edges), row.avg_cost,
                static_cast<long long>(row.validation_visits),
                static_cast<long long>(row.uncertain_nodes));
  }
}

std::vector<std::pair<NodeId, NodeId>> MakeUpdateEdges(const Dataset& dataset,
                                                       int count,
                                                       uint64_t seed) {
  Rng rng(seed);
  const DataGraph& g = dataset.graph;
  // Pre-resolve label groups once.
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> groups;
  for (const auto& [from_label, to_label] : dataset.ref_pairs) {
    LabelId lf = g.labels().Find(from_label);
    LabelId lt = g.labels().Find(to_label);
    if (lf == kInvalidLabel || lt == kInvalidLabel) continue;
    auto froms = g.NodesWithLabel(lf);
    auto tos = g.NodesWithLabel(lt);
    if (froms.empty() || tos.empty()) continue;
    groups.emplace_back(std::move(froms), std::move(tos));
  }
  DKI_CHECK(!groups.empty());
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto& [froms, tos] = groups[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(groups.size()) - 1))];
    edges.emplace_back(rng.Pick(froms), rng.Pick(tos));
  }
  return edges;
}

}  // namespace bench
}  // namespace dki
