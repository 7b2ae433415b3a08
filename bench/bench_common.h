#ifndef DKINDEX_BENCH_BENCH_COMMON_H_
#define DKINDEX_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks (one binary per
// table/figure, see DESIGN.md §5). Every binary runs standalone with no
// arguments; the DKI_SCALE environment variable (default 1.0) multiplies
// dataset sizes.

#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "index/index_graph.h"
#include "pathexpr/path_expression.h"
#include "query/evaluator.h"

namespace dki {
namespace bench {

// A prepared experiment dataset: the data graph plus the ID/IDREF label
// pairs used by the Section 6.2 update recipe.
struct Dataset {
  std::string name;
  DataGraph graph;
  std::vector<std::pair<std::string, std::string>> ref_pairs;
};

// Reads DKI_SCALE (default 1.0, clamped to [0.05, 100]). A value that is
// not a whole finite number warns on stderr and falls back to 1.0.
double ScaleFromEnv();

// The paper's two datasets. `scale` multiplies the generator's base sizes
// (already multiplied by ScaleFromEnv by the callers below).
Dataset MakeXmark(double scale);
Dataset MakeNasa(double scale);

// XMark without resolving IDREF attributes: pure document tree. The
// sharded traffic runs use this — IDREF edges connect arbitrary subtrees,
// which would collapse the router's edge-closed partition into one giant
// group and leave nothing to shard. The ID/IDREF label pairs are kept, so
// the Section 6.2 update recipe still generates (referencing, referenced)
// candidate edges.
Dataset MakeXmarkTree(double scale);

// Prints name, node/edge/label counts and depth.
void PrintDatasetBanner(const Dataset& dataset);

// The Section 6.1 workload: `count` random test paths of 2..5 labels (long
// paths + shorter branching paths), parsed and compiled.
std::vector<PathExpression> MakeWorkload(const DataGraph& graph, int count,
                                         uint64_t seed);

// Section 6.1's requirement rule applied to a workload (longest path per
// target label, less one).
LabelRequirements MineWorkloadRequirements(
    const std::vector<PathExpression>& workload, const LabelTable& labels);

// Evaluates the whole workload against an index; returns aggregate stats
// (costs summed over queries).
EvalStats EvaluateWorkload(const IndexGraph& index,
                           const std::vector<PathExpression>& workload);

// One row of the Figure 4-7 series.
struct SeriesRow {
  std::string index_name;
  int64_t index_nodes = 0;
  int64_t index_edges = 0;
  double avg_cost = 0.0;        // paper's Y axis: avg nodes visited/query
  int64_t validation_visits = 0;
  int64_t uncertain_nodes = 0;
};

SeriesRow MakeRow(const std::string& name, const IndexGraph& index,
                  const std::vector<PathExpression>& workload);

// Prints the series in the paper's layout (size on X, cost on Y).
void PrintSeries(const std::string& title,
                 const std::vector<SeriesRow>& rows);

// `count` random (u, v) pairs drawn per the Section 6.2 recipe: pick a
// random ID/IDREF label pair, then one data node from each label group.
std::vector<std::pair<NodeId, NodeId>> MakeUpdateEdges(const Dataset& dataset,
                                                       int count,
                                                       uint64_t seed);

}  // namespace bench
}  // namespace dki

#endif  // DKINDEX_BENCH_BENCH_COMMON_H_
