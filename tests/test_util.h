#ifndef DKINDEX_TESTS_TEST_UTIL_H_
#define DKINDEX_TESTS_TEST_UTIL_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/data_graph.h"
#include "graph/graph_builder.h"
#include "pathexpr/path_expression.h"

namespace dki {
namespace testing_util {

// Builds a small movie database in the spirit of the paper's Figure 1:
// movieDB contains directors and actors; both contain movies (directors'
// movies carry titles), and reference edges make some movies shared between
// a director and an actor, so some `movie` nodes have an `actor` parent and
// others do not (the paper's running bisimilarity example).
inline DataGraph BuildMovieGraph() {
  DataGraph g;
  GraphBuilder b(&g);

  b.Open("movieDB");

  b.Open("director");  // director #1
  b.ValueLeaf("name");
  NodeId m1 = b.Open("movie");  // movie with actor link
  b.ValueLeaf("title");
  b.Close();
  b.Open("movie");  // movie only directed
  b.ValueLeaf("title");
  b.Close();
  b.Close();  // director #1

  b.Open("director");  // director #2
  b.ValueLeaf("name");
  b.Open("movie");
  b.ValueLeaf("title");
  b.Close();
  b.Close();  // director #2

  b.Open("actor");  // actor #1 references director #1's movie
  b.ValueLeaf("name");
  NodeId a1 = b.cursor();
  b.Close();

  b.Open("actor");  // actor #2 with an own movie subtree
  b.ValueLeaf("name");
  NodeId m4 = b.Open("movie");
  b.ValueLeaf("title");
  b.Open("actor");
  b.ValueLeaf("name");
  b.Close();
  b.Close();
  b.Close();

  b.Close();  // movieDB

  g.AddEdge(a1, m1);  // reference edge: actor #1 -> shared movie
  (void)m4;
  return g;
}

// Random document-shaped graph: `n` non-root nodes with labels drawn from an
// alphabet of `num_labels`, tree edges to random earlier nodes, plus
// `extra_edges` random cross edges. Always fully reachable from the root.
inline DataGraph RandomGraph(int n, int num_labels, int extra_edges,
                             Rng* rng) {
  DataGraph g;
  std::vector<std::string> labels;
  for (int i = 0; i < num_labels; ++i) {
    std::string label(1, static_cast<char>('a' + i % 26));
    if (i >= 26) label += std::to_string(i / 26);
    labels.push_back(std::move(label));
  }
  for (int i = 0; i < n; ++i) {
    NodeId node = g.AddNode(labels[static_cast<size_t>(
        rng->UniformInt(0, num_labels - 1))]);
    NodeId parent = static_cast<NodeId>(rng->UniformInt(0, node - 1));
    g.AddEdge(parent, node);
  }
  for (int i = 0; i < extra_edges && g.NumNodes() > 2; ++i) {
    NodeId u = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
    NodeId v = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
    g.AddEdge(u, v);
  }
  return g;
}

// Random chain query over labels that actually occur in `g`, generated as an
// upward walk so it has a non-empty result.
inline std::string RandomChainQuery(const DataGraph& g, int len, Rng* rng) {
  NodeId target = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
  std::vector<std::string> names = {g.label_name(target)};
  NodeId cur = target;
  for (int i = 1; i < len; ++i) {
    const auto& parents = g.parents(cur);
    if (parents.empty()) break;
    cur = parents[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(parents.size()) - 1))];
    if (g.label(cur) == LabelTable::kRootLabel) break;
    names.push_back(g.label_name(cur));
  }
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out.push_back('.');
    out.append(*it);
  }
  return out;
}

inline PathExpression MustParse(const std::string& text,
                                const LabelTable& labels) {
  std::string error;
  auto expr = PathExpression::Parse(text, labels, &error);
  DKI_CHECK(expr.has_value());
  return std::move(*expr);
}

// A fresh, uniquely named directory `<temp dir>/dki_<name>_XXXXXX`,
// removed with everything in it when the object is destroyed. A forked
// child that leaves by _exit() or a signal never runs the destructor, so
// kill-point trials create the directory in the parent, which removes it.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / ("dki_" + name + "_XXXXXX"))
            .string();
    DKI_CHECK(::mkdtemp(pattern.data()) != nullptr);
    path_ = std::move(pattern);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing_util
}  // namespace dki

#endif  // DKINDEX_TESTS_TEST_UTIL_H_
