#include "io/serialization.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "datagen/xmark_generator.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "tests/test_util.h"

namespace dki {
namespace {

TEST(SerializationTest, GraphRoundTrip) {
  Rng rng(501);
  DataGraph g = testing_util::RandomGraph(200, 5, 40, &rng);
  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(g, &out));

  std::istringstream in(out.str());
  DataGraph loaded;
  std::string error;
  ASSERT_TRUE(LoadGraph(&in, &loaded, &error)) << error;
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(loaded.label_name(n), g.label_name(n));
    EXPECT_EQ(loaded.children(n), g.children(n));
  }
}

TEST(SerializationTest, RoundTripsLabelsWithWhitespace) {
  DataGraph g;
  NodeId a = g.AddNode("movie title");
  NodeId b = g.AddNode("  padded  ");
  NodeId c = g.AddNode("tab\there");
  NodeId d = g.AddNode("caf\xc3\xa9");  // UTF-8 bytes pass through verbatim
  g.AddEdge(g.root(), a);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(c, d);

  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(g, &out));
  std::istringstream in(out.str());
  DataGraph loaded;
  std::string error;
  ASSERT_TRUE(LoadGraph(&in, &loaded, &error)) << error;
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(loaded.label_name(n), g.label_name(n));
    EXPECT_EQ(loaded.children(n), g.children(n));
  }
}

TEST(SerializationTest, LabelNameRoundTripProperty) {
  Rng rng(509);
  const std::string pieces[] = {"a",  "b c",  " d", "e ",
                                "\t", "\xc2\xb5", "x\xe2\x80\xa6", "f  g"};
  constexpr int kNumPieces = 8;
  for (int trial = 0; trial < 10; ++trial) {
    DataGraph g;
    int num_nodes = static_cast<int>(rng.UniformInt(3, 12));
    for (int i = 0; i < num_nodes; ++i) {
      std::string name;
      int len = static_cast<int>(rng.UniformInt(1, 3));
      for (int j = 0; j < len; ++j) {
        name += pieces[static_cast<size_t>(
            rng.UniformInt(0, kNumPieces - 1))];
      }
      NodeId n = g.AddNode(name);
      g.AddEdge(static_cast<NodeId>(rng.UniformInt(0, n - 1)), n);
    }

    std::ostringstream out;
    ASSERT_TRUE(SaveGraph(g, &out));
    std::istringstream in(out.str());
    DataGraph loaded;
    std::string error;
    ASSERT_TRUE(LoadGraph(&in, &loaded, &error)) << error;
    ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
    ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_EQ(loaded.label_name(n), g.label_name(n)) << "trial " << trial;
      EXPECT_EQ(loaded.children(n), g.children(n)) << "trial " << trial;
    }
  }
}

TEST(SerializationTest, SaveRejectsNewlineLabels) {
  DataGraph g;
  NodeId a = g.AddNode("bad\nlabel");
  g.AddEdge(g.root(), a);
  std::ostringstream out;
  EXPECT_FALSE(SaveGraph(g, &out));

  DataGraph g2;
  NodeId b = g2.AddNode("bad\rlabel");
  g2.AddEdge(g2.root(), b);
  std::ostringstream out2;
  EXPECT_FALSE(SaveGraph(g2, &out2));
}

TEST(SerializationTest, IndexRoundTrip) {
  Rng rng(503);
  DataGraph g = testing_util::RandomGraph(150, 4, 25, &rng);
  LabelRequirements reqs;
  reqs[2] = 2;
  reqs[3] = 3;
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::ostringstream out;
  ASSERT_TRUE(SaveIndex(dk.index(), &out));
  std::istringstream in(out.str());
  IndexGraph loaded(&g);
  std::string error;
  ASSERT_TRUE(LoadIndex(&in, &g, &loaded, &error)) << error;

  ASSERT_EQ(loaded.NumIndexNodes(), dk.index().NumIndexNodes());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(loaded.index_of(n), dk.index().index_of(n));
  }
  for (IndexNodeId i = 0; i < loaded.NumIndexNodes(); ++i) {
    EXPECT_EQ(loaded.k(i), dk.index().k(i));
    EXPECT_EQ(loaded.label(i), dk.index().label(i));
  }
  EXPECT_TRUE(loaded.ValidateEdges(&error)) << error;  // adjacency rederived
}

TEST(SerializationTest, DkIndexRoundTripPreservesBehavior) {
  XmarkOptions options;
  options.scale = 0.1;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Rng rng(505);
  std::vector<std::string> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs =
      MineRequirementsFromText(queries, g.labels(), nullptr);
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::ostringstream out;
  ASSERT_TRUE(SaveDkIndex(dk, &out));
  std::istringstream in(out.str());
  DataGraph loaded_graph;
  std::string error;
  auto loaded = LoadDkIndex(&in, &loaded_graph, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  // Identical answers and identical tuning semantics after the round trip.
  for (const std::string& text : queries) {
    PathExpression q = testing_util::MustParse(text, loaded_graph.labels());
    PathExpression q0 = testing_util::MustParse(text, g.labels());
    EXPECT_EQ(EvaluateOnIndex(loaded->index(), q),
              EvaluateOnIndex(dk.index(), q0))
        << text;
  }
  for (LabelId l = 0; l < g.labels().size(); ++l) {
    EXPECT_EQ(loaded->effective_requirement(l), dk.effective_requirement(l));
  }
  // The loaded index keeps working as a live index: updates still apply.
  auto edges = loaded_graph.NodesWithLabel(
      loaded_graph.labels().Find("person"));
  ASSERT_FALSE(edges.empty());
  loaded->AddEdge(edges.front(), edges.back());
  std::string invariant;
  EXPECT_TRUE(loaded->index().ValidateDkConstraint(&invariant)) << invariant;
}

TEST(SerializationTest, FileRoundTrip) {
  Rng rng(507);
  DataGraph g = testing_util::RandomGraph(80, 3, 10, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  const testing_util::ScopedTempDir tmp("serialization");
  const std::string path = tmp.path() + "/index.dki";
  ASSERT_TRUE(SaveDkIndexToFile(dk, path));
  DataGraph loaded_graph;
  std::string error;
  auto loaded = LoadDkIndexFromFile(path, &loaded_graph, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->index().NumIndexNodes(), dk.index().NumIndexNodes());
}

TEST(SerializationTest, RejectsCorruptInput) {
  struct Case {
    const char* name;
    const char* data;
  };
  const Case cases[] = {
      {"empty", ""},
      {"bad magic", "dki-blob v1\nlabels 2\nROOT\nVALUE\n"},
      {"bad version", "dki-graph v2\n"},
      {"missing labels", "dki-graph v1\nnodes 1\n0\nedges 0\n"},
      {"root not ROOT",
       "dki-graph v1\nlabels 3\nROOT\nVALUE\na\nnodes 1\n2\nedges 0\n"},
      {"edge out of range",
       "dki-graph v1\nlabels 2\nROOT\nVALUE\nnodes 1\n0\nedges 1\n0 5\n"},
      {"truncated edges",
       "dki-graph v1\nlabels 2\nROOT\nVALUE\nnodes 1\n0\nedges 3\n"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.data);
    DataGraph g;
    std::string error;
    EXPECT_FALSE(LoadGraph(&in, &g, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

// Crash-safety sweep: a load from a file cut off at ANY byte boundary (a
// torn write, a partial copy) must either fail with a non-empty error or —
// when the cut only loses trailing bytes the format does not need, like the
// final newline — produce a structure identical to the original. It must
// never crash or yield a half-loaded hybrid.
TEST(SerializationTest, GraphPrefixTruncationSweep) {
  Rng rng(511);
  DataGraph g = testing_util::RandomGraph(60, 4, 10, &rng);
  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(g, &out));
  const std::string full = out.str();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    DataGraph loaded;
    std::string error;
    if (!LoadGraph(&in, &loaded, &error)) {
      EXPECT_FALSE(error.empty()) << "cut=" << cut;
      continue;
    }
    ASSERT_EQ(loaded.NumNodes(), g.NumNodes()) << "cut=" << cut;
    ASSERT_EQ(loaded.NumEdges(), g.NumEdges()) << "cut=" << cut;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(loaded.label_name(n), g.label_name(n)) << "cut=" << cut;
      ASSERT_EQ(loaded.children(n), g.children(n)) << "cut=" << cut;
    }
  }
}

TEST(SerializationTest, DkIndexPrefixTruncationSweep) {
  Rng rng(513);
  DataGraph g = testing_util::RandomGraph(50, 3, 8, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  std::ostringstream out;
  ASSERT_TRUE(SaveDkIndex(dk, &out));
  const std::string full = out.str();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    DataGraph loaded_graph;
    std::string error;
    auto loaded = LoadDkIndex(&in, &loaded_graph, &error);
    if (!loaded.has_value()) {
      EXPECT_FALSE(error.empty()) << "cut=" << cut;
      continue;
    }
    ASSERT_EQ(loaded_graph.NumNodes(), g.NumNodes()) << "cut=" << cut;
    ASSERT_EQ(loaded->index().NumIndexNodes(), dk.index().NumIndexNodes())
        << "cut=" << cut;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(loaded->index().index_of(n), dk.index().index_of(n))
          << "cut=" << cut;
    }
  }
}

// Regression: any single-byte change to the header line is fatal, never
// silently tolerated.
TEST(SerializationTest, GraphHeaderByteFlipsAreRejected) {
  DataGraph g = testing_util::BuildMovieGraph();
  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(g, &out));
  std::string full = out.str();
  const size_t header_len = full.find('\n');
  ASSERT_NE(header_len, std::string::npos);

  for (size_t i = 0; i < header_len; ++i) {
    std::string bad = full;
    bad[i] ^= 0x04;  // stays printable for every header character
    std::istringstream in(bad);
    DataGraph loaded;
    std::string error;
    EXPECT_FALSE(LoadGraph(&in, &loaded, &error)) << "byte " << i;
    EXPECT_FALSE(error.empty()) << "byte " << i;
  }
}

// Byte flips anywhere in a saved D(k)-index must never crash the loader or
// produce an index that fails its own structural invariants: each flip
// either fails the load with an error, or yields an index whose extents
// still partition the graph (a flip inside a label name, say, is
// indistinguishable from a different valid file — the checkpoint layer's
// CRC exists precisely because this format cannot detect those).
TEST(SerializationTest, DkIndexByteFlipSweepNeverCrashesOrHalfLoads) {
  Rng rng(515);
  DataGraph g = testing_util::RandomGraph(40, 3, 6, &rng);
  DkIndex dk = DkIndex::Build(&g, {{2, 2}});
  std::ostringstream out;
  ASSERT_TRUE(SaveDkIndex(dk, &out));
  const std::string full = out.str();

  // The extent section starts at the index header; flips there attack the
  // per-extent "<label> <k> <size> <members...>" lines directly.
  const size_t index_start = full.find("dki-index v1");
  ASSERT_NE(index_start, std::string::npos);

  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] ^= 0x11;
    std::istringstream in(bad);
    DataGraph loaded_graph;
    std::string error;
    auto loaded = LoadDkIndex(&in, &loaded_graph, &error);
    if (!loaded.has_value()) {
      EXPECT_FALSE(error.empty()) << "byte " << i;
      continue;
    }
    std::string invariant;
    EXPECT_TRUE(loaded->index().ValidatePartition(&invariant))
        << "byte " << i << ": " << invariant;
  }
}

TEST(SerializationTest, RejectsCorruptIndex) {
  DataGraph g;
  NodeId a = g.AddNode("a");
  (void)a;
  const char* bad_cases[] = {
      "dki-index v1\nindex_nodes 1\n",                    // truncated
      "dki-index v1\nindex_nodes 1\n0 0 1 5\n",           // member range
      "dki-index v1\nindex_nodes 1\n0 0 2 0 0\n",         // duplicate member
      "dki-index v1\nindex_nodes 1\n2 0 2 0 1\n",         // label mismatch
      "dki-index v1\nindex_nodes 1\n0 0 1 0\n",           // node 1 missing
  };
  for (const char* data : bad_cases) {
    std::istringstream in(data);
    IndexGraph index(&g);
    std::string error;
    EXPECT_FALSE(LoadIndex(&in, &g, &index, &error)) << data;
  }
}

}  // namespace
}  // namespace dki
