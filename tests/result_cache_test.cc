#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "tests/test_util.h"

namespace dki {
namespace {

TEST(CanonicalizeQueryTest, NormalizesTokenSpacing) {
  EXPECT_EQ(CanonicalizeQuery("a.b.c"), "a.b.c");
  EXPECT_EQ(CanonicalizeQuery("a . b\t.  c"), "a.b.c");
  EXPECT_EQ(CanonicalizeQuery("(a|b)* . _ // c"), "(a|b)*._//c");
  // Untokenizable input falls through unchanged (it cannot be a live query).
  EXPECT_EQ(CanonicalizeQuery("a.%"), "a.%");
}

TEST(ResultCacheTest, HitOnRepeatedQuery) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());
  EvalStats first_stats;
  auto first = cache.CachedEvaluate(dk.index(), q, &first_stats);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);

  // A textual variant of the same query hits the same entry.
  PathExpression variant =
      testing_util::MustParse("director . movie . title", g.labels());
  EvalStats hit_stats;
  auto second = cache.CachedEvaluate(dk.index(), variant, &hit_stats);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.stats().hits, 1);
  // A hit visits nothing: its only stat contribution is the result size.
  EXPECT_EQ(hit_stats.index_nodes_visited, 0);
  EXPECT_EQ(hit_stats.data_nodes_visited, 0);
  EXPECT_EQ(hit_stats.result_size, first_stats.result_size);
  EXPECT_EQ(first, EvaluateOnIndex(dk.index(), q));
}

TEST(ResultCacheTest, ValidateFlagKeyedSeparately) {
  Rng rng(811);
  DataGraph g = testing_util::RandomGraph(120, 4, 30, &rng);
  LabelRequirements reqs;
  DkIndex dk = DkIndex::Build(&g, reqs);  // k=0 everywhere: all uncertain

  ResultCache cache;
  std::string text = testing_util::RandomChainQuery(g, 3, &rng);
  PathExpression q = testing_util::MustParse(text, g.labels());
  auto validated = cache.CachedEvaluate(dk.index(), q, nullptr, true);
  auto raw = cache.CachedEvaluate(dk.index(), q, nullptr, false);
  EXPECT_EQ(cache.stats().misses, 2);  // different result spaces, no mixups
  EXPECT_EQ(validated, EvaluateOnIndex(dk.index(), q, nullptr, true));
  EXPECT_EQ(raw, EvaluateOnIndex(dk.index(), q, nullptr, false));
}

TEST(ResultCacheTest, AddEdgeInvalidatesViaEpoch) {
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  PathExpression q =
      testing_util::MustParse("actor.movie.title", g.labels());
  auto before = cache.CachedEvaluate(dk.index(), q);

  // Wire another actor to another movie: the query answer grows.
  LabelId actor = g.labels().Find("actor");
  LabelId movie = g.labels().Find("movie");
  NodeId lone_actor = kInvalidNode, unshared_movie = kInvalidNode;
  for (NodeId a : g.NodesWithLabel(actor)) {
    bool has_movie_child = false;
    for (NodeId c : g.children(a)) {
      if (g.label(c) == movie) has_movie_child = true;
    }
    if (!has_movie_child) lone_actor = a;
  }
  for (NodeId m : g.NodesWithLabel(movie)) {
    bool has_actor_parent = false;
    for (NodeId p : g.parents(m)) {
      if (g.label(p) == actor) has_actor_parent = true;
    }
    if (!has_actor_parent) unshared_movie = m;
  }
  ASSERT_NE(lone_actor, kInvalidNode);
  ASSERT_NE(unshared_movie, kInvalidNode);

  uint64_t epoch_before = dk.epoch();
  dk.AddEdge(lone_actor, unshared_movie);
  EXPECT_GT(dk.epoch(), epoch_before);

  auto after = cache.CachedEvaluate(dk.index(), q);
  EXPECT_EQ(cache.stats().stale_drops, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(after, EvaluateOnIndex(dk.index(), q));
  EXPECT_NE(before, after) << "the new edge should change the answer";
}

TEST(ResultCacheTest, EveryMutationKindBumpsEpoch) {
  Rng rng(813);
  DataGraph g = testing_util::RandomGraph(150, 4, 30, &rng);
  LabelRequirements reqs;
  reqs[static_cast<LabelId>(rng.UniformInt(2, g.labels().size() - 1))] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);

  uint64_t epoch = dk.epoch();

  // A cached entry stored before each mutation must be stale afterwards:
  // TryGet at the post-mutation epoch drops it and misses.
  ResultCache cache;
  int64_t expected_stale_drops = 0;
  auto expect_invalidated = [&]() {
    std::vector<NodeId> out;
    EXPECT_FALSE(cache.TryGet("probe", dk.epoch(), &out));
    EXPECT_EQ(cache.stats().stale_drops, ++expected_stale_drops);
  };

  // AddEdge (fresh edge).
  NodeId u = kInvalidNode, v = kInvalidNode;
  for (int tries = 0; tries < 200; ++tries) {
    NodeId a = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId b = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    if (a != b && !g.HasEdge(a, b)) {
      u = a;
      v = b;
      break;
    }
  }
  ASSERT_NE(u, kInvalidNode);
  cache.Put("probe", dk.epoch(), {});
  dk.AddEdge(u, v);
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // AddEdge on an already-present edge is a no-op and need not invalidate.
  dk.AddEdge(u, v);

  // RemoveEdge.
  epoch = dk.epoch();
  cache.Put("probe", dk.epoch(), {});
  ASSERT_TRUE(dk.RemoveEdge(u, v));
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // AddSubgraph.
  DataGraph h;
  NodeId ha = h.AddNode("sub_x");
  NodeId hb = h.AddNode("sub_y");
  h.AddEdge(h.root(), ha);
  h.AddEdge(ha, hb);
  cache.Put("probe", dk.epoch(), {});
  dk.AddSubgraph(h);
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // Demote (Theorem 2 quotient rebuild).
  cache.Put("probe", dk.epoch(), {});
  dk.Demote(LabelRequirements{});
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
  epoch = dk.epoch();

  // Promote back.
  cache.Put("probe", dk.epoch(), {});
  dk.PromoteBatch(reqs);
  EXPECT_GT(dk.epoch(), epoch);
  expect_invalidated();
}

TEST(ResultCacheTest, LruEvictionUnderSmallByteBudget) {
  Rng rng(821);
  DataGraph g = testing_util::RandomGraph(300, 5, 50, &rng);
  LabelRequirements reqs;
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache::Options options;
  options.byte_budget = 600;  // room for only a few entries
  ResultCache cache(options);

  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) {
    texts.push_back(testing_util::RandomChainQuery(g, 2, &rng));
  }
  for (const std::string& text : texts) {
    PathExpression q = testing_util::MustParse(text, g.labels());
    cache.CachedEvaluate(dk.index(), q);
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, options.byte_budget);
  EXPECT_LT(stats.entries, 12);

  // The most recent distinct query survived; answers stay correct either way.
  PathExpression last = testing_util::MustParse(texts.back(), g.labels());
  auto result = cache.CachedEvaluate(dk.index(), last);
  EXPECT_EQ(result, EvaluateOnIndex(dk.index(), last));
}

TEST(ResultCacheTest, OversizedEntryRejectedWithoutEviction) {
  ResultCache::Options options;
  options.byte_budget = 600;
  ResultCache cache(options);

  cache.Put("small_a", 1, {1, 2, 3});
  cache.Put("small_b", 1, {4, 5, 6});
  ResultCache::Stats before = cache.stats();
  ASSERT_EQ(before.entries, 2);

  // An entry whose own footprint exceeds the entire budget must be turned
  // away up front — inserting it and evicting to budget would wipe every
  // resident entry AND the new one, leaving the cache empty.
  std::vector<NodeId> huge(1024, 7);  // 4 KiB of payload vs a 600 B budget
  cache.Put("huge", 1, huge);

  ResultCache::Stats after = cache.stats();
  EXPECT_EQ(after.entries, 2);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.oversized_rejects, 1);

  std::vector<NodeId> out;
  EXPECT_TRUE(cache.TryGet("small_a", 1, &out));
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_TRUE(cache.TryGet("small_b", 1, &out));
  EXPECT_FALSE(cache.TryGet("huge", 1, &out));
}

TEST(ResultCacheTest, ConcurrentMixedUseKeepsInvariants) {
  ResultCache::Options options;
  options.byte_budget = 4096;
  ResultCache cache(options);

  // Hammer TryGet/Put/Clear/stats from the thread pool; the assertions are
  // the invariants (budget respected, stats consistent) plus, under TSan,
  // the absence of data races.
  ThreadPool pool(4);
  constexpr int64_t kIters = 2000;
  pool.ParallelFor(kIters, 8, [&](int chunk, int64_t begin, int64_t end) {
    (void)chunk;
    for (int64_t i = begin; i < end; ++i) {
      std::string key = "q";
      key += std::to_string(i % 17);
      uint64_t epoch = static_cast<uint64_t>(i % 3);
      switch (i % 5) {
        case 0:
        case 1:
          cache.Put(key, epoch,
                    std::vector<NodeId>(static_cast<size_t>(i % 9),
                                        static_cast<NodeId>(i)));
          break;
        case 2:
        case 3: {
          std::vector<NodeId> out;
          cache.TryGet(key, epoch, &out);
          break;
        }
        case 4:
          if (i % 401 == 0) {
            cache.Clear();
          } else {
            ResultCache::Stats s = cache.stats();
            EXPECT_GE(s.bytes, 0);
            EXPECT_LE(s.bytes, options.byte_budget);
          }
          break;
      }
    }
  });

  ResultCache::Stats s = cache.stats();
  EXPECT_LE(s.bytes, options.byte_budget);
  EXPECT_GE(s.hits + s.misses, 0);
}

TEST(ResultCacheTest, CachedMatchesUncachedOnXmarkSeed) {
  XmarkOptions options;
  options.scale = 0.08;
  DataGraph g = GenerateXmarkGraph(options).graph;
  Rng rng(823);
  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) {
    texts.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs = MineRequirementsFromText(texts, g.labels());
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& text : texts) {
      PathExpression q = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(cache.CachedEvaluate(dk.index(), q),
                EvaluateOnIndex(dk.index(), q))
          << text << " pass " << pass;
    }
  }
  // Second pass is all hits: results are bit-identical stored vectors.
  EXPECT_GE(cache.stats().hits, 12);
}

TEST(ResultCacheTest, CachedMatchesUncachedOnNasaSeedAcrossUpdates) {
  NasaOptions options;
  options.scale = 0.3;
  DataGraph g = GenerateNasaGraph(options).graph;
  Rng rng(827);
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) {
    texts.push_back(testing_util::RandomChainQuery(
        g, static_cast<int>(rng.UniformInt(2, 4)), &rng));
  }
  LabelRequirements reqs = MineRequirementsFromText(texts, g.labels());
  DkIndex dk = DkIndex::Build(&g, reqs);

  ResultCache cache;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& text : texts) {
      PathExpression q = testing_util::MustParse(text, g.labels());
      EXPECT_EQ(cache.CachedEvaluate(dk.index(), q),
                EvaluateOnIndex(dk.index(), q))
          << text << " round " << round;
    }
    // Mutate between rounds; stale entries must never be served.
    NodeId a = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    NodeId b = static_cast<NodeId>(rng.UniformInt(1, g.NumNodes() - 1));
    if (a != b && !g.HasEdge(a, b)) dk.AddEdge(a, b);
  }
  EXPECT_GT(cache.stats().stale_drops, 0);
}

}  // namespace
}  // namespace dki
