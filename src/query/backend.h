#ifndef DKINDEX_QUERY_BACKEND_H_
#define DKINDEX_QUERY_BACKEND_H_

#include <cstdint>

#include "graph/label_table.h"

namespace dki {

// The two shapes of the one traversal behind FrozenView::Evaluate. Both
// return RESULTS bit-identical to EvaluateOnIndex (tests/backend_diff_test.cc
// holds them to it); the plan is a pure function of (view, query, validate),
// so EvalStats repeat exactly across calls and views of one index.
//
//   kNfa          — the reference NFA product-BFS over the index graph
//                   (query/backends/nfa_backend.cc), bit-identical to
//                   EvaluateOnIndex in results AND stats.
//   kNfaPrefilter — the same traversal behind a required-label prefilter
//                   (query/backends/prefilter.cc): must-occur labels from
//                   the AST intersect the label->nodes inverted indexes; a
//                   query whose required label has no index population
//                   short-circuits to {}, and otherwise the BFS seed set
//                   shrinks to ancestors (within the query's length bound)
//                   of the rarest required label's bucket. Fewer visited
//                   pairs, so stats count less than the reference.
enum class EvalBackend {
  kNfa = 0,
  kNfaPrefilter,
};
inline constexpr int kNumEvalBackends = 2;

// Metric name of a backend: "nfa", "prefilter" (used in
// serve.eval.backend.<name>.* metrics and bench plan histograms).
const char* EvalBackendName(EvalBackend backend);

// One planned evaluation: the traversal shape plus the planner's prefilter
// decisions. Produced by FrozenView::PlanQuery.
struct EvalPlan {
  EvalBackend backend = EvalBackend::kNfa;
  // A required label has zero index population (or is unknown to the label
  // table), or no index node can start or end a match: the result is {}
  // with no traversal at all.
  bool empty = false;
  // Prefilter anchor: the required label with the smallest index
  // population; kInvalidLabel when the plan has no prefilter pass.
  LabelId anchor_label = kInvalidLabel;
};

// The planner's static prefilter gates (query/backends/planner.cc), grounded
// by bench/micro's prefilter selectivity sweep:
//
//   kPrefilterMinSeeds   — below this many estimated seed nodes the BFS is
//                          already cheap; the ancestor walk would cost more
//                          than it saves.
//   kPrefilterFactor     — the anchor bucket must be at least this many
//                          times smaller than the seed estimate before the
//                          ancestor walk pays for itself.
inline constexpr int64_t kPrefilterMinSeeds = 256;
inline constexpr int64_t kPrefilterFactor = 8;

}  // namespace dki

#endif  // DKINDEX_QUERY_BACKEND_H_
