// The static planning rule behind FrozenView::PlanQuery (query/backend.h
// documents the traversal shapes and gates). Inputs, all O(1) or
// O(|required labels| + |start labels|) per query:
//
//   * label populations from the view's index-side inverted index;
//   * automaton start fanout (Automaton::start_labels / wildcard width) on
//     both the forward and reversed automata.
//
// The plan is a pure function of (view, query, validate): no timing, no
// evaluation history. So repeated evaluations of one query on one view —
// or on two views frozen from the same index — run the same traversal and
// report the same EvalStats.

#include "common/metrics.h"
#include "query/frozen_view.h"

namespace dki {
namespace {

Counter& EmptyShortcircuits() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "serve.eval.backend.planner.empty_shortcircuits");
  return c;
}

EvalPlan EmptyPlan() {
  EvalPlan plan;
  plan.backend = EvalBackend::kNfaPrefilter;
  plan.empty = true;
  EmptyShortcircuits().Increment();
  return plan;
}

}  // namespace

EvalPlan FrozenView::PlanQuery(const PathExpression& query,
                               bool /*validate*/) const {
  const Automaton& fwd = query.forward();
  const Automaton& rev = query.reverse();

  // Required-label scan: emptiness plus the anchor (rarest required label
  // by index population). kUnknownLabel entries (tags absent from the label
  // table) have population 0.
  if (query.max_word_length() == -2) return EmptyPlan();
  LabelId anchor = kInvalidLabel;
  int64_t anchor_pop = 0;
  for (LabelId lab : query.required_labels()) {
    const int64_t pop = IndexNodesWithLabel(lab);
    if (pop == 0) return EmptyPlan();
    if (anchor == kInvalidLabel || pop < anchor_pop) {
      anchor = lab;
      anchor_pop = pop;
    }
  }

  // Forward seed estimate: how many index nodes can start a match.
  int64_t seed_nodes = 0;
  if (fwd.wildcard_start_width() > 0) {
    seed_nodes = num_index_nodes();
  } else {
    for (LabelId lab : fwd.start_labels()) {
      seed_nodes += IndexNodesWithLabel(lab);
    }
  }
  // Accept-side estimate: index nodes whose label can END a word.
  int64_t end_nodes = 0;
  if (rev.wildcard_start_width() > 0) {
    end_nodes = num_index_nodes();
  } else {
    for (LabelId lab : rev.start_labels()) {
      end_nodes += IndexNodesWithLabel(lab);
    }
  }

  // No node can start — or end — a match: {} without traversal. (Matched
  // index nodes need an accepting run, whose first/last symbols are real
  // index-node labels, so either population being zero implies emptiness
  // in raw mode too.)
  if (seed_nodes == 0 || end_nodes == 0) return EmptyPlan();

  // Prefilter: worth an ancestor walk only when there are many seeds and
  // the anchor bucket is much rarer than the seed set.
  EvalPlan plan;
  if (anchor != kInvalidLabel && seed_nodes >= kPrefilterMinSeeds &&
      anchor_pop * kPrefilterFactor <= seed_nodes) {
    plan.backend = EvalBackend::kNfaPrefilter;
    plan.anchor_label = anchor;
  }
  return plan;
}

}  // namespace dki
