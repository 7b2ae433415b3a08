// The production traversal: NFA product-BFS over the frozen index graph
// (EvalBackend::kNfa). It reproduces query/evaluator.cc's EvaluateOnIndex
// pop-for-pop, so EvalStats match the reference exactly (the property
// tests/frozen_view_test.cc pins). With `use_prefilter` the seed set is
// additionally intersected with the prefilter marks computed by
// ComputePrefilterSeeds (backends/prefilter.cc); that prunes only seeds that
// cannot start an accepting path, so the matched set, accept depths, and
// results are unchanged — just fewer visited pairs.

#include <algorithm>
#include <utility>

#include "query/frozen_view.h"

namespace dki {

void FrozenView::RunNfaIndexBfs(FrozenScratch* s, bool use_prefilter,
                                EvalStats* local) const {
  const FrozenScratch::DenseAutomaton& fwd = *s->fwd_;
  s->BeginIndexTraversal(num_index_nodes());
  for (LabelId lab : fwd.seed_labels) {
    const int32_t nb = index_bylabel_off_[static_cast<size_t>(lab)];
    const int32_t ne = index_bylabel_off_[static_cast<size_t>(lab) + 1];
    const int32_t* qb =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab)];
    const int32_t* qe =
        fwd.start_to.data() + fwd.start_off[static_cast<size_t>(lab) + 1];
    for (int32_t e = nb; e != ne; ++e) {
      const IndexNodeId node = index_bylabel_[static_cast<size_t>(e)];
      if (use_prefilter && !s->PfContains(node)) continue;
      for (const int32_t* q = qb; q != qe; ++q) {
        if (s->InsertIndexVisit(node, *q)) s->cur_.push_back({node, *q});
      }
    }
  }
  int32_t depth = 0;
  while (!s->cur_.empty()) {
    for (const FrozenScratch::Frontier& f : s->cur_) {
      ++local->index_nodes_visited;
      if (fwd.accept[static_cast<size_t>(f.state)]) {
        const size_t i = static_cast<size_t>(f.node);
        if (s->accept_gen_[i] != s->index_gen_) {
          s->accept_gen_[i] = s->index_gen_;
          s->accept_depth_[i] = depth;
          s->matched_.push_back(f.node);
        } else {
          s->accept_depth_[i] = std::min(s->accept_depth_[i], depth);
        }
      }
      const int32_t cb = index_child_off_[static_cast<size_t>(f.node)];
      const int32_t ce = index_child_off_[static_cast<size_t>(f.node) + 1];
      for (int32_t e = cb; e != ce; ++e) {
        const IndexNodeId c = index_child_[static_cast<size_t>(e)];
        const LabelId clab = index_label_[static_cast<size_t>(c)];
        const int32_t* mb = fwd.moves_begin(f.state, clab);
        const int32_t* me = fwd.moves_end(f.state, clab);
        for (const int32_t* q = mb; q != me; ++q) {
          if (s->InsertIndexVisit(c, *q)) s->next_.push_back({c, *q});
        }
      }
    }
    std::swap(s->cur_, s->next_);
    s->next_.clear();
    ++depth;
  }
}

}  // namespace dki
