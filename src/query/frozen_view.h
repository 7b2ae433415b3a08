#ifndef DKINDEX_QUERY_FROZEN_VIEW_H_
#define DKINDEX_QUERY_FROZEN_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "graph/data_graph.h"
#include "index/index_graph.h"
#include "pathexpr/path_expression.h"
#include "query/backend.h"
#include "query/evaluator.h"

namespace dki {

class FrozenScratch;

// The frozen read path: an immutable flat-memory snapshot of one
// (data graph, index graph) pair, built once per published state and shared
// by any number of reader threads. Evaluation against it is
// result-bit-identical to the reference evaluators (query/evaluator.h)
// whichever traversal shape the planner picks (and stats-bit-identical too
// when the plan is plain kNfa — see query/backend.h), running on
// cache-friendly arrays instead of the mutation-friendly representation:
//
//   * children/parents of both graphs as CSR (offset + edge arrays);
//   * extents as one CSR over the data nodes;
//   * a label -> nodes inverted index on both graphs, so automaton start
//     states are seeded by label bucket instead of an O(|V|) full scan;
//   * per-query dense state×label transition tables (FrozenScratch), so the
//     BFS inner loop is pure array indexing — no hashing, no per-move
//     allocation;
//   * flat two-vector BFS frontiers and a generation-stamped dense
//     accept-depth array instead of deque + unordered_map.
//
// The view borrows nothing: every array is an owned copy, so the source
// graphs may mutate (or die) freely afterwards. `epoch()` records the index
// epoch at freeze time for result-cache keying.
class FrozenView {
 public:
  // Candidate count at or above which Evaluate fans uncertain-extent
  // validation out over the thread pool (when one is given).
  static constexpr int64_t kParallelValidationThreshold = 64;

  // EvaluateBatch caps its lane count so each lane gets at least this many
  // queries — fanning a tiny batch over many lanes costs more in wake-up
  // latency than the parallelism returns.
  static constexpr int64_t kMinQueriesPerLane = 8;

  // Freezes `index` and its data graph. O(|V| + |E|) flat copies.
  explicit FrozenView(const IndexGraph& index);

  FrozenView(const FrozenView&) = delete;
  FrozenView& operator=(const FrozenView&) = delete;

  uint64_t epoch() const { return epoch_; }
  int64_t num_data_nodes() const {
    return static_cast<int64_t>(data_label_.size());
  }
  int64_t num_index_nodes() const {
    return static_cast<int64_t>(index_label_.size());
  }
  int32_t num_labels() const { return num_labels_; }
  // Heap bytes this view holds: the capacity of every owned array.
  int64_t ApproxBytes() const;

  // How many data nodes carry `label` in this view (0 for labels outside
  // the frozen universe, including kUnknownLabel). O(1), backed by the
  // label->nodes inverted index. ShardedQueryServer's scatter phase uses
  // this to prune shards whose label population cannot seed a query's
  // automaton start states.
  int64_t DataNodesWithLabel(LabelId label) const {
    if (label < 0 || label >= num_labels_) return 0;
    return data_bylabel_off_[static_cast<size_t>(label) + 1] -
           data_bylabel_off_[static_cast<size_t>(label)];
  }

  // Same over the index graph: how many index nodes carry `label`. The
  // planner's population estimates are built from this.
  int64_t IndexNodesWithLabel(LabelId label) const {
    if (label < 0 || label >= num_labels_) return 0;
    return index_bylabel_off_[static_cast<size_t>(label) + 1] -
           index_bylabel_off_[static_cast<size_t>(label)];
  }

  // The static planning rule (query/backends/planner.cc): empty
  // short-circuit, prefilter, or plain NFA traversal for `query`, from
  // label-population stats and automaton start fanout alone. A pure
  // function of (view, query): two views frozen from one index plan alike,
  // and repeated calls never change the plan, so EvalStats repeat exactly.
  // `validate` does not enter the rule. Exposed for tests and bench
  // introspection.
  EvalPlan PlanQuery(const PathExpression& query, bool validate) const;

  // Index-graph evaluation, result-identical to EvaluateOnIndex: certain
  // extents by Theorem 1, uncertain extents validated against the frozen
  // data graph (or kept whole with `validate` false). The traversal takes
  // the shape PlanQuery picks (query/backend.h) — results are bit-identical
  // either way; EvalStats counters match the reference exactly when the
  // plan is plain kNfa, and count the prefiltered traversal's own (smaller)
  // work otherwise. Passing a `scratch` reuses traversal state across
  // calls (one scratch serves one thread); without one a fresh scratch is
  // allocated per call. With `validation_pool` set and at least
  // kParallelValidationThreshold uncertain candidates, their validation
  // fans out over the pool (results stay deterministic; the pool must not
  // be running another job).
  std::vector<NodeId> Evaluate(const PathExpression& query,
                               EvalStats* stats = nullptr,
                               bool validate = true,
                               FrozenScratch* scratch = nullptr,
                               ThreadPool* validation_pool = nullptr) const;

  // Ground-truth evaluation on the frozen data graph, equivalent to
  // EvaluateOnDataGraph. Always the unfiltered NFA product-BFS — the
  // planner only covers the index path.
  std::vector<NodeId> EvaluateOnData(const PathExpression& query,
                                     EvalStats* stats = nullptr,
                                     FrozenScratch* scratch = nullptr) const;

  // Evaluates a batch of queries in parallel over the pool (one scratch per
  // lane, queries split into contiguous chunks). results[i] and stats[i]
  // (when requested) are bit-identical to a sequential Evaluate(queries[i])
  // regardless of thread count. A null pool (or a single-lane one) runs
  // inline. The pool must not be running another job (ThreadPool is not
  // reentrant), so concurrent EvaluateBatch calls need distinct pools.
  //
  // `lane_scratches`, when given, supplies persistent per-lane scratches
  // (grown to the lane count on demand): a server calling EvaluateBatch
  // repeatedly with the same pool amortizes dense-table compilation across
  // batches instead of recompiling every query every call. The vector must
  // not be shared with a concurrent batch.
  std::vector<std::vector<NodeId>> EvaluateBatch(
      const std::vector<const PathExpression*>& queries, ThreadPool* pool,
      std::vector<EvalStats>* stats = nullptr, bool validate = true,
      std::vector<std::unique_ptr<FrozenScratch>>* lane_scratches =
          nullptr) const;
  std::vector<std::vector<NodeId>> EvaluateBatch(
      const std::vector<PathExpression>& queries, ThreadPool* pool,
      std::vector<EvalStats>* stats = nullptr, bool validate = true,
      std::vector<std::unique_ptr<FrozenScratch>>* lane_scratches =
          nullptr) const;

 private:
  friend class FrozenScratch;

  bool ValidateFrozenCandidate(FrozenScratch* scratch, NodeId node,
                               int64_t* visited_pairs) const;

  // The index-side traversal Evaluate runs, defined in src/query/backends/
  // (the static rule choosing its shape lives in planner.cc). Fills the
  // scratch's matched_/accept_depth_ state for the shared Theorem-1 +
  // validation tail in Evaluate.
  void RunNfaIndexBfs(FrozenScratch* s, bool use_prefilter,
                      EvalStats* local) const;
  // Marks (in the scratch's prefilter stamp array) every index node that is
  // an ancestor-or-self, within the query's word-length bound, of a node
  // carrying `anchor` — a superset of the nodes that can start a match.
  void ComputePrefilterSeeds(FrozenScratch* s, LabelId anchor,
                             int max_word_length) const;

  // Row spans into the owned CSR arrays: a data node's children or
  // parents, an index node's extent.
  std::pair<const int32_t*, const int32_t*> ChildRow(int32_t node) const {
    return Row(data_child_off_, data_child_, node);
  }
  std::pair<const int32_t*, const int32_t*> ParentRow(int32_t node) const {
    return Row(data_parent_off_, data_parent_, node);
  }
  std::pair<const int32_t*, const int32_t*> ExtentRow(int32_t inode) const {
    return Row(extent_off_, extent_, inode);
  }
  static std::pair<const int32_t*, const int32_t*> Row(
      const std::vector<int32_t>& off, const std::vector<int32_t>& values,
      int32_t row) {
    const int32_t* base = values.data();
    return {base + off[static_cast<size_t>(row)],
            base + off[static_cast<size_t>(row) + 1]};
  }

  uint64_t epoch_ = 0;
  int32_t num_labels_ = 0;

  // Data graph, flattened. Offsets are int32 (NodeId itself is int32, so
  // edge counts fit).
  std::vector<LabelId> data_label_;
  std::vector<int32_t> data_child_off_;   // size N+1
  std::vector<NodeId> data_child_;
  std::vector<int32_t> data_parent_off_;  // size N+1
  std::vector<NodeId> data_parent_;
  std::vector<int32_t> data_bylabel_off_;  // size L+1
  std::vector<NodeId> data_bylabel_;       // node ids, ascending per bucket

  // Index graph, flattened. Parent adjacency exists for the prefilter's
  // ancestor walk.
  std::vector<LabelId> index_label_;
  std::vector<int32_t> index_k_;
  std::vector<int32_t> index_child_off_;  // size M+1
  std::vector<IndexNodeId> index_child_;
  std::vector<int32_t> index_parent_off_;  // size M+1
  std::vector<IndexNodeId> index_parent_;
  std::vector<int32_t> extent_off_;  // size M+1
  std::vector<NodeId> extent_;       // concatenated extents, size N
  std::vector<int32_t> index_bylabel_off_;  // size L+1
  std::vector<IndexNodeId> index_bylabel_;
};

// Reusable per-thread traversal state for FrozenView evaluation: the dense
// per-query transition tables, the two-vector BFS frontiers, and the
// generation-stamped visited / accept-depth arrays (invalidated in O(1) per
// query, re-zeroed only on first touch). One instance serves one thread; it
// re-sizes itself across views and queries.
class FrozenScratch {
 public:
  FrozenScratch() = default;

  FrozenScratch(const FrozenScratch&) = delete;
  FrozenScratch& operator=(const FrozenScratch&) = delete;

 private:
  friend class FrozenView;

  // A query automaton compiled against a fixed label universe: for every
  // (state, label), the dense CSR span of successor states, in the exact
  // first-appearance order Automaton::Move produces (so frozen traversals
  // visit pairs in the reference order); for every label, the sorted-unique
  // start-move span; and the labels whose start span is non-empty (the BFS
  // seed set — with a wildcard start edge this is every label).
  struct DenseAutomaton {
    int num_states = 0;
    int32_t num_labels = 0;
    std::vector<uint8_t> accept;       // size S
    std::vector<int32_t> move_off;     // size S*L+1, row-major by state
    std::vector<int32_t> move_to;
    std::vector<int32_t> start_off;    // size L+1
    std::vector<int32_t> start_to;
    std::vector<LabelId> seed_labels;  // labels with a non-empty start span

    void Compile(const Automaton& a, int32_t num_labels);

    const int32_t* moves_begin(int state, LabelId label) const {
      return move_to.data() +
             move_off[static_cast<size_t>(state) *
                          static_cast<size_t>(num_labels) +
                      static_cast<size_t>(label)];
    }
    const int32_t* moves_end(int state, LabelId label) const {
      return move_to.data() +
             move_off[static_cast<size_t>(state) *
                          static_cast<size_t>(num_labels) +
                      static_cast<size_t>(label) + 1];
    }

   private:
    // Compile-time scratch (reused across queries).
    std::vector<uint8_t> seen_state_;
    std::vector<uint8_t> label_mark_;
    std::vector<LabelId> touched_labels_;
    std::vector<int32_t> wild_seq_;
  };

  struct Frontier {
    int32_t node;
    int32_t state;
  };

  // One query's compiled tables plus a fingerprint of (both automata,
  // label-universe size): the cache below is keyed by query text, and the
  // fingerprint catches the pathological aliasing cases (same text compiled
  // against a different label table) without storing the automata.
  struct CompiledQuery {
    uint64_t fingerprint = 0;  // 0 = never compiled
    DenseAutomaton fwd;
    DenseAutomaton rev;
  };

  // Serving workloads cycle a bounded query set; past this many distinct
  // texts the whole cache is dropped (simple and O(1) amortized — an LRU
  // would buy little for a scratch-local cache).
  static constexpr size_t kMaxCompiledQueries = 256;

  // Looks up (or compiles) the query's dense tables and points fwd_/rev_ at
  // them. Repeat evaluations of a cycling workload hit the text-keyed cache
  // and pay one string hash + fingerprint check, no recompilation.
  void PrepareForQuery(const FrozenView& view, const PathExpression& query);
  // Sizes/invalidates the index-side traversal arrays (visited masks,
  // accept depth) and clears the frontiers. O(1) amortized via generations.
  void BeginIndexTraversal(int64_t num_index_nodes);
  // Same for the data-side arrays (validation and EvaluateOnData), for an
  // automaton with `num_states` states.
  void BeginDataTraversal(int64_t num_data_nodes, int num_states);

  bool InsertIndexVisit(int32_t node, int32_t state);
  bool InsertDataVisit(int32_t node, int32_t state);

  // Prefilter membership: was `node` marked by the current prefilter pass?
  bool PfContains(int32_t node) const {
    return pf_mark_gen_[static_cast<size_t>(node)] == pf_gen_;
  }

  // Compiled-query cache (see PrepareForQuery); fwd_/rev_ point into it.
  std::unordered_map<std::string, std::unique_ptr<CompiledQuery>> compiled_;
  const DenseAutomaton* fwd_ = nullptr;
  const DenseAutomaton* rev_ = nullptr;

  // Index-side traversal state (words_ = ceil(states/64) mask words/node).
  int index_words_ = 0;
  uint64_t index_gen_ = 0;
  std::vector<uint64_t> index_masks_;
  std::vector<uint64_t> index_mask_gen_;
  std::vector<int32_t> accept_depth_;
  std::vector<uint64_t> accept_gen_;
  std::vector<int32_t> matched_;  // index nodes, discovery order

  // Data-side traversal state.
  int data_words_ = 0;
  uint64_t data_gen_ = 0;
  std::vector<uint64_t> data_masks_;
  std::vector<uint64_t> data_mask_gen_;
  std::vector<uint64_t> result_gen_;  // EvaluateOnData in-result stamps
  std::vector<int32_t> matched_data_;

  // Flat two-vector frontiers (shared by both traversals; a validation
  // never interleaves with the index BFS that spawned it).
  std::vector<Frontier> cur_;
  std::vector<Frontier> next_;

  // Prefilter ancestor-walk state: generation-stamped marks over the index
  // nodes plus plain node frontiers (the walk carries no automaton state).
  uint64_t pf_gen_ = 0;
  std::vector<uint64_t> pf_mark_gen_;
  std::vector<int32_t> pf_cur_;
  std::vector<int32_t> pf_next_;

  // Uncertain-extent candidates of the current query (parallel validation).
  std::vector<NodeId> candidates_;
  std::vector<uint8_t> verdicts_;
};

}  // namespace dki

#endif  // DKINDEX_QUERY_FROZEN_VIEW_H_
