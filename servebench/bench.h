#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

// Shared declarations of the serving benchmark (see README.md): workload
// definitions and seeded input generation (inputs.cc), the in-memory span
// recorder (trace.cc) and the layer-by-layer replay (replay.cc). main.cc
// drives the serving stack and prints the result.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "common/random.h"
#include "index/dk_index.h"
#include "serve/update_queue.h"
#include "xml/xml_to_graph.h"

namespace servebench {

using dki::NodeId;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- inputs

// Query shape classes. kChain is the Section 6.1 recipe; the others are the
// bench/backends classes plus mid-path closures a._*.b.
enum class Shape {
  kChain,
  kWildcardStart,
  kAlternationStar,
  kDeadLabel,
  kClosure,
};
inline constexpr int kNumShapes = 5;
const char* ShapeName(Shape shape);

struct Query {
  std::string text;
  Shape shape = Shape::kChain;
};

struct WorkloadSpec {
  std::string name;
  std::string dataset;  // "xmark" or "nasa"
  double scale = 1.0;
  int reader_clients = 3;
  bool writer_client = false;  // one closed-loop writer beside the readers
  double zipf_s = 0.0;         // query popularity; 0 = uniform
  int mixed_pool = 0;          // > 0: pool of this many mixed-shape queries
  int read_round = 0;          // requests per read round (Zipf tapes)
  int warmup_rounds = 0;       // untimed read rounds before measuring
  // The document and the query pool are fixed per workload (made from
  // this seed, not from --seed), so that runs with different seeds differ
  // only in their request streams.
  uint64_t dataset_seed = 0;
};

// The three workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// One writer op of the tape. Retunes carry no targets here: the targets
// are label requirements, resolved against the loaded label table.
struct WriteOp {
  enum Kind { kAddEdge, kRemoveEdge, kRetuneShrink, kRetuneGrow };
  Kind kind = kAddEdge;
  NodeId u = dki::kInvalidNode;
  NodeId v = dki::kInvalidNode;
};

// Writer round: edge toggles, with a retune wave every kRetuneEvery ops
// (op kRetuneEvery-1, 2*kRetuneEvery-1, ...) that alternates shrink and
// grow, ending on a grow.
inline constexpr int kWriteRound = 64;
inline constexpr int kRetuneEvery = 16;

struct Inputs {
  std::string xml;  // the document text the program loads
  dki::XmlToGraphOptions graph_options;
  // The Section 6.1 load the index is tuned for (its requirements are
  // mined from these texts during set-up).
  std::vector<std::string> tuning_queries;
  std::vector<Query> pool;  // distinct query texts
};

// The document and query texts of `spec` (from spec.dataset_seed). The
// request streams come from --seed: see ReadTape and WriteTape.
Inputs MakeInputs(const WorkloadSpec& spec);

// The read tape: request i asks for pool entry At(i). Read-only, so any
// number of clients can race a shared cursor over it. The tape is made of
// rounds of fixed work, each drawn from the next of kPermutations seeded
// permutations of the pool:
//   * Zipf popularity (zipf_s > 0): a round is `round` requests, each drawn
//     by its own generator seeded from (seed, i), with rank r of the
//     round's permutation at weight 1/(r+1)^s. The hot set drifts from
//     round to round, so a run averages over many hot sets.
//   * Uniform popularity (zipf_s == 0): a round asks for every pool entry
//     once, in the permutation's order, so every round does the same work.
class ReadTape {
 public:
  ReadTape(size_t pool_size, double zipf_s, int64_t round, uint64_t seed);
  uint32_t At(int64_t i) const;
  int64_t round() const { return round_; }

 private:
  static constexpr int kPermutations = 32;
  std::vector<std::vector<uint32_t>> perms_;
  dki::ZipfSampler zipf_;
  bool uniform_;
  int64_t round_;
  uint64_t seed_;
};

// The write tape, one round at a time: NURand edge toggles over a pool of
// Section 6.2 candidate edges (ID/IDREF label pairs) absent from `g`, with
// the retune waves. Each round continues the previous one's toggle state,
// so consecutive rounds form one consistent tape.
class WriteTape {
 public:
  WriteTape(const WorkloadSpec& spec, const dki::DataGraph& g, uint64_t seed);
  std::vector<WriteOp> NextRound();

 private:
  std::vector<std::pair<NodeId, NodeId>> candidates_;
  std::vector<char> present_;
  uint64_t seed_;
  int64_t next_round_ = 0;
  int64_t nurand_c_;
};

// Shrink targets of the retune waves: every mined requirement lowered by 1.
dki::LabelRequirements ShrinkTargets(const dki::LabelRequirements& reqs);

dki::UpdateOp ToUpdateOp(const WriteOp& op, const dki::LabelRequirements& grow,
                         const dki::LabelRequirements& shrink);

// ---------------------------------------------------------------- latency

// Log-linear latency histogram (64 sub-buckets per power of two, <1.6%
// relative error). Single writer; merge per-thread instances at the end.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(64 * 64, 0) {}
  void Record(int64_t ns);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  // Value at quantile q in [0, 1], in ns.
  double Quantile(double q) const;

 private:
  static size_t Index(uint64_t v);
  static double Mid(size_t index);
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

// The reported tail: p99, or the highest quantile that still leaves at
// least ten samples beyond it when there are fewer than 1000 samples.
double TailQuantile(int64_t samples);

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // spans of one request share it
  int32_t thread = 0;
};

// In-memory span store: Begin/End pairs per thread, merged at the end.
// Each thread records into its own Buffer; NewBuffer and Collect lock.
class Tracer {
 public:
  // Keeps at most `max_spans` spans per buffer (later ones are dropped);
  // span ids start at `first_id`, so tracers with disjoint id ranges can
  // be merged.
  Tracer(size_t max_spans, int64_t first_id)
      : max_spans_(max_spans), next_id_(first_id) {}

  struct Buffer {
    int32_t thread = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // stack of indices into spans
  };
  Buffer* NewBuffer();

  // Opens a span on `buf` (child of the innermost open span, if any).
  void Begin(Buffer* buf, const char* name, int64_t request);
  void End(Buffer* buf);

  // Every recorded span, all threads.
  std::vector<Span> Collect() const;

 private:
  const size_t max_spans_;
  mutable std::mutex mu_;  // guards buffers_
  std::atomic<int64_t> next_id_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Buffer* buf, const char* name,
             int64_t request)
      : tracer_(tracer), buf_(buf) {
    if (tracer_ != nullptr) tracer_->Begin(buf_, name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(buf_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Tracer::Buffer* buf_;
};

// Per span name: count, mean duration and median self time (duration minus
// the part its children cover), in ns.
struct SpanSummary {
  int64_t count = 0;
  double mean_ns = 0.0;
  double median_self_ns = 0.0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

// Writes Chrome trace-event JSON ("X" events, microseconds).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------- replay

// Everything the replay needs: the loaded state at set-up time and the
// requests the clients sent, in tape order.
struct ReplayInput {
  const dki::DkIndex* initial = nullptr;  // the index the server forked
  dki::LabelRequirements grow;
  dki::LabelRequirements shrink;
  const std::vector<Query>* pool = nullptr;
  const ReadTape* tape = nullptr;
  // Read tape positions [0, first_read) are replayed untimed on
  // `warmup_threads` threads first, so that the caches and the planner's
  // per-query history start where the server's were; then the `num_reads`
  // reads from first_read on are replayed and timed.
  int64_t first_read = 0;
  int64_t num_reads = 0;
  int warmup_threads = 1;
  std::vector<WriteOp> writes;  // in tape order
  int64_t cache_byte_budget = 0;
  std::string work_dir;  // private directory for the replayed WAL/checkpoints
};

// Per-layer numbers from replaying the tape through the layers' public
// functions in the order QueryServer calls them. Spans go to `tracer`.
std::map<std::string, double> ReplayLayers(const ReplayInput& input,
                                           Tracer* tracer);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
