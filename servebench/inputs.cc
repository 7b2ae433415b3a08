// Workload definitions and seeded input generation. Everything the program
// under test receives — the XML text, the query texts and the update ops —
// is made here from the --seed argument.

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "bench.h"
#include "common/random.h"
#include "datagen/nasa_generator.h"
#include "datagen/xmark_generator.h"
#include "query/workload.h"
#include "xml/xml_writer.h"

namespace servebench {
namespace {

// Why each workload is as it is: README.md.
const WorkloadSpec kWorkloads[] = {
    // The result working set fits the cache: the front door works.
    {.name = "read_hot",
     .dataset = "xmark",
     .scale = 8.0,
     .reader_clients = 3,
     .zipf_s = 1.0,
     .read_round = 1 << 16,
     .warmup_rounds = 4,
     .dataset_seed = 42},
    // Twice the cache and costly shapes: planning and evaluation work.
    {.name = "read_cold",
     .dataset = "nasa",
     .scale = 2.0,
     .reader_clients = 3,
     .mixed_pool = 2016,
     .warmup_rounds = 3,
     .dataset_seed = 4242},
    // Index maintenance, publish, WAL and checkpoints beside readers.
    {.name = "write_mix",
     .dataset = "xmark",
     .scale = 8.0,
     .reader_clients = 2,
     .writer_client = true,
     .zipf_s = 1.0,
     .read_round = 1 << 16,
     .warmup_rounds = 4,
     .dataset_seed = 42},
};

// A label path ending at a random node: walk up random parents, stop at
// the root. Returns "" when the walk is shorter than `min_len`.
std::string RandomChain(const dki::DataGraph& g, int len, int min_len,
                        dki::Rng* rng) {
  NodeId cur = static_cast<NodeId>(rng->UniformInt(1, g.NumNodes() - 1));
  std::vector<std::string> names = {g.label_name(cur)};
  for (int i = 1; i < len; ++i) {
    const auto& parents = g.parents(cur);
    if (parents.empty()) break;
    cur = rng->Pick(parents);
    if (g.label(cur) == dki::LabelTable::kRootLabel) break;
    names.push_back(g.label_name(cur));
  }
  if (static_cast<int>(names.size()) < min_len) return "";
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out.push_back('.');
    out.append(*it);
  }
  return out;
}

// One query of `shape`, or "" when the random walk came out too short.
std::string MakeShaped(const dki::DataGraph& g, Shape shape, dki::Rng* rng) {
  auto chain = [&](int len) { return RandomChain(g, len, len, rng); };
  switch (shape) {
    case Shape::kChain:
      return chain(static_cast<int>(rng->UniformInt(2, 5)));
    case Shape::kWildcardStart: {
      std::string c = chain(static_cast<int>(rng->UniformInt(1, 2)));
      if (c.empty()) return "";
      const char* prefixes[] = {"_.", "_._.", "_*."};
      return prefixes[rng->UniformInt(0, 2)] + c;
    }
    case Shape::kAlternationStar: {
      switch (rng->UniformInt(0, 3)) {
        case 0: {
          std::string a = chain(2), b = chain(2);
          if (a.empty() || b.empty()) return "";
          return "(" + a + ")|(" + b + ")";
        }
        case 1: {
          std::string a = chain(1);
          return a.empty() ? "" : a + "?._._";
        }
        case 2: {
          std::string a = chain(1), b = chain(1);
          return "(" + a + "|" + b + ")._";
        }
        default: {
          std::string a = chain(2);
          return a.empty() ? "" : "_*." + a;
        }
      }
    }
    case Shape::kDeadLabel: {
      const std::string absent =
          "absent_label_" + std::to_string(rng->UniformInt(0, 1 << 20));
      switch (rng->UniformInt(0, 3)) {
        case 0:
          return absent;
        case 1:
          return "_." + absent;
        case 2:
          return "_*." + absent + "._";
        default: {
          std::string a = chain(1);
          return a + "." + absent;
        }
      }
    }
    case Shape::kClosure: {
      // a._*.b over the two ends of a real 3..5-label path.
      std::string c = chain(static_cast<int>(rng->UniformInt(3, 5)));
      if (c.empty()) return "";
      return c.substr(0, c.find('.')) + "._*" + c.substr(c.rfind('.'));
    }
  }
  return "";
}

// Weight of each shape in the mixed pool (kChain, kWildcardStart,
// kAlternationStar, kDeadLabel, kClosure). The first four are bench/backends'
// class sizes (8 literal chains, 6 wildcard starts, 6 alternations, 4 dead
// labels). No source gives a share for mid-path closures; they get the
// weight of the smallest of those classes, an assumption (README.md).
constexpr int kMixedWeights[kNumShapes] = {8, 6, 6, 4, 4};

}  // namespace

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kChain:
      return "chain";
    case Shape::kWildcardStart:
      return "wildcard_start";
    case Shape::kAlternationStar:
      return "alternation_star";
    case Shape::kDeadLabel:
      return "dead_label";
    case Shape::kClosure:
      return "closure";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec) {
  Inputs in;
  dki::XmlDocument doc;
  if (spec.dataset == "xmark") {
    doc = dki::GenerateXmarkDocument({spec.scale, spec.dataset_seed});
    in.graph_options = dki::XmarkGraphOptions();
  } else {
    doc = dki::GenerateNasaDocument({spec.scale, spec.dataset_seed});
    in.graph_options = dki::NasaGraphOptions();
  }
  in.xml = dki::WriteXml(doc);
  // The generator's own graph, used only to draw query paths that exist.
  const dki::DataGraph g = dki::XmlToGraph(doc, in.graph_options).graph;

  dki::Rng rng(spec.dataset_seed * 0x9e3779b97f4a7c15ull + 1);
  dki::WorkloadOptions tuning;
  tuning.num_queries = 64;
  in.tuning_queries = dki::GenerateWorkload(g, tuning, &rng).queries;

  if (spec.mixed_pool == 0) {
    for (const std::string& text : in.tuning_queries) {
      in.pool.push_back({text, Shape::kChain});
    }
  } else {
    std::set<std::string> seen;
    int total_weight = 0;
    for (int w : kMixedWeights) total_weight += w;
    for (int s = 0; s < kNumShapes; ++s) {
      const Shape shape = static_cast<Shape>(s);
      const int want = static_cast<int>(std::lround(
          static_cast<double>(kMixedWeights[s] * spec.mixed_pool) /
          total_weight));
      int have = 0;
      for (int attempt = 0; have < want && attempt < want * 50; ++attempt) {
        std::string text = MakeShaped(g, shape, &rng);
        if (text.empty() || !seen.insert(text).second) continue;
        in.pool.push_back({std::move(text), shape});
        ++have;
      }
    }
  }

  return in;
}

ReadTape::ReadTape(size_t pool_size, double zipf_s, int64_t round,
                   uint64_t seed)
    : perms_(kPermutations),
      zipf_(pool_size, zipf_s),
      uniform_(zipf_s == 0.0),
      round_(uniform_ ? static_cast<int64_t>(pool_size) : round),
      seed_(seed) {
  dki::Rng rng(seed ^ 0x7a9e5eedull);
  for (std::vector<uint32_t>& perm : perms_) {
    perm.resize(pool_size);
    for (size_t i = 0; i < pool_size; ++i) perm[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&perm);
  }
}

uint32_t ReadTape::At(int64_t i) const {
  const std::vector<uint32_t>& perm =
      perms_[static_cast<size_t>((i / round_) % kPermutations)];
  if (uniform_) return perm[static_cast<size_t>(i % round_)];
  dki::Rng rng(seed_ * 0xbf58476d1ce4e5b9ull + static_cast<uint64_t>(i));
  return perm[zipf_.Sample(&rng)];
}

WriteTape::WriteTape(const WorkloadSpec& spec, const dki::DataGraph& g,
                     uint64_t seed)
    : seed_(seed) {
  const auto pairs = spec.dataset == "xmark" ? dki::XmarkRefLabelPairs()
                                             : dki::NasaRefLabelPairs();
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> groups;
  for (const auto& [from, to] : pairs) {
    const dki::LabelId lf = g.labels().Find(from);
    const dki::LabelId lt = g.labels().Find(to);
    if (lf == dki::kInvalidLabel || lt == dki::kInvalidLabel) continue;
    auto froms = g.NodesWithLabel(lf);
    auto tos = g.NodesWithLabel(lt);
    if (froms.empty() || tos.empty()) continue;
    groups.emplace_back(std::move(froms), std::move(tos));
  }
  dki::Rng rng(seed ^ 0x5eed0f0e1234ull);
  std::set<std::pair<NodeId, NodeId>> seen;
  constexpr int kCandidates = 256;
  for (int attempt = 0;
       !groups.empty() && static_cast<int>(candidates_.size()) < kCandidates &&
       attempt < kCandidates * 100;
       ++attempt) {
    const auto& [froms, tos] = rng.Pick(groups);
    const NodeId u = rng.Pick(froms), v = rng.Pick(tos);
    if (u == v || g.HasEdge(u, v) || !seen.insert({u, v}).second) continue;
    candidates_.emplace_back(u, v);
  }
  present_.assign(candidates_.size(), 0);
  nurand_c_ = rng.UniformInt(0, 1023);
}

std::vector<WriteOp> WriteTape::NextRound() {
  dki::Rng rng(seed_ * 1000003ull + static_cast<uint64_t>(next_round_++));
  const int64_t n = static_cast<int64_t>(candidates_.size());
  std::vector<WriteOp> ops;
  for (int i = 0; i < kWriteRound; ++i) {
    WriteOp op;
    if ((i + 1) % kRetuneEvery == 0) {
      op.kind = (i + 1) % (2 * kRetuneEvery) == 0 ? WriteOp::kRetuneGrow
                                                  : WriteOp::kRetuneShrink;
    } else if (n > 0) {
      const size_t c = static_cast<size_t>(
          rng.NURand(dki::Rng::DefaultNURandA(n), 0, n - 1, nurand_c_));
      op.kind = present_[c] ? WriteOp::kRemoveEdge : WriteOp::kAddEdge;
      present_[c] ^= 1;
      op.u = candidates_[c].first;
      op.v = candidates_[c].second;
    } else {
      continue;
    }
    ops.push_back(op);
  }
  return ops;
}

dki::LabelRequirements ShrinkTargets(const dki::LabelRequirements& reqs) {
  dki::LabelRequirements out;
  for (const auto& [label, k] : reqs) out[label] = std::max(0, k - 1);
  return out;
}

dki::UpdateOp ToUpdateOp(const WriteOp& op, const dki::LabelRequirements& grow,
                         const dki::LabelRequirements& shrink) {
  switch (op.kind) {
    case WriteOp::kAddEdge:
      return dki::UpdateOp::AddEdge(op.u, op.v);
    case WriteOp::kRemoveEdge:
      return dki::UpdateOp::RemoveEdge(op.u, op.v);
    case WriteOp::kRetuneShrink:
      return dki::UpdateOp::Retune(shrink, /*shrink=*/true);
    case WriteOp::kRetuneGrow:
      return dki::UpdateOp::Retune(grow, /*shrink=*/false);
  }
  return dki::UpdateOp::Retune(grow, false);
}

// ---------------------------------------------------------------- latency

size_t LatencyHistogram::Index(uint64_t v) {
  if (v < 64) return static_cast<size_t>(v);
  const int exp = 63 - std::countl_zero(v);
  const uint64_t sub = (v >> (exp - 6)) - 64;
  return static_cast<size_t>(64 + (exp - 6) * 64 + sub);
}

double LatencyHistogram::Mid(size_t index) {
  if (index < 64) return static_cast<double>(index);
  const int exp = static_cast<int>((index - 64) / 64) + 6;
  const double sub = static_cast<double>((index - 64) % 64);
  const double width = std::ldexp(1.0, exp - 6);
  return (64.0 + sub) * width + width / 2;
}

void LatencyHistogram::Record(int64_t ns) {
  const uint64_t v = ns <= 0 ? 0 : static_cast<uint64_t>(ns);
  ++buckets_[Index(v)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const int64_t rank = std::min<int64_t>(
      count_ - 1, static_cast<int64_t>(q * static_cast<double>(count_)));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return Mid(i);
  }
  return Mid(buckets_.size() - 1);
}

double TailQuantile(int64_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(samples);
}

}  // namespace servebench
