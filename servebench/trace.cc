// In-memory spans, their self times and Chrome trace-event output.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "bench.h"

namespace servebench {
namespace {

constexpr size_t kDropped = std::numeric_limits<size_t>::max();

}  // namespace

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->thread = static_cast<int32_t>(buffers_.size());
  return buffers_.back().get();
}

void Tracer::Begin(Buffer* buf, const char* name, int64_t request) {
  if (buf->spans.size() >= max_spans_) {
    buf->open.push_back(kDropped);
    return;
  }
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.request = request;
  span.thread = buf->thread;
  for (auto it = buf->open.rbegin(); it != buf->open.rend(); ++it) {
    if (*it != kDropped) {
      span.parent = buf->spans[*it].id;
      break;
    }
  }
  buf->open.push_back(buf->spans.size());
  span.start_ns = NowNs();
  buf->spans.push_back(span);
}

void Tracer::End(Buffer* buf) {
  const int64_t now = NowNs();
  const size_t index = buf->open.back();
  buf->open.pop_back();
  if (index != kDropped) buf->spans[index].end_ns = now;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  return all;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  // Child coverage: children of one span run on the span's own thread and
  // nest inside it without overlapping, so their durations add up.
  std::unordered_map<int64_t, int64_t> covered;
  for (const Span& s : spans) {
    if (s.parent != 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, SpanSummary> out;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto it = covered.find(s.id);
    const double self_ns =
        dur - (it == covered.end() ? 0.0 : static_cast<double>(it->second));
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.mean_ns += dur;
    self[s.name].push_back(self_ns);
  }
  for (auto& [name, sum] : out) {
    sum.mean_ns /= static_cast<double>(sum.count);
    std::vector<double>& v = self[name];
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    sum.median_self_ns = v[v.size() / 2];
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace servebench
