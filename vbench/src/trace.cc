#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace vbench {

using veritas::Status;

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Begin(std::string name, const std::string& trace_id,
                       int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = next_id_++;
  std::vector<uint64_t>& stack = stacks_[trace_id];
  span.parent = stack.empty() ? 0 : stack.back();
  span.name = std::move(name);
  span.trace_id = trace_id;
  span.start_ns = start_ns;
  stack.push_back(span.id);
  const uint64_t id = span.id;
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::End(uint64_t id, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span span = std::move(it->second);
  open_.erase(it);
  span.end_ns = end_ns;
  auto stack = stacks_.find(span.trace_id);
  if (stack != stacks_.end()) {
    auto& ids = stack->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) stacks_.erase(stack);
  }
  finished_.push_back(std::move(span));
}

std::vector<Span> Tracer::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write spans to " + path);
  for (const Span& span : Finished()) {
    // Names and trace ids are the benchmark's own ASCII identifiers.
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"trace_id\":\""
        << span.trace_id << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;  // everything before `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& span : spans) {
    auto it = children.find(span.id);
    const int64_t covered =
        it == children.end()
            ? 0
            : CoveredNs(it->second, span.start_ns, span.end_ns);
    self[span.id] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

void CheckpointAttribution::Observe(size_t backend, uint64_t session,
                                    const std::string& trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_[{backend, session}] = trace_id;
}

std::string CheckpointAttribution::TraceOf(size_t backend,
                                           uint64_t session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find({backend, session});
  return it == traces_.end() ? std::string() : it->second;
}

void CheckpointAttribution::Forget(size_t backend, uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.erase({backend, session});
}

}  // namespace vbench
