#include "obs/trace.h"

#include <algorithm>
#include <unordered_set>

#include "obs/registry.h"

namespace dart::obs {

int ThisThreadIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

TraceCollector::TraceCollector(const TraceOptions& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

void TraceCollector::BindDropCounter(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
}

int64_t TraceCollector::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t TraceCollector::Begin(std::string_view name, int64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord record;
  record.id = ++next_id_;
  record.parent = parent;
  record.name = std::string(name);
  record.start_ns = now;
  record.thread = ThisThreadIndex();
  int64_t& head_count = head_counts_[record.name];
  if (head_count < options_.head_samples_per_name) {
    ++head_count;
    pinned_.push_back(std::move(record));
    return pinned_.back().id;
  }
  open_.push_back(std::move(record));
  return open_.back().id;
}

void TraceCollector::End(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (id <= 0 || id > next_id_) return;
  // Non-pinned open spans move into the tail set or the ring on close (the
  // latter may evict).
  for (size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].id != id) continue;
    SpanRecord record = std::move(open_[i]);
    open_.erase(open_.begin() + static_cast<ptrdiff_t>(i));
    record.duration_ns = now - record.start_ns;
    AdmitClosedLocked(std::move(record));
    return;
  }
  // Pinned spans close in place and never move.
  for (SpanRecord& record : pinned_) {
    if (record.id != id) continue;
    if (record.duration_ns < 0) record.duration_ns = now - record.start_ns;
    return;
  }
  // Already closed (ring or evicted): End is idempotent, ignore.
}

void TraceCollector::AdmitClosedLocked(SpanRecord record) {
  // Latency-biased tail sampling: a closed span slower than its name's
  // current K-th slowest joins the tail set; the displaced (now (K+1)-th
  // slowest) span falls through to the ring and ages out normally.
  if (options_.tail_samples_per_name > 0) {
    const auto slower = [](const SpanRecord& a, const SpanRecord& b) {
      return a.duration_ns > b.duration_ns;  // min-heap on duration.
    };
    std::vector<SpanRecord>& tail = tails_[record.name];
    if (tail.size() <
        static_cast<size_t>(options_.tail_samples_per_name)) {
      tail.push_back(std::move(record));
      std::push_heap(tail.begin(), tail.end(), slower);
      return;
    }
    if (record.duration_ns > tail.front().duration_ns) {
      std::pop_heap(tail.begin(), tail.end(), slower);
      std::swap(tail.back(), record);
      std::push_heap(tail.begin(), tail.end(), slower);
    }
  }
  ring_.push_back(std::move(record));
  while (ring_.size() > options_.capacity) EvictOldestLocked();
}

void TraceCollector::EvictOldestLocked() {
  ring_.pop_front();
  dropped_.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) registry_->AddCounter("obs.spans_dropped");
  // O(1): the evicted span's children keep their now-dangling parent id and
  // Snapshot() re-roots them, so eviction never walks the surviving spans.
}

std::vector<SpanRecord> TraceCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(pinned_.size() + open_.size() + ring_.size() + tails_.size());
  out.insert(out.end(), pinned_.begin(), pinned_.end());
  out.insert(out.end(), open_.begin(), open_.end());
  out.insert(out.end(), ring_.begin(), ring_.end());
  for (const auto& [name, tail] : tails_) {
    out.insert(out.end(), tail.begin(), tail.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  // A child whose parent was evicted still references the dropped id;
  // re-root it so the snapshot is a tree.
  std::unordered_set<int64_t> ids;
  ids.reserve(out.size());
  for (const SpanRecord& record : out) ids.insert(record.id);
  for (SpanRecord& record : out) {
    if (record.parent != 0 && ids.count(record.parent) == 0) {
      record.parent = 0;
    }
  }
  return out;
}

}  // namespace dart::obs
