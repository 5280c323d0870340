#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file trace.h
/// Span collection for the observability layer: every Span (context.h) that
/// runs against a RunContext appends one SpanRecord here, forming the trace
/// tree rendered by scripts/trace_report.py. Spans are coarse (pipeline
/// stage, repair attempt, solver batch/worker) — begin/end take a mutex, so
/// they must not sit on per-node hot paths.
///
/// The store is bounded (TraceOptions): long-lived contexts — a supervised
/// loop running thousands of iterations, a serving deployment streaming
/// deltas — cannot grow it without limit. Closed spans live in a
/// fixed-capacity ring that evicts oldest-first, except that the first
/// `head_samples_per_name` spans of every distinct name are pinned (head
/// sampling): the representative early iterations of each stage survive even
/// when the ring has churned many times over. Open spans are never evicted.
/// Every eviction increments the `obs.spans_dropped` registry counter (when
/// a registry is bound) and costs O(1): the evicted span's children keep
/// its id as their parent, and Snapshot() re-roots every record whose parent
/// is gone (parent 0), so the surviving records still form a valid tree.
///
/// Head sampling alone goes blind exactly where an always-on server needs
/// eyes: the pinned early spans are warm-up, and by the time a tail-latency
/// incident happens the ring has churned the evidence away. Tail sampling
/// (`tail_samples_per_name`) keeps the K *slowest* closed spans of every
/// name in addition: on close, a span slower than its name's current K-th
/// slowest displaces it (the displaced span falls back into the ring and
/// ages out normally — demotion is not a drop). The slowest requests a
/// server ever served survive any amount of ring churn.

namespace dart::obs {

class MetricsRegistry;

/// One (possibly still open) span. Ids are 1-based in Begin() order; parent
/// 0 means "root". A parent is always begun before its children, so
/// `parent < id` for every record.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  int64_t start_ns = 0;      ///< relative to the collector's epoch.
  int64_t duration_ns = -1;  ///< -1 while the span is open.
  int thread = 0;            ///< dense process-wide thread index.
};

/// Capacity policy of one TraceCollector (see the file comment).
struct TraceOptions {
  /// Closed, non-pinned spans retained; the oldest is evicted beyond this.
  size_t capacity = 4096;
  /// First N spans of each distinct name are pinned (exempt from eviction).
  /// 0 disables head sampling entirely.
  int head_samples_per_name = 64;
  /// The K slowest closed spans of each distinct name are retained besides
  /// the head samples (latency-biased tail sampling; see the file comment).
  /// 0 disables tail sampling (the pre-serving default).
  int tail_samples_per_name = 0;
};

/// Thread-safe bounded span store.
class TraceCollector {
 public:
  TraceCollector() : TraceCollector(TraceOptions{}) {}
  explicit TraceCollector(const TraceOptions& options);

  /// Binds the registry that receives the `obs.spans_dropped` counter on
  /// eviction (RunContext wires its own registry in; nullptr unbinds).
  void BindDropCounter(MetricsRegistry* registry);

  /// Opens a span; returns its id (always > 0).
  int64_t Begin(std::string_view name, int64_t parent);

  /// Closes a span (idempotent: a second End on the same id is ignored).
  void End(int64_t id);

  /// Copies the surviving records out, sorted by id. Spans still open keep
  /// `duration_ns == -1` (compute elapsed time as `NowNs() - start_ns`).
  /// A record whose parent was evicted is re-rooted (parent 0), so the
  /// result is always a valid tree.
  std::vector<SpanRecord> Snapshot() const;

  /// Spans evicted from the ring so far (mirrors `obs.spans_dropped`).
  int64_t spans_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the collector's epoch — the clock `start_ns` is
  /// measured on. Public so progress views can compute elapsed time of
  /// still-open spans.
  int64_t NowNs() const;

 private:
  /// Routes a freshly closed non-pinned span into the tail set or the ring
  /// (evicting past capacity); caller holds mu_.
  void AdmitClosedLocked(SpanRecord record);

  /// Evicts the oldest ring entry; caller holds mu_.
  void EvictOldestLocked();

  const TraceOptions options_;
  mutable std::mutex mu_;
  /// Head-sampled spans (first N per name, open or closed); never evicted.
  std::vector<SpanRecord> pinned_;
  /// Non-pinned spans that are still open; never evicted.
  std::vector<SpanRecord> open_;
  /// Closed non-pinned spans, oldest first; bounded by options_.capacity.
  std::deque<SpanRecord> ring_;
  /// Tail samples: per name, a min-heap on duration_ns of the K slowest
  /// closed spans (heap root = fastest retained = next displaced).
  std::unordered_map<std::string, std::vector<SpanRecord>> tails_;
  std::unordered_map<std::string, int64_t> head_counts_;
  int64_t next_id_ = 0;
  std::atomic<int64_t> dropped_{0};
  MetricsRegistry* registry_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
};

/// Dense index of the calling thread (0 for the first thread that asks, 1
/// for the second, ...). Process-wide, stable for the thread's lifetime.
int ThisThreadIndex();

}  // namespace dart::obs
