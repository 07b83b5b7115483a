// Latency (time-to-completion, "TTC") histogram.
//
// The paper's Appendix A specifies per-operation TTC histograms printed as
// "ttc, count" pairs with 1-millisecond buckets. Latencies beyond the linear
// range fall into geometrically growing overflow buckets so that long
// traversals (seconds to minutes under the ASTM port) are still recorded
// without unbounded memory.
//
// Two flavours share the bucket geometry:
//   TtcHistogram            — single-writer, merged after the run.
//   ConcurrentTtcHistogram  — lock-free multi-producer companion for the
//                             live telemetry sampler (src/telemetry/):
//                             worker threads Record() concurrently, the
//                             sampler thread takes Snapshot() merges.

#ifndef STMBENCH7_SRC_COMMON_HISTOGRAM_H_
#define STMBENCH7_SRC_COMMON_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sb7 {

class TtcHistogram {
 public:
  // Linear 1 ms buckets in [0, linear_buckets); geometric buckets after that.
  explicit TtcHistogram(int linear_buckets = 1000);

  void Record(int64_t nanos);

  // Merges `other` into this histogram (used to combine per-thread data).
  void Merge(const TtcHistogram& other);

  // Bucket-wise `end - begin` for two snapshots of the same growing
  // histogram (the telemetry sampler's per-interval window). total/sum are
  // recomputed from the delta buckets; max carries over from `end` — a
  // cumulative upper bound, since the true window max is not recoverable
  // from bucket counts.
  static TtcHistogram Delta(const TtcHistogram& end, const TtcHistogram& begin);

  int64_t total_count() const { return total_count_; }
  int64_t max_nanos() const { return max_nanos_; }
  int64_t sum_nanos() const { return sum_nanos_; }
  double MeanMillis() const;

  // Quantile (q in [0,1]) in milliseconds, linearly interpolated within the
  // bucket where the cumulative count crosses q * total. This is the same
  // linear-interpolation convention as perf::QuantileOf / perf::Median, so
  // harness JSON report percentiles and sb7-bench aggregates agree on what a
  // "p50" means. The result is clamped to the recorded max.
  double QuantileMillis(double q) const;

  // Appendix-A format: space-delimited "ttc, count" pairs for all non-empty
  // buckets, where ttc is the bucket's lower bound in milliseconds.
  std::string Format() const;

  // Bucket geometry, shared with ConcurrentTtcHistogram: [0..linear) are
  // 1 ms wide; bucket linear+k covers [linear * 2^k, linear * 2^(k+1)) ms,
  // for k in [0, kOverflowBuckets).
  static constexpr int kOverflowBuckets = 24;
  static int BucketCount(int linear_buckets) { return linear_buckets + kOverflowBuckets; }
  static int BucketIndex(int64_t nanos, int linear_buckets);

 private:
  friend class ConcurrentTtcHistogram;

  // The bucket array is allocated on first Record/Merge; the harness keeps a
  // histogram per (thread, phase, operation) and most stay empty.
  void EnsureBuckets();
  int BucketFor(int64_t nanos) const { return BucketIndex(nanos, linear_buckets_); }
  // Lower bound of bucket `i`, in milliseconds.
  int64_t BucketLowerMillis(int i) const;
  // Upper bound of bucket `i`, in milliseconds (the last geometric bucket is
  // open-ended; its nominal upper bound is twice the lower bound).
  int64_t BucketUpperMillis(int i) const;

  int linear_buckets_;
  std::vector<int64_t> counts_;
  int64_t total_count_ = 0;
  int64_t max_nanos_ = 0;
  int64_t sum_nanos_ = 0;
};

// Lock-free multi-producer histogram with TtcHistogram's bucket geometry.
// Record() is wait-free apart from a bounded CAS loop on the stripe max;
// threads hash onto cache-line-aligned stripes so concurrent recorders do
// not contend on the same counters. Snapshot() merges the stripes into a
// plain TtcHistogram; it is safe to call concurrently with recorders and
// yields a monotone, per-bucket-consistent view (total is derived from the
// bucket counts, so quantiles are always internally consistent even if a
// record lands mid-snapshot).
class ConcurrentTtcHistogram {
 public:
  explicit ConcurrentTtcHistogram(int linear_buckets = 1000);

  // Any thread, any time; never blocks a recorder on another thread.
  void Record(int64_t nanos);

  TtcHistogram Snapshot() const;

 private:
  static constexpr int kStripes = 8;

  struct alignas(64) Stripe {
    explicit Stripe(int buckets) : counts(static_cast<size_t>(buckets)) {}
    // Value-initialized atomics start at zero; the vector is never resized.
    std::vector<std::atomic<int64_t>> counts;
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
  };

  int linear_buckets_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_COMMON_HISTOGRAM_H_
