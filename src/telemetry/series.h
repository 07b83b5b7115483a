// Telemetry time series: the per-interval Sample record, the bounded
// in-memory ring the sampler appends to, and the versioned JSONL artifact
// (`--telemetry <file>`) it flushes to.
//
// JSONL layout (schema kTelemetrySchemaVersion, pinned by
// tools/lint/schema.lock rule R4 and tests/telemetry_test.cc):
//   line 1   {"schema": 1, "kind": "header", "tool": "stmbench7",
//             "backend": ..., "scenario": ..., "scale": ..., "threads": N,
//             "interval_s": ..., "hw_available": bool,
//             "stats_fields": [ ... X-macro counter names ... ]}
//   line 2.. {"kind": "sample", "seq": N, "t_s": ..., "interval_s": ...,
//             "phase_index": N, "phase": ..., "started": N, "completed": N,
//             "failed": N, "ops_per_s": ...,
//             "latency_ms": {"count": N, "p50": ..., "p90": ..., "p99": ...,
//                            "p999": ..., "max": ...},
//             optional "stm": {counter: value, ...}  (cumulative),
//             optional "hw": {"cycles": N, "instructions": N,
//                             "llc_misses": N, "stalled_cycles": N},
//             optional "ebr": {"epoch": N, "pending": N,
//                              "laggard_slot": N}  (point-in-time),
//             "trace_dropped": N}
//   last     {"kind": "footer", "samples": N, "samples_dropped": N}
// Counters are cumulative since run start; ops_per_s and latency_ms are the
// window between this sample and the previous one. t_s is steady-clock
// seconds since sampler start (never wall clock — wall time would make
// intervals skew under NTP slew; consumers needing absolute time stamp the
// file themselves).

#ifndef STMBENCH7_SRC_TELEMETRY_SERIES_H_
#define STMBENCH7_SRC_TELEMETRY_SERIES_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "src/stm/stm.h"

namespace sb7::telemetry {

// The telemetry JSONL schema version this build writes; readers (the
// in-tree validator) accept [1, current]. Bumps are guarded by sb7-lint R4
// against tools/lint/schema.lock.
constexpr int kTelemetrySchemaVersion = 1;

// One hardware-counter reading (cumulative since HwCounters::Start).
// available=false zeroes carry no information — the graceful-degradation
// path when perf_event_open is unavailable or unprivileged.
struct HwSample {
  bool available = false;
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t llc_misses = 0;
  int64_t stalled_cycles = 0;

  // end - begin, field-wise; available only when both ends were.
  static HwSample Delta(const HwSample& end, const HwSample& begin);
};

// One sampler tick. Counter fields are cumulative; ops_per_s / latency are
// the window since the previous tick.
struct Sample {
  int64_t seq = 0;
  double t_s = 0.0;        // steady-clock seconds since sampler start
  double interval_s = 0.0; // actual window length (first window: t_s)

  int phase_index = -1;
  std::string phase;

  int64_t started = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  double ops_per_s = 0.0;

  // Window latency distribution. max_ms is the cumulative max (the true
  // window max is not recoverable from bucket deltas — see
  // TtcHistogram::Delta).
  int64_t lat_count = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;

  bool has_stm = false;
  StmStats::View stm = {};

  int64_t trace_dropped = 0;
  HwSample hw;

  // EBR reclamation health at the tick; pending counts Retire() entries.
  bool has_ebr = false;
  uint64_t ebr_epoch = 0;
  int64_t ebr_pending = 0;
  int ebr_laggard_slot = -1;
};

// Bounded FIFO of samples; Push drops the oldest once full and counts the
// drops (surfaced in the JSONL footer — silent truncation would read as
// "the run was shorter than it was"). Internally mutex-guarded: the sampler
// thread pushes ~1/s, the HTTP thread snapshots rarely.
class SeriesRing {
 public:
  explicit SeriesRing(size_t capacity);

  void Push(Sample sample);
  std::vector<Sample> Snapshot() const;  // oldest first
  size_t size() const;
  int64_t dropped() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;  // circular, valid range [start_, start_+size_)
  size_t start_ = 0;
  size_t size_ = 0;
  int64_t dropped_ = 0;
};

// Run identity echoed into the JSONL header and the /series dump.
struct RunInfo {
  std::string backend;
  std::string scenario;  // "-" for plain runs
  std::string scale;
  int threads = 0;
  double interval_s = 0.0;
  bool hw_available = false;
};

// One sample as a single-line JSON object (shared by the JSONL writer and
// the /series endpoint).
std::string SampleToJson(const Sample& sample);

void WriteTelemetryJsonl(std::ostream& out, const RunInfo& info,
                         const std::vector<Sample>& samples, int64_t samples_dropped);

// Validates a telemetry JSONL stream against the schema above: header
// first, schema version in [1, current], per-line JSON well-formedness,
// required sample fields, seq/t_s monotonicity, footer sample count.
// Returns the empty string when valid, else a line-tagged description of
// the first problem.
std::string ValidateTelemetryJsonl(std::istream& in);

}  // namespace sb7::telemetry

#endif  // STMBENCH7_SRC_TELEMETRY_SERIES_H_
