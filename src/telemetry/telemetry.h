// Telemetry facade: owns the metrics registry, the lock-free latency
// histogram the workers record into, the background sampler thread, the
// hardware counters and the optional HTTP exposition endpoint.
//
// Cost discipline: when the driver runs without telemetry the only residue
// in the hot path is one null pointer check (verified by the CI sampler-off
// overhead gate). With telemetry on, a worker pays two relaxed fetch_adds
// and one striped histogram record per operation; everything else happens
// on the sampler/HTTP threads.

#ifndef STMBENCH7_SRC_TELEMETRY_TELEMETRY_H_
#define STMBENCH7_SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/telemetry/http.h"
#include "src/telemetry/hwcounters.h"
#include "src/telemetry/registry.h"
#include "src/telemetry/series.h"

namespace sb7 {
class EbrDomain;
}  // namespace sb7

namespace sb7::telemetry {

// Time source seam. The default reads the process steady clock; tests
// substitute ManualClock (with background=false) to make sampler output
// fully deterministic — the "paused clock" requirement.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNanos() = 0;
};

class ManualClock : public Clock {
 public:
  // mo: relaxed — test-only seam; no ordering with other state.
  int64_t NowNanos() override { return now_nanos_.load(std::memory_order_relaxed); }
  void AdvanceNanos(int64_t nanos) {
    // mo: relaxed — test-only seam; the sampler reads on the same thread or
    // under the facade's sample mutex.
    now_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void AdvanceSeconds(double seconds) {
    AdvanceNanos(static_cast<int64_t>(seconds * 1e9));
  }

 private:
  std::atomic<int64_t> now_nanos_{0};
};

struct TelemetryOptions {
  double interval_seconds = 1.0;
  size_t series_capacity = 4096;
  bool hw_counters = true;
  int metrics_port = -1;  // -1 = no endpoint; 0 = ephemeral (see server_port)
  // false: no sampler thread; the owner drives SampleNow() — used by tests
  // (with a ManualClock) and anywhere wall-clock pacing is unwanted.
  bool background = true;
  Clock* clock = nullptr;  // borrowed; null = steady clock
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // --- hot path (worker threads, only when telemetry is enabled) ---
  void RecordOp(bool success, int64_t latency_nanos) {
    // mo: relaxed — monotonic tallies; the sampler snapshots them with no
    // cross-counter consistency requirement.
    if (success) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      latency_.Record(latency_nanos);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- run setup (driver construction; single-threaded) ---
  void SetRunInfo(RunInfo info);
  void SetPhase(int index, const std::string& name);
  void SetStmSource(std::function<StmStats::View()> source);
  void SetTraceDroppedSource(std::function<int64_t()> source);
  // Reports `domain`'s reclamation health: the sb7_ebr_* gauges and an
  // "ebr" block in every sample.
  void SetEbrDomain(const EbrDomain* domain);
  // Opens the hardware counters; call before the worker threads are spawned
  // (perf_event inherit semantics). No-op when options.hw_counters is off.
  void StartHw();
  // Binds and serves /metrics + /series; no-op unless options.metrics_port
  // was >= 0. Returns false with `error` set on bind failure.
  bool StartServer(std::string* error);

  // --- sampler lifecycle (driver Run) ---
  void Start();  // records t0; spawns the sampler thread when background
  void Stop();   // takes a final sample, joins the sampler, stops the server

  // One sampler tick; also the manual-mode entry point. Thread-safe.
  void SampleNow();

  // --- consumers ---
  MetricsRegistry& registry() { return registry_; }
  const RunInfo& run_info() const { return run_info_; }
  int server_port() const { return server_.port(); }
  bool server_running() const { return server_.running(); }
  bool hw_available() const { return hw_.available(); }
  const std::string& hw_detail() const { return hw_detail_; }
  HwSample HwNow() const { return hw_.Read(); }
  std::vector<Sample> SeriesSnapshot() const { return ring_.Snapshot(); }
  int64_t SamplesDropped() const { return ring_.dropped(); }
  // mo: relaxed — monotonic tally; used by tests and the JSONL writer.
  int64_t CompletedOps() const { return completed_.load(std::memory_order_relaxed); }
  void WriteJsonl(std::ostream& out) const;
  std::string RenderPrometheus() const { return registry_.RenderPrometheus(); }
  std::string RenderSeriesJson() const;

 private:
  int64_t Now();
  void SamplerLoop();
  void RegisterBuiltinMetrics();

  TelemetryOptions options_;
  MetricsRegistry registry_;
  ConcurrentTtcHistogram latency_;
  SeriesRing ring_;
  HwCounters hw_;
  std::string hw_detail_;
  MetricsHttpServer server_;
  RunInfo run_info_;

  std::function<StmStats::View()> stm_source_;
  std::function<int64_t()> trace_dropped_source_;
  const EbrDomain* ebr_ = nullptr;

  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};
  // mo: phase index/name pair — the index is the atomic fast read; the name
  // string is guarded by phase_mutex_ (sampler + boundary thread only).
  std::atomic<int> phase_index_{-1};
  std::mutex phase_mutex_;
  std::string phase_name_;

  // Sampler state, guarded by sample_mutex_ (one tick at a time).
  std::mutex sample_mutex_;
  int64_t t0_nanos_ = 0;
  bool started_ = false;
  int64_t next_seq_ = 0;
  double prev_t_s_ = 0.0;
  int64_t prev_completed_ = 0;
  TtcHistogram prev_latency_;

  std::thread sampler_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

}  // namespace sb7::telemetry

#endif  // STMBENCH7_SRC_TELEMETRY_TELEMETRY_H_
