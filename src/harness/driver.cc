#include "src/harness/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/common/timing.h"
#include "src/ebr/ebr.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/redo_log.h"

namespace sb7 {
namespace {

// Sleep granularity of the phase controller paths: short enough that phase
// boundaries and open-loop arrivals land within ~a millisecond.
constexpr int64_t kPollNanos = 1'000'000;

// An open-loop operation counts as "delayed" only when it started more than
// one histogram bucket (1 ms) after its scheduled arrival; sub-millisecond
// lateness is scheduling noise, not queueing.
constexpr int64_t kDelayedThresholdNanos = 1'000'000;

void SleepNanos(int64_t nanos) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

// How many hottest locations / deadliest op pairs phase and run reports
// keep from the conflict table.
constexpr size_t kConflictTopK = 8;

}  // namespace

BenchmarkRunner::BenchmarkRunner(const BenchConfig& config) : config_(config) {
  SB7_CHECK(config_.threads >= 1);
  SB7_CHECK(config_.length_seconds > 0);
  strategy_ = MakeStrategy(config_.strategy, config_.contention_manager);
  SB7_CHECK(strategy_ != nullptr);

  if (!config_.redo_log_path.empty()) {
    // Group commit + redo logging is an mvstm capability (the CLI validates
    // this; programmatic callers get the check below).
    auto* mvstm = dynamic_cast<MvStm*>(strategy_->stm());
    SB7_CHECK(mvstm != nullptr);
    redo::Durability durability = redo::Durability::kOff;
    SB7_CHECK(redo::ParseDurability(config_.durability, &durability));
    redo_writer_ =
        std::make_unique<redo::RedoLogWriter>(config_.redo_log_path, durability);
    SB7_CHECK(redo_writer_->ok());
    if (config_.crash_point != redo::CrashPoint::kNone) {
      redo::CrashConfig crash;
      crash.point = config_.crash_point;
      crash.at_group = config_.crash_at_group;
      redo_writer_->SetCrashConfig(std::move(crash));
    }
    // The header precedes the workers; every later append comes from the
    // group-commit leader, so the writer never needs internal locking.
    redo_writer_->WriteFileHeader(config_.seed, config_.scale, config_.strategy);
    if (durability == redo::Durability::kGroup && config_.ingress != nullptr &&
        config_.crash_point == redo::CrashPoint::kNone) {
      // Serving: each worker fsyncs once per ingress batch, before the
      // batch's responses, instead of once per commit group.
      redo_writer_->SetDeferredSync(true);
    }
    sequencer_ = std::make_unique<GroupCommitSequencer>(redo_writer_.get());
    mvstm->AttachSequencer(sequencer_.get());
  }

  if (config_.trace || !config_.trace_path.empty()) {
    config_.trace = true;
    trace::TraceOptions options;
    options.ring_capacity = config_.trace_buffer;
    options.sample_period = config_.trace_sample > 0 ? config_.trace_sample : 1;
    tracer_ = std::make_unique<trace::Tracer>(options);
  }

  if (config_.telemetry || !config_.telemetry_path.empty() || config_.metrics_port >= 0) {
    config_.telemetry = true;
    telemetry::TelemetryOptions options;
    options.interval_seconds = config_.telemetry_interval;
    options.hw_counters = config_.telemetry_hw;
    options.metrics_port = config_.metrics_port;
    telemetry_ = std::make_unique<telemetry::Telemetry>(options);
    // Hardware counters must open before the worker threads exist —
    // perf_event inherit only covers threads spawned afterwards.
    telemetry_->StartHw();
    telemetry_->SetStmSource([this]() { return StmSnapshot(); });
    telemetry_->SetEbrDomain(&EbrDomain::Global());
    if (tracer_ != nullptr) {
      telemetry_->SetTraceDroppedSource([this]() { return tracer_->TotalDropped(); });
    }
  }

  DataHolder::Setup setup;
  setup.params = Parameters::ForName(config_.scale);
  setup.index_kind = config_.index_kind.value_or(DefaultIndexKindFor(config_.strategy));
  setup.seed = config_.seed;
  data_ = std::make_unique<DataHolder>(setup);

  // Resolve the phase list: the configured scenario, or one implicit
  // closed-loop phase mirroring the plain CLI settings.
  Scenario scenario;
  if (config_.scenario.has_value()) {
    scenario = *config_.scenario;
  } else {
    PhaseSpec main_phase;
    main_phase.name = "main";
    scenario.phases.push_back(main_phase);
  }
  const double total_weight = scenario.TotalWeight();
  SB7_CHECK(total_weight > 0);

  const double base_read_fraction =
      config_.read_fraction.value_or(ReadOnlyFraction(config_.workload));
  spawn_threads_ = config_.scenario.has_value() ? 1 : config_.threads;
  for (const PhaseSpec& spec : scenario.phases) {
    auto phase = std::make_unique<PhaseRuntime>();
    phase->spec = spec;
    phase->active_threads = spec.threads.value_or(config_.threads);
    SB7_CHECK(phase->active_threads >= 1);
    spawn_threads_ = std::max(spawn_threads_, phase->active_threads);
    phase->read_fraction = spec.read_fraction.value_or(base_read_fraction);

    std::set<std::string> disabled = config_.disabled_ops;
    disabled.insert(spec.disabled_ops.begin(), spec.disabled_ops.end());
    phase->ratios = ComputeOperationRatios(
        registry_, phase->read_fraction,
        spec.long_traversals.value_or(config_.long_traversals),
        spec.structure_mods.value_or(config_.structure_mods), disabled);

    phase->duration_nanos = static_cast<int64_t>(config_.length_seconds * 1e9 *
                                                 spec.duration_weight / total_weight);
    phases_.push_back(std::move(phase));
  }
  accounting_.resize(phases_.size());

  // Run-level mix: phase ratios weighted by phase duration.
  ratios_.assign(registry_.all().size(), 0.0);
  for (const auto& phase : phases_) {
    const double weight = phase->spec.duration_weight / total_weight;
    for (size_t i = 0; i < ratios_.size(); ++i) {
      ratios_[i] += weight * phase->ratios[i];
    }
  }

  if (telemetry_ != nullptr) {
    telemetry::RunInfo info;
    info.backend = config_.strategy;
    info.scenario = config_.scenario.has_value() ? config_.scenario->name : "-";
    info.scale = config_.scale;
    info.threads = spawn_threads_;
    telemetry_->SetRunInfo(std::move(info));
    // Live phase/arrival-queue state: gauges read the current phase's
    // runtime through the same acquire index the workers use, so a scrape
    // mid-run sees the phase that is actually executing.
    auto current = [this]() -> const PhaseRuntime* {
      const int p = current_phase_.load(std::memory_order_acquire);
      if (p < 0 || p >= static_cast<int>(phases_.size())) {
        return nullptr;
      }
      return phases_[p].get();
    };
    telemetry_->registry().AddGauge(
        "sb7_phase_active_threads", "Worker threads active in the current phase",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr ? static_cast<double>(phase->active_threads) : 0.0;
        });
    telemetry_->registry().AddGauge(
        "sb7_phase_target_rate", "Open-loop arrival rate of the current phase (op/s; 0 = closed loop)",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr && phase->spec.arrival != ArrivalModel::kClosed
                     ? phase->spec.rate_ops_per_sec
                     : 0.0;
        });
    telemetry_->registry().AddGauge(
        "sb7_phase_executed_total", "Operations executed in the current phase",
        [current]() {
          const PhaseRuntime* phase = current();
          return phase != nullptr ? static_cast<double>(
                                        phase->executed.load(std::memory_order_relaxed))
                                  : 0.0;
        });
  }
}

StmStats::View BenchmarkRunner::StmSnapshot() const {
  Stm* stm = strategy_->stm();
  return stm != nullptr ? stm->stats().Snapshot() : StmStats::View{};
}

void BenchmarkRunner::BeginPhaseLocked(int phase_index) {
  PhaseRuntime& phase = *phases_[phase_index];
  HotspotPolicy policy;
  policy.theta = phase.spec.zipf_theta;
  policy.hot_fraction = phase.spec.hot_fraction;
  SetHotspotPolicy(policy);
  // Pay the O(capacity) sampler construction here, at the phase boundary,
  // not inside the first measured operations of the phase.
  PrewarmHotspotSamplers({data_->atomic_part_ids().capacity(),
                          data_->composite_part_ids().capacity(),
                          data_->base_assembly_ids().capacity(),
                          data_->complex_assembly_ids().capacity()});

  const int64_t now = NowNanos();
  phase.start_nanos.store(now, std::memory_order_relaxed);
  PhaseAccounting& acc = accounting_[phase_index];
  acc.start_nanos = now;
  acc.stm_begin = StmSnapshot();
  acc.hot_begin = ReadHotspotCounters();
  if (tracer_ != nullptr) {
    acc.conflict_begin = tracer_->ConflictSnapshot();
  }
  if (telemetry_ != nullptr) {
    acc.hw_begin = telemetry_->HwNow();
    telemetry_->SetPhase(phase_index, phase.spec.name);
  }
}

void BenchmarkRunner::FinishPhaseLocked(int phase_index) {
  PhaseAccounting& acc = accounting_[phase_index];
  acc.end_nanos = NowNanos();
  acc.stm_end = StmSnapshot();
  acc.hot_end = ReadHotspotCounters();
  if (tracer_ != nullptr) {
    acc.conflict_end = tracer_->ConflictSnapshot();
  }
  if (telemetry_ != nullptr) {
    acc.hw_end = telemetry_->HwNow();
  }
}

void BenchmarkRunner::TryAdvancePhase(int phase_index) {
  std::lock_guard<std::mutex> lock(phase_mutex_);
  if (current_phase_.load(std::memory_order_relaxed) != phase_index) {
    return;  // someone else advanced it first
  }
  FinishPhaseLocked(phase_index);
  const int next = phase_index + 1;
  if (next < static_cast<int>(phases_.size())) {
    BeginPhaseLocked(next);
  } else {
    ResetHotspotPolicy();
  }
  current_phase_.store(next, std::memory_order_release);
}

void BenchmarkRunner::WorkerLoop(int worker_index, Rng rng,
                                 std::vector<std::vector<OpMetrics>>& metrics,
                                 std::vector<PaceMetrics>& pace) {
  const auto& ops = registry_.all();
  const int64_t budget = config_.max_operations;
  const int phase_count = static_cast<int>(phases_.size());
  std::vector<PaceState> pace_state(phases_.size());

  // Register with the EBR domain before the first operation: a worker must
  // be visible to reclamation before it can chase optimistic pointers.
  EbrDomain::Global().Quiesce();

  while (!stop_.load(std::memory_order_relaxed)) {
    const int p = current_phase_.load(std::memory_order_acquire);
    if (p >= phase_count) {
      break;
    }
    PhaseRuntime& phase = *phases_[p];

    // Phase end conditions: wall-clock deadline or started-op cap. Every
    // worker — active or idle — may flip the phase, so a boundary is
    // observed as soon as any worker is between operations.
    const int64_t phase_start = phase.start_nanos.load(std::memory_order_relaxed);
    const bool over_time = NowNanos() >= phase_start + phase.duration_nanos;
    const bool over_cap =
        phase.spec.max_ops >= 0 &&
        phase.executed.load(std::memory_order_relaxed) >= phase.spec.max_ops;
    if (over_time || over_cap) {
      TryAdvancePhase(p);
      continue;
    }

    if (worker_index >= phase.active_threads) {
      // Parked for this phase (thread ramp). Stay quiescent so EBR
      // reclamation keeps making progress.
      EbrDomain::Global().Quiesce();
      SleepNanos(kPollNanos / 4);
      continue;
    }

    if (config_.ingress != nullptr) {
      // Serve mode: drain admitted client requests in batches instead of
      // sampling operations locally. The phase checks above still apply, so
      // a scenario can reshape thread count / hotspot skew mid-serve; the
      // arrival process itself lives on the clients, so the open-loop
      // pacing below is skipped entirely.
      std::vector<net::IngressRequest> batch;
      batch.reserve(config_.ingress_batch);
      const size_t got =
          config_.ingress->PopBatch(&batch, config_.ingress_batch, /*timeout_ms=*/5);
      if (got == 0) {
        if (config_.ingress->closed()) {
          break;  // drained and no more producers: run is over
        }
        continue;  // idle tick; re-check phase deadline at the loop top
      }
      PaceMetrics& pm = pace[p];
      pm.backlog_peak = std::max(
          pm.backlog_peak, static_cast<int64_t>(config_.ingress->size()));
      bool budget_hit = false;
      // Under deferred sync, responses wait until the batch is durable.
      const bool sync_batch = redo_writer_ != nullptr && redo_writer_->deferred_sync();
      std::vector<ExecutedRequest> executed;
      for (const net::IngressRequest& request : batch) {
        if (budget_hit ||
            (budget >= 0 &&
             started_budget_.fetch_add(1, std::memory_order_relaxed) >= budget)) {
          // Out of budget: the popped request must still be answered, and
          // kRejected is the honest outcome — it was never executed.
          budget_hit = true;
          if (config_.on_ingress_complete) {
            config_.on_ingress_complete(request, net::Status::kRejected, 0);
          }
          continue;
        }
        const int64_t begin = NowNanos();
        pm.arrivals += 1;
        const int64_t delay = begin - request.accepted_nanos;
        pm.queue_delay.Record(delay > 0 ? delay : 0);
        if (delay > kDelayedThresholdNanos) {
          pm.delayed += 1;
        }
        if (request.op_index >= ops.size()) {
          if (config_.on_ingress_complete) {
            config_.on_ingress_complete(request, net::Status::kBadRequest, 0);
          }
          continue;
        }
        const int index = request.op_index;
        SetTxOpContext(index);
        // Tag the attempt context so the redo log's member records carry the
        // client's request id — what makes `acked ⊆ durable` checkable
        // against a recovered log (tests/recovery_test.cc).
        redo::SetCaptureClientTag(request.request_id);
        net::Status status = net::Status::kOk;
        try {
          strategy_->Execute(*ops[index], *data_, rng);
          const int64_t latency = NowNanos() - begin;
          metrics[p][index].RecordSuccess(latency);
          if (telemetry_ != nullptr) {
            telemetry_->RecordOp(true, latency);
          }
        } catch (const OperationFailed&) {
          status = net::Status::kOpFailed;
          metrics[p][index].RecordFailure();
          if (telemetry_ != nullptr) {
            telemetry_->RecordOp(false, 0);
          }
        }
        if (sync_batch) {
          executed.push_back(ExecutedRequest{request, status, begin});
        } else if (config_.on_ingress_complete) {
          config_.on_ingress_complete(request, status, NowNanos() - begin);
        }
        SetTxOpContext(-1);
        redo::SetCaptureClientTag(0);
        phase.executed.fetch_add(1, std::memory_order_relaxed);
      }
      EbrDomain::Global().Quiesce();
      if (!executed.empty()) {
        // Group commit per batch: one fsync covers every group this batch
        // appended or read from (log order is commit order, and a version
        // is published only after its group is appended), so no response
        // reports a state a crash could lose.
        redo_writer_->SyncTo(redo_writer_->appended_groups());
        if (config_.on_ingress_complete) {
          for (const ExecutedRequest& done : executed) {
            config_.on_ingress_complete(done.request, done.status, NowNanos() - done.begin);
          }
        }
      }
      if (budget_hit) {
        stop_.store(true, std::memory_order_relaxed);
      }
      continue;
    }

    // Claim a phase slot before touching the global budget: workers waiting
    // out a capped phase must not burn budget that later phases still need.
    if (phase.spec.max_ops >= 0 &&
        phase.claimed.fetch_add(1, std::memory_order_relaxed) >= phase.spec.max_ops) {
      SleepNanos(kPollNanos / 4);  // cap reached; wait for the phase to flip
      continue;
    }
    if (budget >= 0 && started_budget_.fetch_add(1, std::memory_order_relaxed) >= budget) {
      stop_.store(true, std::memory_order_relaxed);
      break;
    }

    // Open-loop pacing: wait for this worker's next scheduled arrival.
    const bool open_loop = phase.spec.arrival != ArrivalModel::kClosed;
    int64_t arrival = 0;
    if (open_loop) {
      PaceState& state = pace_state[p];
      const double worker_rate =
          phase.spec.rate_ops_per_sec / static_cast<double>(phase.active_threads);
      if (state.next_arrival_nanos < 0) {
        // First arrival of this phase for this worker: start the process at
        // the later of phase start and now — a worker entering late (still
        // finishing the previous phase's operation) must not count its own
        // lateness as queue delay — and stagger Poisson workers by one drawn
        // gap instead of firing them all at the boundary in lockstep.
        state.next_arrival_nanos = std::max(phase_start, NowNanos());
        if (phase.spec.arrival == ArrivalModel::kPoisson) {
          state.next_arrival_nanos +=
              static_cast<int64_t>(-std::log1p(-rng.NextDouble()) * 1e9 / worker_rate);
        }
      }
      arrival = state.next_arrival_nanos;
      int64_t gap = 0;
      if (phase.spec.arrival == ArrivalModel::kPoisson) {
        // Exponential inter-arrival gap; exactly one uniform draw per
        // arrival keeps fixed-seed runs stream-deterministic.
        gap = static_cast<int64_t>(-std::log1p(-rng.NextDouble()) * 1e9 / worker_rate);
      } else {
        // Bursty: batches of burst_size back-to-back arrivals, spaced so
        // the average rate still meets the target.
        state.arrival_count += 1;
        if (state.arrival_count % phase.spec.burst_size == 0) {
          gap = static_cast<int64_t>(static_cast<double>(phase.spec.burst_size) * 1e9 /
                                     worker_rate);
        }
      }
      state.next_arrival_nanos = arrival + gap;

      // Wait for the arrival, but never past the phase deadline: with a low
      // rate every active worker can be parked here, and someone must still
      // reach the loop top in time to advance the phase.
      const int64_t phase_deadline = phase_start + phase.duration_nanos;
      bool interrupted = false;
      int64_t now = 0;
      while ((now = NowNanos()) < arrival) {
        if (now >= phase_deadline || current_phase_.load(std::memory_order_relaxed) != p ||
            stop_.load(std::memory_order_relaxed)) {
          interrupted = true;
          break;
        }
        SleepNanos(std::min(arrival - now, kPollNanos));
      }
      if (interrupted) {
        // The phase ended while we waited: drop the arrival and hand its
        // global-budget claim back — the operation never started.
        if (budget >= 0) {
          started_budget_.fetch_sub(1, std::memory_order_relaxed);
        }
        continue;
      }
    }

    const int index = SampleOperation(phase.ratios, rng);
    const int64_t begin = NowNanos();
    if (open_loop) {
      PaceMetrics& pm = pace[p];
      pm.arrivals += 1;
      const int64_t delay = begin - arrival;
      pm.queue_delay.Record(delay > 0 ? delay : 0);
      if (delay > kDelayedThresholdNanos) {
        pm.delayed += 1;
        const double worker_rate =
            phase.spec.rate_ops_per_sec / static_cast<double>(phase.active_threads);
        const auto backlog =
            static_cast<int64_t>(static_cast<double>(delay) / 1e9 * worker_rate);
        pm.backlog_peak = std::max(pm.backlog_peak, backlog);
      }
    }
    SetTxOpContext(index);
    try {
      strategy_->Execute(*ops[index], *data_, rng);
      const int64_t latency = NowNanos() - begin;
      metrics[p][index].RecordSuccess(latency);
      if (telemetry_ != nullptr) {
        telemetry_->RecordOp(true, latency);
      }
    } catch (const OperationFailed&) {
      metrics[p][index].RecordFailure();
      if (telemetry_ != nullptr) {
        telemetry_->RecordOp(false, 0);
      }
    }
    SetTxOpContext(-1);
    phase.executed.fetch_add(1, std::memory_order_relaxed);
    EbrDomain::Global().Quiesce();
  }
}

BenchResult BenchmarkRunner::Run() {
  const size_t op_count = registry_.all().size();
  const size_t phase_count = phases_.size();
  std::vector<std::vector<std::vector<OpMetrics>>> per_thread(
      spawn_threads_, std::vector<std::vector<OpMetrics>>(
                          phase_count, std::vector<OpMetrics>(op_count)));
  std::vector<std::vector<PaceMetrics>> per_thread_pace(
      spawn_threads_, std::vector<PaceMetrics>(phase_count));

  // The caller only waits for the workers (or becomes the single worker,
  // which quiesces itself online); offline, it cannot hold back the epoch.
  EbrDomain::Global().Offline();
  Rng seeder(config_.seed ^ 0x9d867b3543aa5391ull);
  if (tracer_ != nullptr) {
    tracer_->Install();
  }
  {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    BeginPhaseLocked(0);
  }
  current_phase_.store(0, std::memory_order_release);
  const int64_t start = accounting_[0].start_nanos;
  if (telemetry_ != nullptr) {
    telemetry_->Start();
  }

  if (spawn_threads_ == 1) {
    // In-thread execution keeps single-threaded runs fully deterministic,
    // which the cross-backend equivalence tests require.
    WorkerLoop(0, seeder.Split(), per_thread[0], per_thread_pace[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(spawn_threads_);
    for (int t = 0; t < spawn_threads_; ++t) {
      Rng rng = seeder.Split();
      workers.emplace_back([this, t, rng, &per_thread, &per_thread_pace]() mutable {
        WorkerLoop(t, rng, per_thread[t], per_thread_pace[t]);
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  const int64_t end = NowNanos();

  {
    // If the run stopped early (global op cap), the live phase was never
    // closed by a worker; close it so its accounting window is valid.
    std::lock_guard<std::mutex> lock(phase_mutex_);
    const int p = current_phase_.load(std::memory_order_relaxed);
    if (p < static_cast<int>(phase_count)) {
      FinishPhaseLocked(p);
      current_phase_.store(static_cast<int>(phase_count), std::memory_order_relaxed);
    }
  }
  if (config_.ingress != nullptr) {
    // The run is over: close the queue so the front-end's TryPush turns
    // every later arrival into an immediate typed rejection, then reject
    // whatever was admitted but never popped — a closed-loop client must
    // never be left waiting on a request no worker will execute.
    config_.ingress->Close();
    std::vector<net::IngressRequest> stranded;
    while (config_.ingress->PopBatch(&stranded, 64, /*timeout_ms=*/0) > 0) {
      if (config_.on_ingress_complete) {
        for (const net::IngressRequest& request : stranded) {
          config_.on_ingress_complete(request, net::Status::kRejected, 0);
        }
      }
      stranded.clear();
    }
  }
  if (redo_writer_ != nullptr) {
    // Workers are joined: no commit can race the close record. A writer a
    // crash point killed stays frozen in its crash state (Close is dropped).
    redo_writer_->Close();
  }
  if (telemetry_ != nullptr) {
    // Takes the tail sample, joins the sampler and shuts the exposition
    // server; the sampled series stays readable (and flushable as JSONL)
    // for the runner's lifetime.
    telemetry_->Stop();
  }
  if (tracer_ != nullptr) {
    tracer_->Uninstall();
  }
  ResetHotspotPolicy();

  BenchResult result;
  result.per_op.resize(op_count);
  result.phases.resize(config_.scenario.has_value() ? phase_count : 0);
  for (size_t p = 0; p < phase_count; ++p) {
    const PhaseRuntime& phase = *phases_[p];
    const PhaseAccounting& acc = accounting_[p];
    PhaseResult scratch;
    PhaseResult& pr = p < result.phases.size() ? result.phases[p] : scratch;
    pr.name = phase.spec.name;
    pr.read_fraction = phase.read_fraction;
    pr.threads = phase.active_threads;
    pr.arrival = phase.spec.arrival;
    pr.target_rate = phase.spec.rate_ops_per_sec;
    pr.zipf_theta = phase.spec.zipf_theta;
    pr.hot_fraction = phase.spec.hot_fraction;
    pr.ratios = phase.ratios;
    pr.per_op.resize(op_count);
    for (int t = 0; t < spawn_threads_; ++t) {
      for (size_t i = 0; i < op_count; ++i) {
        pr.per_op[i].Merge(per_thread[t][p][i]);
      }
      pr.pace.Merge(per_thread_pace[t][p]);
    }
    for (size_t i = 0; i < op_count; ++i) {
      pr.total_success += pr.per_op[i].success;
      pr.total_started += pr.per_op[i].started();
      result.per_op[i].Merge(pr.per_op[i]);
    }
    pr.elapsed_seconds =
        acc.end_nanos > acc.start_nanos ? NanosToSeconds(acc.end_nanos - acc.start_nanos) : 0.0;
    pr.stm = StmStats::View::Subtract(acc.stm_end, acc.stm_begin);
    pr.hot_samples = acc.hot_end.samples - acc.hot_begin.samples;
    pr.hot_hits = acc.hot_end.hot_hits - acc.hot_begin.hot_hits;
    pr.hw = telemetry::HwSample::Delta(acc.hw_end, acc.hw_begin);
    if (tracer_ != nullptr) {
      pr.conflicts = tracer_->SummarizeWindow(acc.conflict_end, acc.conflict_begin, kConflictTopK);
    }
  }
  for (const OpMetrics& metrics : result.per_op) {
    result.total_success += metrics.success;
    result.total_started += metrics.started();
  }
  result.ratios = ratios_;
  result.elapsed_seconds = NanosToSeconds(end - start);
  if (Stm* stm = strategy_->stm()) {
    result.stm = stm->stats().Snapshot();
  }
  // Whole-run hardware window: first begun phase to last finished phase (a
  // global op cap can leave trailing phases that never began).
  for (auto it = accounting_.rbegin(); it != accounting_.rend(); ++it) {
    if (it->end_nanos != 0) {
      result.hw = telemetry::HwSample::Delta(it->hw_end, accounting_.front().hw_begin);
      break;
    }
  }
  if (tracer_ != nullptr) {
    result.traced = true;
    result.conflicts = tracer_->SummarizeWindow(tracer_->ConflictSnapshot(),
                                                trace::ConflictTable::Snapshot{}, kConflictTopK);
    result.latency_by_op = tracer_->LatencyByOp();
    result.trace_events_dropped = tracer_->TotalDropped();
  }
  // The workers have exited and the caller is offline. Unless a thread
  // elsewhere is online, every pass opens a new epoch, and an object is safe
  // two epochs after it was retired: three passes free all the run retired.
  EbrDomain& ebr = EbrDomain::Global();
  ebr.Offline();
  for (int pass = 0; pass < 3; ++pass) {
    ebr.TryReclaim();
  }
  return result;
}

}  // namespace sb7
