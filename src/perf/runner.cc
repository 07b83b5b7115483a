#include "src/perf/runner.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "src/core/invariants.h"
#include "src/harness/driver.h"
#include "src/harness/workload.h"
#include "src/net/client.h"
#include "src/net/ingress.h"
#include "src/net/server.h"
#include "src/perf/stats.h"

namespace sb7::perf {
namespace {

// Per-repetition measurements, taken over the body (non-warmup) phases.
struct RepSample {
  double elapsed_seconds = 0.0;
  int64_t success = 0;
  int64_t started = 0;
  std::vector<double> probe_max_ms;  // parallel to spec.probes; -1 = never completed
  double p999_ms = -1.0;  // server-side op latency, all ops merged
  bool wire = false;
  WireCellStats wire_stats;
  bool has_stm = false;
  StmStats::View stm = {};
  CellConflicts conflicts;
  // Live telemetry series of the repetition (whole run, warmup included)
  // and the hw delta summed over the measure phases. Empty / unavailable
  // when the sweep ran with telemetry off.
  std::vector<telemetry::Sample> series;
  telemetry::HwSample hw;

  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(success) / elapsed_seconds : 0.0;
  }
  double StartedRate() const {
    return elapsed_seconds > 0 ? static_cast<double>(started) / elapsed_seconds : 0.0;
  }
};

// Builds the cell's scenario: [warmup phase] + measure body. The body is one
// closed-loop phase for plain cells, or the built-in scenario's phases.
// Duration weights are set to absolute seconds (warmup seconds for the
// warmup phase; each body phase's share of seconds-per-phase × body count),
// so the total run length is simply the weight sum.
Scenario BuildCellScenario(const SweepSpec& spec, const SweepCell& cell,
                           double& total_seconds) {
  Scenario scenario;
  std::vector<PhaseSpec> body;
  if (cell.scenario.empty()) {
    PhaseSpec measure;
    measure.name = "measure";
    body.push_back(measure);
    scenario.name = "cell";
  } else {
    const std::optional<Scenario> builtin = FindBuiltinScenario(cell.scenario);
    body = builtin->phases;
    scenario.name = cell.scenario;
  }

  const double body_seconds = spec.seconds * static_cast<double>(body.size());
  double body_weight = 0.0;
  for (const PhaseSpec& phase : body) {
    body_weight += phase.duration_weight;
  }
  for (PhaseSpec& phase : body) {
    phase.duration_weight = phase.duration_weight / body_weight * body_seconds;
  }

  if (spec.warmup > 0) {
    PhaseSpec warmup;
    warmup.name = "warmup";
    warmup.duration_weight = spec.warmup;
    scenario.phases.push_back(warmup);
  }
  scenario.phases.insert(scenario.phases.end(), body.begin(), body.end());
  // The op cap is per phase (the scenario engine flips a capped phase when
  // it fills): a run-level budget would be spent inside the warmup phase and
  // leave the measure phases empty.
  if (spec.max_ops > 0) {
    for (PhaseSpec& phase : scenario.phases) {
      phase.max_ops = spec.max_ops;
    }
  }
  total_seconds = spec.warmup + body_seconds;
  return scenario;
}

BenchConfig BuildCellConfig(const SweepSpec& spec, const SweepCell& cell, int rep) {
  BenchConfig config;
  config.strategy = cell.backend;
  if (cell.cm != "default") {
    config.contention_manager = cell.cm;
  }
  config.scale = cell.scale;
  if (cell.index != "default") {
    config.index_kind = IndexKindForName(cell.index);
  }
  config.workload = WorkloadTypeForName(cell.workload);
  config.threads = cell.threads;

  const std::optional<MixPreset> mix = FindMixPreset(cell.mix);
  config.long_traversals = mix->long_traversals;
  config.disabled_ops = mix->disabled_ops;

  double total_seconds = 0.0;
  config.scenario = BuildCellScenario(spec, cell, total_seconds);
  config.length_seconds = total_seconds;
  // Each repetition reseeds structure build and operation streams together,
  // so rep r is reproducible in isolation via --seed (spec.seed + r).
  config.seed = spec.seed + static_cast<uint64_t>(rep);

  // Durability cells run with a scratch redo log (group-commit sequencer
  // attached); "off" cells run the classic no-log path so they stay
  // comparable against pre-durability baselines. The caller unlinks the
  // scratch file after the repetition.
  if (cell.durability != "off") {
    config.redo_log_path = "/tmp/sb7_bench_" + std::to_string(::getpid()) + "_" +
                           cell.durability + "_rep" + std::to_string(rep) + ".redo";
    config.durability = cell.durability;
  }
  return config;
}

// Aggregates one finished repetition over its body phases. The warmup phase
// (when present) is phases[0] and is excluded.
RepSample CollectRep(const SweepSpec& spec, const BenchmarkRunner& runner,
                     const BenchResult& result) {
  RepSample sample;
  const size_t body_begin = spec.warmup > 0 ? 1 : 0;
  std::vector<int> probe_indices;
  for (const std::string& probe : spec.probes) {
    int index = -1;
    const auto& ops = runner.registry().all();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->name() == probe) {
        index = static_cast<int>(i);
        break;
      }
    }
    probe_indices.push_back(index);
  }
  sample.probe_max_ms.assign(spec.probes.size(), -1.0);

  TtcHistogram latency_all;
  for (size_t p = body_begin; p < result.phases.size(); ++p) {
    const PhaseResult& phase = result.phases[p];
    sample.elapsed_seconds += phase.elapsed_seconds;
    sample.success += phase.total_success;
    sample.started += phase.total_started;
    for (const OpMetrics& op : phase.per_op) {
      latency_all.Merge(op.histogram);
    }
    sample.stm = StmStats::View::Add(sample.stm, phase.stm);
    if (phase.hw.available) {
      sample.hw.available = true;
      sample.hw.cycles += phase.hw.cycles;
      sample.hw.instructions += phase.hw.instructions;
      sample.hw.llc_misses += phase.hw.llc_misses;
      sample.hw.stalled_cycles += phase.hw.stalled_cycles;
    }
    for (size_t q = 0; q < probe_indices.size(); ++q) {
      const int op = probe_indices[q];
      if (op < 0 || phase.per_op[op].success == 0) {
        continue;
      }
      const double max_ms =
          static_cast<double>(phase.per_op[op].histogram.max_nanos()) / 1e6;
      sample.probe_max_ms[q] = std::max(sample.probe_max_ms[q], max_ms);
    }
  }
  if (latency_all.total_count() > 0) {
    sample.p999_ms = latency_all.QuantileMillis(0.999);
  }
  sample.has_stm = runner.strategy().stm() != nullptr;
  if (runner.telemetry() != nullptr) {
    sample.series = runner.telemetry()->SeriesSnapshot();
  }

  if (result.traced) {
    // The cell summary is the whole-run window (the per-phase snapshots are
    // in the harness reports); the warmup phase contributes, but its share
    // of a multi-second cell is small and attribution is statistical anyway.
    sample.conflicts.total_aborts = result.conflicts.total_aborts;
    sample.conflicts.attributed_aborts = result.conflicts.attributed_aborts;
    sample.conflicts.dropped_events = result.trace_events_dropped;
    sample.conflicts.top_locations = result.conflicts.top_locations;
    for (const trace::ConflictPair& pair : result.conflicts.top_pairs) {
      NamedConflictPair named;
      named.victim = runner.registry().SlotName(pair.victim_slot);
      named.writer = runner.registry().SlotName(pair.writer_slot);
      named.aborts = pair.aborts;
      sample.conflicts.top_pairs.push_back(std::move(named));
    }
  }
  return sample;
}

// Loopback ingress depth for wire cells: deep enough that a closed-loop
// client (one outstanding request per connection) never sees backpressure,
// small enough that a wedged runner surfaces as rejections, not buffering.
constexpr size_t kWireQueueCapacity = 1024;

// Runs one wire-cell repetition: the same BenchmarkRunner as an inproc
// cell, but its workers drain a loopback OpServer's ingress queue while a
// closed-loop load client (one connection per worker thread) generates the
// operation mix the inproc cell would have sampled locally. Server-side
// phase accounting stays the source of the comparable throughput/latency
// numbers; the client's end-to-end view lands in sample->wire_stats.
// Returns false with *error set when the plumbing itself failed.
bool RunWireRep(const SweepSpec& spec, const SweepCell& cell, BenchConfig config,
                bool validate, RepSample* sample, std::string* error) {
  net::IngressQueue ingress(kWireQueueCapacity);
  config.ingress = &ingress;
  // The server outlives every worker callback (runner_thread joins before
  // it is destroyed); the indirection only bridges construction order.
  net::OpServer* server_ptr = nullptr;
  config.on_ingress_complete = [&server_ptr](const net::IngressRequest& request,
                                             net::Status status, int64_t nanos) {
    if (server_ptr != nullptr) {
      server_ptr->Complete(request, status, nanos);
    }
  };

  BenchmarkRunner runner(config);
  net::OpServer server(net::ServerOptions{}, &ingress,
                       static_cast<uint16_t>(runner.registry().all().size()));
  server_ptr = &server;
  std::string start_error;
  if (!server.Start(&start_error)) {
    *error = "loopback server failed to start: " + start_error;
    return false;
  }

  net::ClientOptions client_options;
  client_options.port = server.port();
  client_options.connections = cell.threads;
  client_options.seconds = config.length_seconds;
  const std::optional<MixPreset> mix = FindMixPreset(cell.mix);
  client_options.ratios = ComputeOperationRatios(
      runner.registry(), WorkloadTypeForName(cell.workload), mix->long_traversals,
      /*structure_mods_enabled=*/true, mix->disabled_ops);
  client_options.seed = config.seed;

  BenchResult result;
  std::thread runner_thread([&runner, &result]() { result = runner.Run(); });
  // Run() closes + drain-rejects the queue when the phases end, so even a
  // client outliving the runner (op cap, clock skew) only ever sees typed
  // rejections, never a stranded request.
  const net::ClientResult client = net::RunLoadClient(client_options);
  runner_thread.join();
  server.Stop();

  if (!client.Ok()) {
    *error = "loopback client failed: " + client.error;
    return false;
  }
  if (validate) {
    const InvariantReport report = CheckInvariants(runner.data());
    if (!report.ok()) {
      *error = "invariant violation: " + report.violations[0];
      return false;
    }
  }

  *sample = CollectRep(spec, runner, result);
  sample->wire = true;
  sample->wire_stats.sent = client.sent;
  sample->wire_stats.ok = client.ok;
  sample->wire_stats.op_failed = client.op_failed;
  sample->wire_stats.rejected = client.rejected;
  sample->wire_stats.bad = client.bad;
  sample->wire_stats.lost = client.lost;
  sample->wire_stats.client_throughput = client.Throughput();
  if (client.latency.total_count() > 0) {
    sample->wire_stats.p50_ms = client.latency.QuantileMillis(0.5);
    sample->wire_stats.p99_ms = client.latency.QuantileMillis(0.99);
    sample->wire_stats.p999_ms = client.latency.QuantileMillis(0.999);
    sample->wire_stats.max_ms =
        static_cast<double>(client.latency.max_nanos()) / 1e6;
  }
  return true;
}

// Median/min/max over the repetitions where the probe completed at least
// once; all three stay -1 when it never did.
ProbeStats ProbeStatsOf(const std::string& op, const std::vector<RepSample>& samples,
                        size_t probe_index) {
  ProbeStats stats;
  stats.op = op;
  std::vector<double> values;
  for (const RepSample& sample : samples) {
    if (sample.probe_max_ms[probe_index] >= 0) {
      values.push_back(sample.probe_max_ms[probe_index]);
    }
  }
  if (!values.empty()) {
    stats.max_ms_median = Median(values);
    stats.max_ms_min = MinOf(values);
    stats.max_ms_max = MaxOf(values);
  }
  return stats;
}

}  // namespace

std::string CellKey(const SweepCell& cell) {
  std::ostringstream out;
  out << "backend=" << cell.backend << " threads=" << cell.threads
      << " workload=" << cell.workload << " scenario="
      << (cell.scenario.empty() ? "-" : cell.scenario) << " scale=" << cell.scale
      << " index=" << cell.index << " cm=" << cell.cm << " mix=" << cell.mix;
  if (cell.serve != "inproc") {
    out << " serve=" << cell.serve;
  }
  if (cell.durability != "off") {
    out << " durability=" << cell.durability;
  }
  return out.str();
}

std::vector<SweepCell> ExpandCells(const SweepSpec& spec) {
  // Axis nesting, outermost first: durability, serve, mix, scale,
  // scenario/workload, index, cm, backend, threads — so the human table reads
  // as "one block per configuration, backends side by side, thread counts
  // down the rows".
  std::vector<SweepCell> cells;
  std::vector<std::string> scenarios = spec.scenarios;
  if (scenarios.empty()) {
    scenarios = {""};
  }
  for (const std::string& durability : spec.durabilities) {
    for (const std::string& serve : spec.serves) {
      for (const std::string& mix : spec.mixes) {
        for (const std::string& scale : spec.scales) {
          for (const std::string& scenario : scenarios) {
            for (const std::string& workload : spec.workloads) {
              for (const std::string& index : spec.indexes) {
                for (const std::string& cm : spec.cms) {
                  for (const int threads : spec.threads) {
                    for (const std::string& backend : spec.backends) {
                      SweepCell cell;
                      cell.backend = backend;
                      cell.threads = threads;
                      cell.workload = workload;
                      cell.scenario = scenario;
                      cell.scale = scale;
                      cell.index = index;
                      cell.cm = cm;
                      cell.mix = mix;
                      cell.serve = serve;
                      cell.durability = durability;
                      cells.push_back(cell);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

SweepRunOutcome RunSweep(const SweepSpec& spec, const SweepRunOptions& options) {
  SweepRunOutcome outcome;
  outcome.result.spec = spec;
  const std::vector<SweepCell> cells = ExpandCells(spec);

  for (size_t c = 0; c < cells.size(); ++c) {
    const SweepCell& cell = cells[c];
    std::vector<RepSample> samples;
    for (int rep = 0; rep < spec.reps; ++rep) {
      BenchConfig config = BuildCellConfig(spec, cell, rep);
      // The scratch redo log of a durability cell; empty otherwise. Unlinked
      // once the repetition (and its post-run validation) is done.
      const std::string redo_path = config.redo_log_path;
      config.trace = options.trace_cells;
      if (options.telemetry) {
        // In-memory series only (no JSONL, no endpoint). Sample fast enough
        // that even a sub-second cell yields a usable series for the
        // steady-state detector, without dipping into pure-noise intervals.
        config.telemetry = true;
        config.telemetry_interval = std::clamp(spec.seconds / 8.0, 0.05, 1.0);
      }
      if (cell.serve == "wire") {
        RepSample sample;
        std::string wire_error;
        const bool wire_ok = RunWireRep(spec, cell, std::move(config),
                                        rep == spec.reps - 1, &sample, &wire_error);
        if (!redo_path.empty()) {
          ::unlink(redo_path.c_str());
        }
        if (!wire_ok) {
          outcome.error = "wire cell [" + CellKey(cell) + "]: " + wire_error;
          return outcome;
        }
        samples.push_back(std::move(sample));
        continue;
      }

      BenchmarkRunner runner(config);
      const BenchResult result = runner.Run();
      samples.push_back(CollectRep(spec, runner, result));
      if (!redo_path.empty()) {
        ::unlink(redo_path.c_str());
      }
      if (runner.redo_writer() != nullptr && !runner.redo_writer()->ok()) {
        outcome.error = "redo log failure in cell [" + CellKey(cell) +
                        "]: " + runner.redo_writer()->error();
        return outcome;
      }

      // Validate the structure after the last repetition of the cell.
      if (rep == spec.reps - 1) {
        const InvariantReport report = CheckInvariants(runner.data());
        if (!report.ok()) {
          outcome.error = "invariant violation in cell [" + CellKey(cell) +
                          "]: " + report.violations[0];
          return outcome;
        }
      }
    }

    CellResult cell_result;
    cell_result.cell = cell;
    cell_result.reps = spec.reps;
    std::vector<double> throughputs;
    std::vector<double> elapsed;
    std::vector<double> started;
    for (const RepSample& sample : samples) {
      throughputs.push_back(sample.Throughput());
      elapsed.push_back(sample.elapsed_seconds);
      started.push_back(sample.StartedRate());
    }
    cell_result.throughput_median = Median(throughputs);
    cell_result.throughput_min = MinOf(throughputs);
    cell_result.throughput_max = MaxOf(throughputs);
    cell_result.elapsed_median_s = Median(elapsed);
    cell_result.started_median = Median(started);
    for (size_t q = 0; q < spec.probes.size(); ++q) {
      cell_result.probes.push_back(ProbeStatsOf(spec.probes[q], samples, q));
    }
    const RepSample& median_rep = samples[MedianIndex(throughputs)];
    cell_result.p999_ms = median_rep.p999_ms;
    cell_result.wire = median_rep.wire;
    cell_result.wire_stats = median_rep.wire_stats;
    cell_result.has_stm = median_rep.has_stm;
    cell_result.stm = median_rep.stm;
    cell_result.traced = options.trace_cells;
    cell_result.conflicts = median_rep.conflicts;
    cell_result.telemetry = options.telemetry;
    if (options.telemetry) {
      std::vector<double> t_s;
      std::vector<double> ops_per_s;
      for (const telemetry::Sample& s : median_rep.series) {
        t_s.push_back(s.t_s);
        ops_per_s.push_back(s.ops_per_s);
      }
      cell_result.steady =
          DetectSteadyState(t_s, ops_per_s, spec.cv_threshold, spec.warmup);
      cell_result.has_hw = median_rep.hw.available;
      cell_result.hw = median_rep.hw;
    }
    outcome.result.cells.push_back(cell_result);

    if (options.log != nullptr) {
      *options.log << "[" << (c + 1) << "/" << cells.size() << "] " << CellKey(cell) << "  "
                   << static_cast<int64_t>(cell_result.throughput_median) << " op/s";
      if (spec.reps > 1) {
        *options.log << " (min " << static_cast<int64_t>(cell_result.throughput_min)
                     << ", max " << static_cast<int64_t>(cell_result.throughput_max) << ")";
      }
      *options.log << "\n";
    }
  }
  return outcome;
}

}  // namespace sb7::perf
