/// \file
/// Sweep result serialization: the versioned `BENCH_<sweep>.json` artifact
/// (schema pinned by tests/perf_test.cc, versioned like the `stmbench7
/// --json` run report) and the human-readable comparison table printed
/// after every run.
///
/// BENCH schema 2, top-level keys:
///   schema   integer, currently 2
///   tool     "sb7-bench"
///   sweep    the sweep name
///   metric   "throughput" | "latency"
///   config   {seconds, warmup, reps, seed, threshold}
///   axes     {backends, threads, workloads, scenarios, scales, indexes,
///             cms, mixes} — each the axis value list, in execution order
///   cells    one object per cell:
///            {key, backend, threads, workload, scenario, scale, index, cm,
///             mix, reps, elapsed_median_s, throughput_median,
///             throughput_min, throughput_max, started_median}
///            plus "probes" (array of {op, max_ms_median, max_ms_min,
///            max_ms_max}) when probes are configured and "stm" (the
///            median repetition's counter deltas) for STM backends.
/// Schema 2 adds the "abort_causes" sub-object to every "stm" block and,
/// for sweeps run with --trace-cells, a per-cell "conflicts" block:
///            {total_aborts, attributed_aborts, dropped_events,
///             top_locations: [{key, aborts}],
///             top_pairs: [{victim, writer, aborts}]}
/// Schema 3 adds "cv_threshold" to the config block and, for sweeps run
/// with live telemetry (the default), a per-cell "steady_state" block —
/// the CV-window detector's verdict over the median repetition's
/// throughput series:
///            {samples, detected, steady_at_s, tail_cv, warmup_s,
///             warmup_covered}
/// and, when perf_event counters opened, a per-cell "hw" block (deltas
/// summed over the median repetition's measure phases):
///            {cycles, instructions, llc_misses, stalled_cycles}
/// Schema 4 adds the serve axis ("serves" in the axes block, "serve" and
/// "p999_ms" — the median repetition's server-side all-ops latency p999,
/// -1 when nothing completed — in every cell) and, for serve="wire" cells,
/// a "wire" block with the loopback load client's view:
///            {sent, ok, op_failed, rejected, bad, lost,
///             client_throughput, p50_ms, p99_ms, p999_ms, max_ms}
/// Schema 5 adds the durability axis ("durabilities" in the axes block and
/// "durability" in every cell — the redo-log fsync policy of
/// docs/DURABILITY.md; "off" cells run without a redo log and their keys
/// stay byte-identical to pre-durability baselines).
/// Readers accept any schema in [1, current] (--compare treats the added
/// keys as optional). Changing any of this is a schema bump and must
/// update the golden test.

#ifndef STMBENCH7_SRC_PERF_REPORT_H_
#define STMBENCH7_SRC_PERF_REPORT_H_

#include <iosfwd>

#include "src/perf/runner.h"

namespace sb7::perf {

/// The BENCH_*.json schema version this build writes and reads.
constexpr int kBenchSchemaVersion = 5;

/// Writes the machine-readable sweep artifact described above.
void WriteSweepJson(std::ostream& out, const SweepResult& result);

/// Prints the human-readable comparison table: one pivot block per
/// combination of the row axes, with the column axis (backends when the
/// sweep has several; otherwise contention managers, then mixes) side by
/// side and thread counts down the rows. Latency sweeps print one table per
/// probe operation.
void PrintSweepTable(std::ostream& out, const SweepResult& result);

}  // namespace sb7::perf

#endif  // STMBENCH7_SRC_PERF_REPORT_H_
