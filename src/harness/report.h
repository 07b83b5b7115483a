// Appendix-A report formatting: benchmark parameters, optional TTC
// histograms, detailed per-operation results, sample errors, and summary.

#ifndef STMBENCH7_SRC_HARNESS_REPORT_H_
#define STMBENCH7_SRC_HARNESS_REPORT_H_

#include <ostream>

#include "src/harness/driver.h"

namespace sb7 {

void PrintReport(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result);

// The machine-readable run report (`--json`, schema 3): config and totals
// as one object, the run-level STM block (with the per-cause abort
// breakdown), the trace block under --trace, one row per enabled operation
// (ratio, completed, failed, max/mean/p50/p90/p99/p99.9 latency in ms and
// started throughput) and — for scenario runs — one block per phase
// (throughput, open-loop queue-delay percentiles, backlog, hotspot and STM
// deltas).
void WriteJson(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result);

// The STM counter block shared by the run report and the BENCH artifact
// (`sb7-bench`): an object whose continuation lines start with `indent`.
void WriteStmJson(std::ostream& out, const StmStats::View& stm, const char* indent);

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_REPORT_H_
