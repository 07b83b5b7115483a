/// \file
/// Litmus programs for the interleaving explorer.
///
/// A litmus is a tiny concurrent program with a known expected outcome:
/// either *clean* (no schedule may produce a violation) or *racy* (at least
/// one schedule must trip a model-level detector or the end-state check).
/// Two families live here:
///
///   * model litmus — a few instrumented cells and hand-written bodies that
///     model a historical (since fixed) concurrency bug of this repo at the
///     protocol level, paired with a `-fixed` variant mirroring the actual
///     fix that must explore clean. These are the pinned regressions:
///     - astm-priority-race: the cross-thread AstmTx::Priority() read was a
///       plain int64 while the owner thread kept writing it (fixed by
///       making priority_ atomic).
///     - tracer-tls-uaf: the tracer's thread-local slot was keyed by the
///       tracer's *address*; a new tracer constructed where a destroyed one
///       lived inherited a freed state pointer through address reuse (fixed
///       by keying on a process-unique instance id — see trace/tracer.cc).
///   * STM litmus — real transactions through the real backends (tl2,
///     tinystm, norec, astm, mvstm) on a couple of shared fields, with the
///     opacity checker from src/check/ run over the recorded history of
///     every explored schedule. All STM litmus are expected clean; a
///     violation is a bug in the backend (or a regression someone is
///     hunting with `sb7-mc`).
///
/// Shared cells are allocated once per litmus (not per execution), so
/// addresses — and therefore schedules — are stable across the executions
/// of one exploration, which is what makes in-process replay exact.

#ifndef STMBENCH7_SRC_MC_LITMUS_H_
#define STMBENCH7_SRC_MC_LITMUS_H_

#ifdef SB7_MC

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sb7::mc {

struct Litmus {
  std::string name;
  std::string summary;
  /// True when exploration is *expected* to find at least one failing
  /// schedule (the litmus models a bug); false when every schedule must be
  /// clean. `sb7-mc` exits nonzero when the outcome disagrees.
  bool expect_violation = false;
  /// Part of the smoke tier (fast, bounded exploration in CI's mc_smoke).
  bool smoke = true;
  /// Preemption bound in the smoke and default tiers (`--switch-bound`
  /// overrides it; `--full` explores bounds 0, 1, 2, ... in turn instead);
  /// -1 = unbounded. Unbounded DFS spends its budget on preemptions late in
  /// the schedule, so a litmus whose failure needs an early one sets the
  /// bound that failure needs, which makes the exploration exhaustive over
  /// it.
  int switch_bound = -1;

  /// Runs on the control thread before each execution: resets cell values,
  /// installs per-execution observers. The control thread is unregistered,
  /// so nothing here hits a sync point.
  std::function<void()> setup;
  /// One body per virtual thread.
  std::vector<std::function<void()>> bodies;
  /// Runs on the control thread after every virtual thread finished (and
  /// before threads are joined). Returns "" when the end state is
  /// acceptable, else a description of the violation.
  std::function<std::string()> check;

  int num_threads() const { return static_cast<int>(bodies.size()); }
};

/// All registered litmus programs, model family first, then the STM family
/// in backend order. Built on first use; cells live for the process.
const std::vector<Litmus>& AllLitmuses();

/// nullptr when no litmus has that name.
const Litmus* FindLitmus(std::string_view name);

}  // namespace sb7::mc

#endif  // SB7_MC
#endif  // STMBENCH7_SRC_MC_LITMUS_H_
