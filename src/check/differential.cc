#include "src/check/differential.h"

#include <sstream>

#include "src/check/fingerprint.h"
#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/workload.h"
#include "src/strategy/strategy.h"

namespace sb7 {
namespace {

// Executes the shared operation sequence under one strategy. The op-selection
// stream and the op-body stream both derive from options.seed, mirroring how
// the benchmark driver hands one Rng to a worker for both purposes.
DifferentialRun RunOneBackend(const DifferentialOptions& options,
                              const std::string& strategy_name,
                              const OperationRegistry& registry,
                              const std::vector<double>& ratios,
                              std::vector<std::string>* op_names) {
  DifferentialRun run;
  run.strategy = strategy_name;

  std::unique_ptr<SyncStrategy> strategy = MakeStrategy(strategy_name);
  SB7_CHECK(strategy != nullptr);
  DataHolder::Setup setup;
  setup.params = Parameters::ForName(options.scale);
  setup.index_kind = DefaultIndexKindFor(strategy_name);
  setup.seed = options.seed;
  DataHolder data(setup);

  const auto& ops = registry.all();
  Rng rng(options.seed ^ 0x5eedf00ddeadbeefull);
  run.results.reserve(options.operations);
  for (int i = 0; i < options.operations; ++i) {
    const int index = SampleOperation(ratios, rng);
    if (op_names != nullptr) {
      op_names->push_back(ops[index]->name());
    }
    int64_t value = kOperationFailedSentinel;
    try {
      value = strategy->Execute(*ops[index], data, rng);
    } catch (const OperationFailed&) {
      // Committed failure outcome; the sentinel must match across backends.
    }
    run.results.push_back(value);
    EbrDomain::Global().Quiesce();
  }
  EbrDomain::Global().Offline();
  EbrDomain::Global().TryReclaim();

  InvariantReport invariants = CheckInvariants(data);
  run.invariants_ok = invariants.ok();
  run.violations = std::move(invariants.violations);
  run.fingerprint = DeepFingerprint(data);
  return run;
}

}  // namespace

DifferentialReport RunDifferential(const DifferentialOptions& options) {
  DifferentialReport report;
  SB7_CHECK(!options.strategies.empty());
  SB7_CHECK(options.operations > 0);

  OperationRegistry registry;
  const std::vector<double> ratios = ComputeOperationRatios(
      registry, WorkloadType::kReadWrite, options.long_traversals, options.structure_mods,
      options.disabled_ops);

  for (size_t s = 0; s < options.strategies.size(); ++s) {
    report.runs.push_back(RunOneBackend(options, options.strategies[s], registry, ratios,
                                        s == 0 ? &report.op_names : nullptr));
  }

  const DifferentialRun& reference = report.runs.front();
  for (const DifferentialRun& run : report.runs) {
    if (!run.invariants_ok) {
      report.mismatches.push_back(run.strategy + ": structure invariants violated (" +
                                  (run.violations.empty() ? "?" : run.violations.front()) +
                                  ")");
    }
  }
  for (size_t s = 1; s < report.runs.size(); ++s) {
    const DifferentialRun& run = report.runs[s];
    for (size_t i = 0; i < run.results.size(); ++i) {
      if (run.results[i] != reference.results[i]) {
        std::ostringstream message;
        message << run.strategy << " vs " << reference.strategy << ": operation #" << i
                << " (" << report.op_names[i] << ") returned " << run.results[i]
                << " instead of " << reference.results[i];
        report.mismatches.push_back(message.str());
        break;  // one divergence per backend pair is enough to diagnose
      }
    }
    if (run.fingerprint != reference.fingerprint) {
      std::ostringstream message;
      message << run.strategy << " vs " << reference.strategy
              << ": final structural fingerprints differ (" << std::hex << run.fingerprint
              << " != " << reference.fingerprint << ")";
      report.mismatches.push_back(message.str());
    }
  }
  return report;
}

std::string FormatDifferentialReport(const DifferentialReport& report) {
  std::ostringstream out;
  out << "== Differential oracle ==\n";
  out << "  operations: " << report.op_names.size() << "\n";
  for (const DifferentialRun& run : report.runs) {
    out << "  " << run.strategy << ": fingerprint " << std::hex << run.fingerprint
        << std::dec << ", invariants " << (run.invariants_ok ? "OK" : "VIOLATED") << "\n";
  }
  if (report.ok()) {
    out << "  verdict: all backends agree\n";
  } else {
    out << "  verdict: DIVERGENCE\n";
    for (const std::string& mismatch : report.mismatches) {
      out << "    " << mismatch << "\n";
    }
  }
  return out.str();
}

}  // namespace sb7
