// The sb7-bench benchmark orchestrator: runs declarative sweeps (built-in or
// spec-file), writes the machine-readable BENCH_<sweep>.json artifact, prints
// the human comparison table, and gates against a baseline artifact with
// --compare. Replaces the legacy one-binary-per-figure bench/ targets.
//
// Exit codes: 0 success, 1 sweep failure or flagged regression, 2 usage.

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "src/common/json.h"
#include "src/common/text.h"
#include "src/perf/compare.h"
#include "src/perf/report.h"
#include "src/perf/runner.h"
#include "src/perf/stats.h"
#include "src/telemetry/series.h"

namespace {

std::string UsageText() {
  return R"(usage: sb7-bench [options]
  --sweep <name|file>    run a sweep: a built-in name (see --list) or a
                         key=value spec file (see bench/specs/)
  --list                 list the built-in sweeps and exit
  --out <file>           artifact path (default BENCH_<sweep>.json)
  --no-out               skip writing the JSON artifact
  --compare <baseline>   compare against a BENCH_*.json baseline; with
                         --sweep the fresh result is the candidate, without
                         it --against names the candidate file
  --against <file>       candidate BENCH_*.json for a run-free comparison
  --threshold <f>        relative noise threshold for --compare in (0,1)
                         (default: the spec's threshold, normally 0.15)
  --seconds <f>          override the per-cell measure window
  --warmup <f>           override the per-cell warmup window
  --reps <n>             override the repetition count
  --threads <list>       override the thread axis (comma-separated)
  --scale <s>            override the scale axis (tiny | small | medium)
  --seed <n>             override the base RNG seed
  --serve-factor <f>     gate wire cells against their inproc twins: every
                         serve=wire cell must reach at least 1/f of the
                         matching inproc cell's throughput (f > 1; exit 1
                         on violation). Requires a sweep with a serve axis.
  --trace-cells          install the tracer for every cell and record a
                         per-cell conflict summary in the artifact
  --no-telemetry         run the cells without the live telemetry sampler
                         (drops the steady_state/hw blocks; overhead A/B runs)
  --validate-json <file> parse a JSON file (e.g. a --trace timeline) with the
                         in-tree parser and exit 0 iff it is well-formed
  --validate-jsonl <file>
                         validate a --telemetry JSONL series against the
                         telemetry schema and exit 0 iff it conforms
  --quiet                suppress per-cell progress on stderr
  --help                 show this message
Environment (between spec defaults and flags in precedence):
  SB7_BENCH_SECONDS, SB7_BENCH_SCALE, SB7_BENCH_THREADS
)";
}

struct Options {
  std::string sweep;
  std::string out_path;
  bool no_out = false;
  std::string compare_path;
  std::string against_path;
  double threshold = 0.0;  // 0 = use the spec/baseline threshold
  double seconds = 0.0;
  double warmup = -1.0;
  int reps = 0;
  std::vector<int> threads;
  std::string scale;
  uint64_t seed = 0;
  bool seed_given = false;
  double serve_factor = 0.0;  // 0 = gate off
  bool trace_cells = false;
  bool telemetry = true;
  std::string validate_json_path;
  std::string validate_jsonl_path;
  bool quiet = false;
  bool list = false;
  bool help = false;
  std::string error;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  auto fail = [&options](const std::string& message) {
    if (options.error.empty()) {
      options.error = message;
    }
    return options;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--sweep") {
      if (!next(options.sweep) || options.sweep.empty()) {
        return fail("--sweep requires a built-in name or spec-file path");
      }
    } else if (arg == "--out") {
      if (!next(options.out_path) || options.out_path.empty()) {
        return fail("--out requires a file path");
      }
    } else if (arg == "--no-out") {
      options.no_out = true;
    } else if (arg == "--compare") {
      if (!next(options.compare_path) || options.compare_path.empty()) {
        return fail("--compare requires a baseline BENCH_*.json path");
      }
    } else if (arg == "--against") {
      if (!next(options.against_path) || options.against_path.empty()) {
        return fail("--against requires a candidate BENCH_*.json path");
      }
    } else if (arg == "--threshold") {
      if (!next(value) || !sb7::ParseDouble(value, options.threshold) ||
          options.threshold <= 0 || options.threshold >= 1) {
        return fail("--threshold requires a number in (0,1)");
      }
    } else if (arg == "--seconds") {
      if (!next(value) || !sb7::ParseDouble(value, options.seconds) ||
          options.seconds <= 0) {
        return fail("--seconds requires a positive number");
      }
    } else if (arg == "--warmup") {
      if (!next(value) || !sb7::ParseDouble(value, options.warmup) || options.warmup < 0) {
        return fail("--warmup requires a non-negative number");
      }
    } else if (arg == "--reps") {
      int64_t reps = 0;
      if (!next(value) || !sb7::ParseInt64(value, reps) || reps < 1) {
        return fail("--reps requires a positive integer");
      }
      options.reps = static_cast<int>(reps);
    } else if (arg == "--threads") {
      if (!next(value)) {
        return fail("--threads requires a comma-separated list");
      }
      for (const std::string& item : sb7::SplitCommaList(value)) {
        int64_t t = 0;
        if (!sb7::ParseInt64(item, t) || t < 1) {
          return fail("invalid thread count: " + item);
        }
        options.threads.push_back(static_cast<int>(t));
      }
      if (options.threads.empty()) {
        return fail("--threads requires at least one value");
      }
    } else if (arg == "--scale") {
      if (!next(options.scale) || options.scale.empty()) {
        return fail("--scale requires tiny, small or medium");
      }
    } else if (arg == "--seed") {
      if (!next(value) || !sb7::ParseUint64(value, options.seed)) {
        return fail("--seed requires an integer");
      }
      options.seed_given = true;
    } else if (arg == "--serve-factor") {
      if (!next(value) || !sb7::ParseDouble(value, options.serve_factor) ||
          options.serve_factor <= 1) {
        return fail("--serve-factor requires a number > 1");
      }
    } else if (arg == "--trace-cells") {
      options.trace_cells = true;
    } else if (arg == "--no-telemetry") {
      options.telemetry = false;
    } else if (arg == "--validate-json") {
      if (!next(options.validate_json_path) || options.validate_json_path.empty()) {
        return fail("--validate-json requires a file path");
      }
    } else if (arg == "--validate-jsonl") {
      if (!next(options.validate_jsonl_path) || options.validate_jsonl_path.empty()) {
        return fail("--validate-jsonl requires a file path");
      }
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      return fail("unknown argument: " + arg);
    }
  }
  if (options.error.empty() && !options.list && options.sweep.empty() &&
      options.compare_path.empty() && options.validate_json_path.empty() &&
      options.validate_jsonl_path.empty()) {
    return fail(
        "nothing to do: pass --sweep, --compare, --validate-json, --validate-jsonl "
        "or --list");
  }
  if (options.error.empty() && !options.against_path.empty() &&
      options.compare_path.empty()) {
    return fail("--against only applies together with --compare");
  }
  if (options.error.empty() && !options.against_path.empty() && !options.sweep.empty()) {
    return fail("--against names a pre-recorded candidate; drop --sweep or --against");
  }
  if (options.error.empty() && options.sweep.empty() && !options.compare_path.empty() &&
      options.against_path.empty()) {
    return fail("--compare without --sweep requires --against <candidate.json>");
  }
  return options;
}

// Spec < environment < flag.
void ApplyOverrides(sb7::perf::SweepSpec& spec, const Options& options) {
  const sb7::perf::BenchEnv env = sb7::perf::ReadBenchEnv();
  if (env.seconds > 0) {
    spec.seconds = env.seconds;
  }
  if (!env.scale.empty()) {
    spec.scales = {env.scale};
  }
  if (!env.threads.empty()) {
    spec.threads = env.threads;
  }
  if (options.seconds > 0) {
    spec.seconds = options.seconds;
  }
  if (options.warmup >= 0) {
    spec.warmup = options.warmup;
  }
  if (options.reps > 0) {
    spec.reps = options.reps;
  }
  if (!options.threads.empty()) {
    spec.threads = options.threads;
  }
  if (!options.scale.empty()) {
    spec.scales = {options.scale};
  }
  if (options.seed_given) {
    spec.seed = options.seed;
  }
  if (options.threshold > 0) {
    spec.threshold = options.threshold;
  }
}

// Validates that a file parses with the in-tree JSON parser (src/common/json).
// Used by CI on the emitted --trace timelines and `stmbench7 --json` run
// reports: a malformed document would otherwise only fail in its consumer.
int RunValidateJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const sb7::JsonParseResult parsed = sb7::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::cerr << "INVALID JSON in " << path << ": " << parsed.error << "\n";
    return 1;
  }
  std::cout << path << ": valid JSON ("
            << (parsed.value.is_object() ? "object" : parsed.value.is_array() ? "array"
                                                                              : "scalar")
            << " root)\n";
  return 0;
}

// Validates a --telemetry JSONL series (header/sample/footer lines, schema
// version, key sets, monotone seq/t_s). Used by the CI telemetry smoke job.
int RunValidateJsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 2;
  }
  const std::string error = sb7::telemetry::ValidateTelemetryJsonl(in);
  if (!error.empty()) {
    std::cerr << "INVALID telemetry JSONL in " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << path << ": valid telemetry series\n";
  return 0;
}

// The --serve-factor gate: every serve=wire cell must reach at least 1/f of
// the throughput of the cell that is identical except serve=inproc. The
// factor is deliberately generous in CI (loopback serving adds framing,
// syscalls and a queue hop per op; see docs/SERVING.md) — the gate exists to
// catch the wire path collapsing (a stall, a rejection storm), not to police
// a few percent.
bool CheckServeFactor(const sb7::perf::SweepResult& result, double factor) {
  std::map<std::string, double> inproc;
  for (const sb7::perf::CellResult& cell : result.cells) {
    if (cell.cell.serve == "inproc") {
      inproc[sb7::perf::CellKey(cell.cell)] = cell.throughput_median;
    }
  }
  bool any = false;
  bool ok = true;
  for (const sb7::perf::CellResult& cell : result.cells) {
    if (cell.cell.serve != "wire") {
      continue;
    }
    sb7::perf::SweepCell twin = cell.cell;
    twin.serve = "inproc";
    const auto it = inproc.find(sb7::perf::CellKey(twin));
    if (it == inproc.end()) {
      continue;  // no inproc twin in this sweep; nothing to gate against
    }
    any = true;
    const double floor = it->second / factor;
    const bool pass = cell.throughput_median >= floor;
    std::cout << "serve gate [" << sb7::perf::CellKey(twin) << "]: wire "
              << static_cast<int64_t>(cell.throughput_median) << " op/s vs inproc "
              << static_cast<int64_t>(it->second) << " op/s (floor "
              << static_cast<int64_t>(floor) << " at factor " << factor << "): "
              << (pass ? "OK" : "FAIL") << "\n";
    ok = ok && pass;
  }
  if (!any) {
    std::cerr << "warning: --serve-factor given but the sweep has no "
                 "wire/inproc cell pairs to gate\n";
  }
  return ok;
}

int RunCompareOnly(const Options& options) {
  const sb7::perf::BaselineLoadResult base =
      sb7::perf::LoadBaselineFile(options.compare_path);
  if (!base.ok()) {
    std::cerr << "error: baseline: " << base.error << "\n";
    return 2;
  }
  const sb7::perf::BaselineLoadResult candidate =
      sb7::perf::LoadBaselineFile(options.against_path);
  if (!candidate.ok()) {
    std::cerr << "error: candidate: " << candidate.error << "\n";
    return 2;
  }
  const sb7::perf::CompareReport report =
      sb7::perf::CompareSweeps(base.baseline, candidate.baseline, options.threshold);
  sb7::perf::PrintCompareReport(std::cout, report);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  if (options.help) {
    std::cout << UsageText();
    return 0;
  }
  if (!options.error.empty()) {
    std::cerr << "error: " << options.error << "\n" << UsageText();
    return 2;
  }
  if (options.list) {
    for (const std::string& name : sb7::perf::BuiltinSweepNames()) {
      std::cout << "  " << name << "\n      " << sb7::perf::BuiltinSweepDescription(name)
                << "\n";
    }
    return 0;
  }
  if (!options.validate_json_path.empty()) {
    return RunValidateJson(options.validate_json_path);
  }
  if (!options.validate_jsonl_path.empty()) {
    return RunValidateJsonl(options.validate_jsonl_path);
  }
  if (options.sweep.empty()) {
    return RunCompareOnly(options);
  }

  sb7::perf::SweepParseResult loaded = sb7::perf::LoadSweep(options.sweep);
  if (!loaded.spec.has_value()) {
    std::cerr << "error: " << loaded.error << "\n";
    return 2;
  }
  sb7::perf::SweepSpec spec = std::move(*loaded.spec);
  ApplyOverrides(spec, options);
  const std::string validation = spec.Validate();
  if (!validation.empty()) {
    std::cerr << "error: " << validation << "\n";
    return 2;
  }

  sb7::perf::SweepRunOptions run_options;
  run_options.trace_cells = options.trace_cells;
  run_options.telemetry = options.telemetry;
  if (!options.quiet) {
    run_options.log = &std::cerr;
    std::cerr << "sweep '" << spec.name << "': "
              << sb7::perf::ExpandCells(spec).size() << " cells x " << spec.reps
              << " rep(s), " << spec.warmup << "s warmup + " << spec.seconds
              << "s measure per phase\n";
  }
  const sb7::perf::SweepRunOutcome outcome = sb7::perf::RunSweep(spec, run_options);
  if (!outcome.ok()) {
    std::cerr << "SWEEP FAILED: " << outcome.error << "\n";
    return 1;
  }

  sb7::perf::PrintSweepTable(std::cout, outcome.result);

  if (!options.no_out) {
    const std::string path =
        options.out_path.empty() ? "BENCH_" + spec.name + ".json" : options.out_path;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return 2;
    }
    sb7::perf::WriteSweepJson(out, outcome.result);
    std::cerr << "artifact written to " << path << "\n";
  }

  if (options.serve_factor > 1 &&
      !CheckServeFactor(outcome.result, options.serve_factor)) {
    std::cerr << "SERVE GATE FAILED: a wire cell fell below 1/" << options.serve_factor
              << " of its inproc twin\n";
    return 1;
  }

  if (!options.compare_path.empty()) {
    const sb7::perf::BaselineLoadResult base =
        sb7::perf::LoadBaselineFile(options.compare_path);
    if (!base.ok()) {
      std::cerr << "error: baseline: " << base.error << "\n";
      return 2;
    }
    // The gate threshold is the running spec's (ApplyOverrides already
    // folded --threshold into it) — not the one recorded in the baseline
    // artifact, which may predate a spec edit.
    const sb7::perf::CompareReport report = sb7::perf::CompareSweeps(
        base.baseline, sb7::perf::BaselineFromResult(outcome.result), spec.threshold);
    sb7::perf::PrintCompareReport(std::cout, report);
    return report.ok() ? 0 : 1;
  }
  return 0;
}
