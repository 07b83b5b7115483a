#include "src/harness/cli.h"

#include "src/common/text.h"
#include "src/scenario/scenario.h"
#include "src/stm/contention.h"

namespace sb7 {

std::string UsageText() {
  return R"(usage: stmbench7 [options]
  -t <n>                 number of threads (default 1)
  -l <seconds>           benchmark length (default 10)
  -w r|rw|w              workload type (default r = read-dominated)
  -g <strategy>          coarse | medium | fine | tl2 | tinystm | norec | astm | mvstm
  --no-traversals        disable long traversals
  --no-sms               disable structure modification operations
  --ttc-histograms       print TTC (latency) histograms
  -s <scale>             tiny | small | medium (default small)
  --seed <n>             RNG seed (default 20070326)
  --index <kind>         stdmap | snapshot | skiplist (default: per strategy)
  --cm <manager>         polka | karma | aggressive | timid (astm only)
  --disable <op>         disable one operation by name (repeatable)
  --short-only           apply the paper's Figure-6 operation subset
  --max-ops <n>          stop after n started operations
  --read-ratio <f>       custom read-only share in [0,1] (overrides -w)
  --read-fraction <f>    alias for --read-ratio
  --scenario <name|file> phased scenario: steady-read | write-storm | diurnal |
                         hotspot | ramp, or a key=value spec file (see README)
  --json <file>          also write a machine-readable JSON report
  --trace <file>         trace the run and write a Chrome trace-event JSON
                         timeline (load in Perfetto / chrome://tracing)
  --trace-sample <n>     record every nth transaction's timeline events
                         (default 1 = all; attribution always sees every tx)
  --trace-buffer <n>     per-thread trace ring capacity in events (default
                         65536, rounded up to a power of two)
  --telemetry <file>     sample live telemetry during the run and write the
                         series as versioned JSONL (see docs/OBSERVABILITY.md)
  --telemetry-interval <sec>
                         sampler tick interval in seconds (default 1)
  --metrics-port <n>     serve /metrics (Prometheus text) and /series (JSON)
                         on this TCP port during the run (0 = ephemeral)
  --no-hw-counters       skip the perf_event hardware counters
  --verify               check all structure invariants after the run
  --check-opacity        record committed read/write sets and verify the
                         history is opaque (STM strategies only)
  --redo-log <file>      append a durable redo log during the run and commit
                         writers in groups (-g mvstm only; docs/DURABILITY.md)
  --durability <policy>  redo-log fsync policy: off | group | always
                         (default off; requires --redo-log)
  --crash-at <point>:<n> fault injection: wound the log and die at group n;
                         point is before-append | torn-write | after-append
                         (requires --redo-log; exits 137, like kill -9)
  --recover <file>       replay a redo log instead of running a benchmark and
                         print the recovered world's fingerprint (-g selects
                         the replay backend, default mvstm)
  --differential         run the differential cross-backend oracle instead of
                         a benchmark (uses --seed, -s, --max-ops)
  --fuzz <seed>          run the deterministic fuzz/stress driver (see also
                         the --fuzz-* flags below; -g restricts backends)
  --fuzz-cases <n>       number of fuzz cases to sweep (default 25)
  --fuzz-case <i>        reproduce one fuzz case instead of sweeping
  --fuzz-phases <names>  comma-separated phase subset for --fuzz-case
  --fuzz-threads <n>     force every phase of --fuzz-case to n threads
  --fuzz-ops <n>         started-operation cap per fuzz phase (default 150)
  --fuzz-budget <sec>    wall-clock budget for the fuzz sweep
  --help                 show this message
)";
}

CliResult ParseCommandLine(int argc, const char* const* argv) {
  CliResult result;
  BenchConfig& config = result.config;

  auto fail = [&result](std::string message) {
    result.error = std::move(message);
    return result;
  };

  bool fuzz_seed_given = false;
  bool fuzz_sweep_flag_given = false;  // --fuzz-cases / --fuzz-budget
  bool trace_knob_given = false;       // --trace-sample / --trace-buffer
  bool telemetry_knob_given = false;   // --telemetry-interval / --no-hw-counters
  bool durability_knob_given = false;  // --durability / --crash-at
  // The --fuzz-* companion flags may appear in any order relative to --fuzz.
  auto fuzz_cli = [&result]() -> FuzzCli& {
    if (!result.fuzz.has_value()) {
      result.fuzz.emplace();
    }
    return *result.fuzz;
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
      result.show_help = true;
      return result;
    }
    if (arg == "-t") {
      int64_t threads = 0;
      if (!next(value) || !ParseInt64(value, threads) || threads < 1) {
        return fail("-t requires a positive integer");
      }
      config.threads = static_cast<int>(threads);
    } else if (arg == "-l") {
      double seconds = 0;
      if (!next(value) || !ParseDouble(value, seconds) || seconds <= 0) {
        return fail("-l requires a positive number of seconds");
      }
      config.length_seconds = seconds;
    } else if (arg == "-w") {
      if (!next(value) || (value != "r" && value != "rw" && value != "w")) {
        return fail("-w requires r, rw or w");
      }
      config.workload = WorkloadTypeForName(value);
    } else if (arg == "-g") {
      if (!next(value)) {
        return fail("-g requires a strategy name");
      }
      if (value != "coarse" && value != "medium" && value != "fine" && value != "tl2" &&
          value != "tinystm" && value != "norec" && value != "astm" && value != "mvstm") {
        return fail("unknown strategy: " + value);
      }
      config.strategy = value;
      result.strategy_given = true;
    } else if (arg == "--no-traversals") {
      config.long_traversals = false;
    } else if (arg == "--no-sms") {
      config.structure_mods = false;
    } else if (arg == "--ttc-histograms") {
      config.ttc_histograms = true;
    } else if (arg == "-s") {
      if (!next(value) || (value != "tiny" && value != "small" && value != "medium")) {
        return fail("-s requires tiny, small or medium");
      }
      config.scale = value;
    } else if (arg == "--seed") {
      uint64_t seed = 0;
      if (!next(value) || !ParseUint64(value, seed)) {
        return fail("--seed requires an integer");
      }
      config.seed = seed;
    } else if (arg == "--index") {
      if (!next(value) ||
          (value != "stdmap" && value != "snapshot" && value != "skiplist")) {
        return fail("--index requires stdmap, snapshot or skiplist");
      }
      config.index_kind = IndexKindForName(value);
    } else if (arg == "--cm") {
      // Validate through the factory so the CLI can never drift from the
      // set of managers that actually construct.
      if (!next(value) || MakeContentionManager(value) == nullptr) {
        return fail("--cm requires polka, karma, aggressive or timid");
      }
      config.contention_manager = value;
    } else if (arg == "--disable") {
      if (!next(value)) {
        return fail("--disable requires an operation name");
      }
      config.disabled_ops.insert(value);
    } else if (arg == "--short-only") {
      for (const std::string& name : Figure6DisabledOps()) {
        config.disabled_ops.insert(name);
      }
      config.long_traversals = false;
    } else if (arg == "--read-ratio" || arg == "--read-fraction") {
      double fraction = 0;
      if (!next(value) || !ParseDouble(value, fraction) || fraction < 0 || fraction > 1) {
        return fail(arg + " requires a number in [0,1]");
      }
      config.read_fraction = fraction;
    } else if (arg == "--scenario") {
      if (!next(value) || value.empty()) {
        return fail("--scenario requires a built-in name (" + BuiltinScenarioList() +
                    ") or a spec-file path");
      }
      ScenarioParseResult loaded = LoadScenario(value);
      if (!loaded.scenario.has_value()) {
        return fail(loaded.error);
      }
      config.scenario = std::move(loaded.scenario);
    } else if (arg == "--json") {
      if (!next(value) || value.empty()) {
        return fail("--json requires a file path");
      }
      config.json_path = value;
    } else if (arg == "--trace") {
      if (!next(value) || value.empty()) {
        return fail("--trace requires a file path");
      }
      config.trace = true;
      config.trace_path = value;
    } else if (arg == "--trace-sample") {
      int64_t period = 0;
      if (!next(value) || !ParseInt64(value, period) || period < 1) {
        return fail("--trace-sample requires a positive integer");
      }
      config.trace_sample = static_cast<uint32_t>(period);
      trace_knob_given = true;
    } else if (arg == "--trace-buffer") {
      int64_t capacity = 0;
      if (!next(value) || !ParseInt64(value, capacity) || capacity < 1) {
        return fail("--trace-buffer requires a positive integer");
      }
      config.trace_buffer = static_cast<size_t>(capacity);
      trace_knob_given = true;
    } else if (arg == "--telemetry") {
      if (!next(value) || value.empty()) {
        return fail("--telemetry requires a file path");
      }
      config.telemetry = true;
      config.telemetry_path = value;
    } else if (arg == "--telemetry-interval") {
      double seconds = 0;
      if (!next(value) || !ParseDouble(value, seconds) || seconds <= 0) {
        return fail("--telemetry-interval requires a positive number of seconds");
      }
      config.telemetry_interval = seconds;
      telemetry_knob_given = true;
    } else if (arg == "--metrics-port") {
      int64_t port = 0;
      if (!next(value) || !ParseInt64(value, port) || port < 0 || port > 65535) {
        return fail("--metrics-port requires a port number in [0,65535]");
      }
      config.telemetry = true;
      config.metrics_port = static_cast<int>(port);
    } else if (arg == "--no-hw-counters") {
      config.telemetry_hw = false;
      telemetry_knob_given = true;
    } else if (arg == "--verify") {
      config.verify_invariants = true;
    } else if (arg == "--check-opacity") {
      config.check_opacity = true;
    } else if (arg == "--redo-log") {
      if (!next(value) || value.empty()) {
        return fail("--redo-log requires a file path");
      }
      config.redo_log_path = value;
    } else if (arg == "--durability") {
      redo::Durability durability = redo::Durability::kOff;
      if (!next(value) || !redo::ParseDurability(value, &durability)) {
        return fail("--durability requires off, group or always");
      }
      config.durability = value;
      durability_knob_given = true;
    } else if (arg == "--crash-at") {
      // <point>:<group>, e.g. torn-write:5.
      std::string::size_type colon;
      uint64_t group = 0;
      if (!next(value) || (colon = value.find(':')) == std::string::npos ||
          !redo::ParseCrashPoint(value.substr(0, colon), &config.crash_point) ||
          !ParseUint64(value.substr(colon + 1), group)) {
        return fail(
            "--crash-at requires <point>:<group> with point one of "
            "before-append, torn-write, after-append");
      }
      config.crash_at_group = group;
      durability_knob_given = true;
    } else if (arg == "--recover") {
      if (!next(value) || value.empty()) {
        return fail("--recover requires a redo-log file path");
      }
      result.recover_path = value;
    } else if (arg == "--differential") {
      result.differential = true;
    } else if (arg == "--fuzz") {
      uint64_t seed = 0;
      // Full-uint64 parsing: the shrinker prints the seed back as unsigned
      // in reproduce commands, and that round-trip must be exact.
      if (!next(value) || !ParseUint64(value, seed)) {
        return fail("--fuzz requires an integer seed");
      }
      fuzz_cli().seed = seed;
      fuzz_seed_given = true;
    } else if (arg == "--fuzz-cases") {
      int64_t cases = 0;
      if (!next(value) || !ParseInt64(value, cases) || cases < 1) {
        return fail("--fuzz-cases requires a positive integer");
      }
      fuzz_cli().cases = static_cast<int>(cases);
      fuzz_sweep_flag_given = true;
    } else if (arg == "--fuzz-case") {
      int64_t index = 0;
      if (!next(value) || !ParseInt64(value, index) || index < 0) {
        return fail("--fuzz-case requires a non-negative integer");
      }
      fuzz_cli().case_index = static_cast<int>(index);
    } else if (arg == "--fuzz-phases") {
      if (!next(value) || value.empty()) {
        return fail("--fuzz-phases requires a comma-separated phase list");
      }
      for (std::string& name : SplitCommaList(value)) {
        fuzz_cli().phases.push_back(std::move(name));
      }
      if (fuzz_cli().phases.empty()) {
        return fail("--fuzz-phases requires at least one phase name");
      }
    } else if (arg == "--fuzz-threads") {
      int64_t threads = 0;
      if (!next(value) || !ParseInt64(value, threads) || threads < 1) {
        return fail("--fuzz-threads requires a positive integer");
      }
      fuzz_cli().threads_override = static_cast<int>(threads);
    } else if (arg == "--fuzz-ops") {
      int64_t ops = 0;
      if (!next(value) || !ParseInt64(value, ops) || ops < 1) {
        return fail("--fuzz-ops requires a positive integer");
      }
      fuzz_cli().ops_per_phase = ops;
    } else if (arg == "--fuzz-budget") {
      double seconds = 0;
      if (!next(value) || !ParseDouble(value, seconds) || seconds <= 0) {
        return fail("--fuzz-budget requires a positive number of seconds");
      }
      fuzz_cli().budget_seconds = seconds;
      fuzz_sweep_flag_given = true;
    } else if (arg == "--max-ops") {
      int64_t cap = 0;
      if (!next(value) || !ParseInt64(value, cap) || cap < 0) {
        return fail("--max-ops requires a non-negative integer");
      }
      config.max_operations = cap;
    } else {
      return fail("unknown argument: " + arg);
    }
  }
  if (result.fuzz.has_value() && !fuzz_seed_given) {
    return fail("--fuzz-* flags require --fuzz <seed>");
  }
  // Mode flags that the selected mode would silently ignore are errors: a
  // flag that reads as a constraint but does nothing misleads ("bug gone").
  if (result.fuzz.has_value() && result.fuzz->case_index < 0 &&
      (!result.fuzz->phases.empty() || result.fuzz->threads_override > 0)) {
    return fail("--fuzz-phases/--fuzz-threads only apply with --fuzz-case <i>");
  }
  if (result.fuzz.has_value() && result.fuzz->case_index >= 0 && fuzz_sweep_flag_given) {
    return fail("--fuzz-cases/--fuzz-budget only apply to a sweep, not --fuzz-case");
  }
  if (result.differential && result.strategy_given) {
    return fail("--differential always compares all backends; -g is not applicable");
  }
  if (trace_knob_given && !config.trace) {
    return fail("--trace-sample/--trace-buffer only apply with --trace <file>");
  }
  if (telemetry_knob_given && !config.telemetry) {
    return fail(
        "--telemetry-interval/--no-hw-counters only apply with --telemetry <file> "
        "or --metrics-port <n>");
  }
  if (durability_knob_given && config.redo_log_path.empty()) {
    return fail("--durability/--crash-at only apply with --redo-log <file>");
  }
  if (!config.redo_log_path.empty() && config.strategy != "mvstm") {
    return fail("--redo-log requires -g mvstm (group commit is an mvstm capability)");
  }
  if (!result.recover_path.empty() && !config.redo_log_path.empty()) {
    return fail("--recover replays an existing log; it cannot be combined with --redo-log");
  }
  return result;
}

}  // namespace sb7
