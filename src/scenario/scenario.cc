#include "src/scenario/scenario.h"

#include <fstream>
#include <sstream>

#include "src/common/text.h"

namespace sb7 {
namespace {

bool ParseOnOff(const std::string& text, bool& out) {
  if (text == "on" || text == "true" || text == "1") {
    out = true;
    return true;
  }
  if (text == "off" || text == "false" || text == "0") {
    out = false;
    return true;
  }
  return false;
}

std::string Trim(const std::string& text) {
  const size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

PhaseSpec MakePhase(std::string name, double weight) {
  PhaseSpec phase;
  phase.name = std::move(name);
  phase.duration_weight = weight;
  return phase;
}

// Validates a completed scenario; returns an error message or "".
std::string Validate(const Scenario& scenario) {
  if (scenario.phases.empty()) {
    return "scenario '" + scenario.name + "' has no phases";
  }
  for (const PhaseSpec& phase : scenario.phases) {
    const std::string where = "phase '" + phase.name + "': ";
    if (phase.duration_weight <= 0.0) {
      return where + "duration weight must be positive";
    }
    if (phase.read_fraction.has_value() &&
        (*phase.read_fraction < 0.0 || *phase.read_fraction > 1.0)) {
      return where + "read_fraction must lie in [0,1]";
    }
    if (phase.threads.has_value() && *phase.threads < 1) {
      return where + "threads must be positive";
    }
    if (phase.arrival != ArrivalModel::kClosed && phase.rate_ops_per_sec <= 0.0) {
      return where + "open-loop arrival needs rate > 0";
    }
    if (phase.burst_size < 1) {
      return where + "burst size must be positive";
    }
    if (phase.zipf_theta < 0.0 || phase.zipf_theta >= 1.0) {
      return where + "zipf theta must lie in [0,1)";
    }
    if (phase.hot_fraction <= 0.0 || phase.hot_fraction > 1.0) {
      return where + "hot_fraction must lie in (0,1]";
    }
  }
  return "";
}

}  // namespace

std::string_view ArrivalModelName(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kClosed:
      return "closed";
    case ArrivalModel::kPoisson:
      return "poisson";
    case ArrivalModel::kBursty:
      return "bursty";
  }
  return "closed";
}

double Scenario::TotalWeight() const {
  double total = 0.0;
  for (const PhaseSpec& phase : phases) {
    total += phase.duration_weight;
  }
  return total;
}

namespace {

std::vector<PhaseSpec> MakeSteadyRead() {
  // Mixed warm-up, then a long read-heavy steady state — the paper's
  // read-dominated workload with an explicit cache/snapshot warm-up.
  PhaseSpec warmup = MakePhase("warmup", 1.0);
  warmup.read_fraction = 0.6;
  PhaseSpec steady = MakePhase("steady", 4.0);
  steady.read_fraction = 0.9;
  return {warmup, steady};
}

std::vector<PhaseSpec> MakeWriteStorm() {
  // Read-heavy steady state interrupted by a write storm concentrated on a
  // hot set, then recovery; stresses speculative read optimizations.
  PhaseSpec steady = MakePhase("steady", 2.0);
  steady.read_fraction = 0.9;
  PhaseSpec storm = MakePhase("storm", 1.0);
  storm.read_fraction = 0.1;
  storm.zipf_theta = 0.8;
  PhaseSpec recover = MakePhase("recover", 1.0);
  recover.read_fraction = 0.9;
  return {steady, storm, recover};
}

std::vector<PhaseSpec> MakeDiurnal() {
  // A day of traffic: open-loop Poisson arrivals whose rate follows the
  // sun, with the mix turning writier in the evening.
  PhaseSpec morning = MakePhase("morning", 1.0);
  morning.read_fraction = 0.9;
  morning.arrival = ArrivalModel::kPoisson;
  morning.rate_ops_per_sec = 1000.0;
  PhaseSpec midday = MakePhase("midday", 1.0);
  midday.read_fraction = 0.6;
  midday.arrival = ArrivalModel::kPoisson;
  midday.rate_ops_per_sec = 4000.0;
  PhaseSpec evening = MakePhase("evening", 1.0);
  evening.read_fraction = 0.3;
  evening.arrival = ArrivalModel::kBursty;
  evening.rate_ops_per_sec = 2000.0;
  evening.burst_size = 64;
  PhaseSpec night = MakePhase("night", 1.0);
  night.read_fraction = 0.9;
  night.arrival = ArrivalModel::kPoisson;
  night.rate_ops_per_sec = 200.0;
  return {morning, midday, evening, night};
}

std::vector<PhaseSpec> MakeHotspot() {
  // Uniform baseline, then the same mix with a strong Zipfian hotspot —
  // the contrast isolates the cost of contention concentration.
  PhaseSpec uniform = MakePhase("uniform", 1.0);
  uniform.read_fraction = 0.6;
  PhaseSpec hot = MakePhase("hot", 2.0);
  hot.read_fraction = 0.6;
  hot.zipf_theta = 0.99;
  hot.hot_fraction = 0.1;
  return {uniform, hot};
}

std::vector<PhaseSpec> MakeRamp() {
  // Thread-count ramp 1 -> 2 -> 4 -> 8 under the read-write mix; the
  // scalability figure as one phased run.
  std::vector<PhaseSpec> phases;
  for (int threads : {1, 2, 4, 8}) {
    PhaseSpec phase = MakePhase("t" + std::to_string(threads), 1.0);
    phase.read_fraction = 0.6;
    phase.threads = threads;
    phases.push_back(phase);
  }
  return phases;
}

// The single source of truth: names, help text, the error message, the
// sweep bench and lookup all derive from this table.
struct BuiltinEntry {
  const char* name;
  std::vector<PhaseSpec> (*make)();
};

constexpr BuiltinEntry kBuiltins[] = {
    {"steady-read", MakeSteadyRead}, {"write-storm", MakeWriteStorm},
    {"diurnal", MakeDiurnal},        {"hotspot", MakeHotspot},
    {"ramp", MakeRamp},
};

}  // namespace

const std::vector<std::string>& BuiltinScenarioNames() {
  static const std::vector<std::string>* names = []() {
    auto* out = new std::vector<std::string>;
    for (const BuiltinEntry& entry : kBuiltins) {
      out->push_back(entry.name);
    }
    return out;
  }();
  return *names;
}

std::string BuiltinScenarioList() {
  std::string out;
  for (const std::string& name : BuiltinScenarioNames()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

std::optional<Scenario> FindBuiltinScenario(std::string_view name) {
  for (const BuiltinEntry& entry : kBuiltins) {
    if (name == entry.name) {
      Scenario scenario;
      scenario.name = std::string(name);
      scenario.phases = entry.make();
      return scenario;
    }
  }
  return std::nullopt;
}

ScenarioParseResult ParseScenarioSpec(std::istream& in, std::string_view default_name) {
  ScenarioParseResult result;
  Scenario scenario;
  scenario.name = std::string(default_name);

  auto fail = [&result](int line_number, const std::string& message) {
    result.scenario.reset();
    result.error = "scenario spec line " + std::to_string(line_number) + ": " + message;
    return result;
  };

  std::string line;
  int line_number = 0;
  bool in_phase = false;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_number, "expected key=value, got '" + line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (value.empty()) {
      return fail(line_number, "empty value for '" + key + "'");
    }

    if (key == "phase") {
      // Phase names are bare labels (text report, telemetry series); keep
      // them free of ',' and '"' so every reader can take one as a token.
      if (value.find_first_of(",\"") != std::string::npos) {
        return fail(line_number, "phase name must not contain ',' or '\"'");
      }
      scenario.phases.push_back(MakePhase(value, 1.0));
      in_phase = true;
      continue;
    }
    if (!in_phase) {
      if (key == "name") {
        scenario.name = value;
        continue;
      }
      return fail(line_number, "'" + key + "' before the first phase= line");
    }

    PhaseSpec& phase = scenario.phases.back();
    int64_t int_value = 0;
    double float_value = 0.0;
    bool bool_value = false;
    if (key == "duration") {
      if (!ParseDouble(value, float_value) || float_value <= 0.0) {
        return fail(line_number, "duration must be a positive weight");
      }
      phase.duration_weight = float_value;
    } else if (key == "workload") {
      if (value != "r" && value != "rw" && value != "w") {
        return fail(line_number, "workload must be r, rw or w");
      }
      phase.read_fraction = ReadOnlyFraction(WorkloadTypeForName(value));
    } else if (key == "read_fraction") {
      if (!ParseDouble(value, float_value) || float_value < 0.0 || float_value > 1.0) {
        return fail(line_number, "read_fraction must lie in [0,1]");
      }
      phase.read_fraction = float_value;
    } else if (key == "traversals") {
      if (!ParseOnOff(value, bool_value)) {
        return fail(line_number, "traversals must be on or off");
      }
      phase.long_traversals = bool_value;
    } else if (key == "sms") {
      if (!ParseOnOff(value, bool_value)) {
        return fail(line_number, "sms must be on or off");
      }
      phase.structure_mods = bool_value;
    } else if (key == "disable") {
      std::istringstream ops(value);
      std::string op;
      while (std::getline(ops, op, ',')) {
        op = Trim(op);
        if (!op.empty()) {
          phase.disabled_ops.insert(op);
        }
      }
    } else if (key == "threads") {
      if (!ParseInt64(value, int_value) || int_value < 1) {
        return fail(line_number, "threads must be a positive integer");
      }
      phase.threads = static_cast<int>(int_value);
    } else if (key == "arrival") {
      if (value == "closed") {
        phase.arrival = ArrivalModel::kClosed;
      } else if (value == "poisson") {
        phase.arrival = ArrivalModel::kPoisson;
      } else if (value == "bursty") {
        phase.arrival = ArrivalModel::kBursty;
      } else {
        return fail(line_number, "arrival must be closed, poisson or bursty");
      }
    } else if (key == "rate") {
      if (!ParseDouble(value, float_value) || float_value <= 0.0) {
        return fail(line_number, "rate must be positive");
      }
      phase.rate_ops_per_sec = float_value;
    } else if (key == "burst") {
      if (!ParseInt64(value, int_value) || int_value < 1) {
        return fail(line_number, "burst must be a positive integer");
      }
      phase.burst_size = static_cast<int>(int_value);
    } else if (key == "zipf") {
      if (!ParseDouble(value, float_value) || float_value < 0.0 || float_value >= 1.0) {
        return fail(line_number, "zipf must lie in [0,1)");
      }
      phase.zipf_theta = float_value;
    } else if (key == "hot_fraction") {
      if (!ParseDouble(value, float_value) || float_value <= 0.0 || float_value > 1.0) {
        return fail(line_number, "hot_fraction must lie in (0,1]");
      }
      phase.hot_fraction = float_value;
    } else if (key == "max_ops") {
      if (!ParseInt64(value, int_value) || int_value < 0) {
        return fail(line_number, "max_ops must be a non-negative integer");
      }
      phase.max_ops = int_value;
    } else {
      return fail(line_number, "unknown key '" + key + "'");
    }
  }

  const std::string error = Validate(scenario);
  if (!error.empty()) {
    result.error = error;
    return result;
  }
  result.scenario = std::move(scenario);
  return result;
}

Scenario ComposeRandomScenario(Rng& rng, const std::vector<std::string>& op_names,
                               int max_phases, int64_t ops_per_phase, int max_threads) {
  Scenario scenario;
  scenario.name = "fuzz";
  const int phase_count = 1 + static_cast<int>(rng.NextBounded(
                                  static_cast<uint64_t>(max_phases < 1 ? 1 : max_phases)));
  for (int p = 0; p < phase_count; ++p) {
    PhaseSpec phase = MakePhase("p" + std::to_string(p), 1.0);
    phase.read_fraction = rng.NextDouble();
    phase.long_traversals = rng.NextBool(0.5);
    phase.structure_mods = rng.NextBool(0.7);
    phase.threads = 1 + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(max_threads < 1 ? 1 : max_threads)));
    if (rng.NextBool(0.4)) {
      phase.zipf_theta = 0.6 + 0.39 * rng.NextDouble();
      phase.hot_fraction = 0.05 + 0.2 * rng.NextDouble();
    }
    const uint64_t blacklisted = rng.NextBounded(4);  // 0..3 disabled ops
    for (uint64_t b = 0; b < blacklisted && !op_names.empty(); ++b) {
      phase.disabled_ops.insert(op_names[rng.NextBounded(op_names.size())]);
    }
    phase.max_ops = ops_per_phase;
    scenario.phases.push_back(std::move(phase));
  }
  return scenario;
}

ScenarioParseResult LoadScenario(const std::string& name_or_path) {
  if (std::optional<Scenario> builtin = FindBuiltinScenario(name_or_path)) {
    return ScenarioParseResult{std::move(builtin), ""};
  }
  std::ifstream file(name_or_path);
  if (!file) {
    ScenarioParseResult result;
    result.error = "unknown scenario '" + name_or_path +
                   "' (built-ins: " + BuiltinScenarioList() +
                   "; otherwise pass a readable spec-file path)";
    return result;
  }
  // Default the scenario name to the file's basename.
  const size_t slash = name_or_path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? name_or_path : name_or_path.substr(slash + 1);
  return ParseScenarioSpec(file, base);
}

}  // namespace sb7
