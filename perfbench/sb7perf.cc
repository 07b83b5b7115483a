// sb7perf: one measured run of one benchmark workload, in its own process.
//
// Drives the library from outside through its public API and prints one
// JSON object of raw per-run numbers on stdout; perfbench/run.py starts one
// process per run, applies the correctness gates, and aggregates.
//
//   sb7perf closed --strategy tl2 --mix r --scale medium --threads 4
//                  --seconds 20 --seed 1 [--trace 1] [--setup-only 1]
//     Closed-loop in-process workers through BenchmarkRunner::Run, exactly
//     as the runner builds and runs (the structure is built on the calling
//     thread). The invariant checker runs after the run.
//
//   sb7perf serve --rate 100 --seconds 10 --seed 1 --log <file> [--trace 1]
//     The rw/small mvstm world behind OpServer and the ingress queue (2
//     executor workers), with a group-commit redo log. Open-loop Poisson
//     load from 2 in-process connections at --rate requests/s; every
//     request is timed from its scheduled arrival at nanosecond resolution.
//     After the run the log is replayed and the replayed world's
//     fingerprint must equal the live world's.
//
// --setup-only 1 stops after set-up and reports only its time. --trace 1
// installs the library's tracer and reports the benchmark's own timings of
// its calls (span.<name>.self_s).

#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/fingerprint.h"
#include "src/common/rng.h"
#include "src/common/timing.h"
#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/driver.h"
#include "src/harness/workload.h"
#include "src/mvstm/redo_log.h"
#include "src/net/ingress.h"
#include "src/net/net.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/stm/field.h"

namespace sb7perf {
namespace {

using sb7::NowNanos;

// sb7-serve's default admission bound.
constexpr size_t kIngressCapacity = 1024;
// Requests of a serve run sent before the timed window opens.
constexpr double kWarmupSeconds = 0.5;
// The serve world: the rw-small mix behind sb7-serve's default 2 executors,
// loaded from 2 client connections.
constexpr const char* kServeMix = "rw";
constexpr const char* kServeScale = "small";
constexpr int kExecutors = 2;
constexpr int kConnections = 2;

struct Args {
  std::string mode;
  std::string strategy = "mvstm";
  std::string mix = "rw";
  std::string scale = "small";
  int threads = 4;
  double seconds = 10.0;
  uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;
  // serve mode
  double rate = 100.0;
  std::string log;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  if (argc < 2) {
    *error = "usage: sb7perf closed|serve [--key value]...";
    return false;
  }
  args->mode = argv[1];
  if (args->mode != "closed" && args->mode != "serve") {
    *error = "unknown mode: " + args->mode;
    return false;
  }
  bool closed_only = false;  // a flag that only closed mode reads was given
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    closed_only = closed_only || key == "--strategy" || key == "--mix" || key == "--scale" ||
                  key == "--threads";
    try {
      if (key == "--strategy") {
        args->strategy = value;
      } else if (key == "--mix") {
        args->mix = value;
      } else if (key == "--scale") {
        args->scale = value;
      } else if (key == "--threads") {
        args->threads = std::stoi(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--trace") {
        args->trace = value == "1";
      } else if (key == "--setup-only") {
        args->setup_only = value == "1";
      } else if (key == "--rate") {
        args->rate = std::stod(value);
      } else if (key == "--log") {
        args->log = value;
      } else {
        *error = "unknown argument: " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if ((argc - 2) % 2 != 0) {
    *error = "every argument needs a value";
    return false;
  }
  if (args->threads < 1 || args->seconds <= 0 || args->rate <= 0) {
    *error = "--threads, --seconds and --rate must be positive";
    return false;
  }
  if (args->mode == "serve" && (args->log.empty() || closed_only)) {
    *error = "serve needs --log <file> and takes no --strategy, --mix, --scale or --threads";
    return false;
  }
  return true;
}

// Flat JSON object of numbers (and a few strings), printed as one line.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
    Append(key, buffer);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    Append(key, quoted + "\"");
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  void Append(const std::string& key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double SecondsSince(int64_t begin) { return static_cast<double>(NowNanos() - begin) / 1e9; }

// Exact quantile (nearest rank on the sorted sample), in the sample's unit.
double Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const double position = std::ceil(q * static_cast<double>(values.size()));
  const size_t rank = std::min(values.size() - 1, static_cast<size_t>(std::max(1.0, position)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

// Splits attempt time into committed and aborted attempts (traced runs
// only: the attempt timing callbacks fire while the tracer is installed).
class AttemptClock : public sb7::TxObserver {
 public:
  void OnTxBegin(bool) noexcept override {}
  void OnTxCommit() noexcept override {}
  void OnTxAbort(const sb7::TxAbortInfo&) noexcept override {}
  void OnTxAttemptTiming(const sb7::TxAttemptTiming& timing, bool committed) noexcept override {
    const int64_t work = timing.read_nanos + timing.validation_nanos + timing.commit_nanos;
    (committed ? committed_ : aborted_).fetch_add(work, std::memory_order_relaxed);
    backoff_.fetch_add(timing.backoff_nanos, std::memory_order_relaxed);
  }
  double WastedShare() const {
    const double aborted = static_cast<double>(aborted_.load());
    const double total =
        aborted + static_cast<double>(committed_.load()) + static_cast<double>(backoff_.load());
    return Ratio(aborted, total);
  }

 private:
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
  std::atomic<int64_t> backoff_{0};
};

// EBR state around the measured window.
struct EbrWindow {
  uint64_t epoch_begin = 0;
  uint64_t epoch_end = 0;
  int64_t pending_end = 0;
  void Begin() { epoch_begin = sb7::EbrDomain::Global().global_epoch(); }
  void End() {
    epoch_end = sb7::EbrDomain::Global().global_epoch();
    pending_end = sb7::EbrDomain::Global().PendingCount();
  }
};

// Per-layer numbers shared by both modes: STM counters, tracer latency
// decomposition and EBR.
void EmitLayers(JsonLine& out, const sb7::BenchmarkRunner& runner, const sb7::BenchResult& result,
                const EbrWindow& ebr, double window_seconds, const AttemptClock& clock) {
  const auto& ops = runner.registry().all();
  struct Category {
    const char* key;
    sb7::OpCategory category;
  };
  const Category categories[] = {
      {"ops.short_traversal.mean_us", sb7::OpCategory::kShortTraversal},
      {"ops.short_op.mean_us", sb7::OpCategory::kShortOperation},
      {"ops.struct_mod.mean_us", sb7::OpCategory::kStructureModification},
  };
  int64_t failed = 0;
  for (const Category& cat : categories) {
    int64_t nanos = 0;
    int64_t count = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->category() == cat.category) {
        nanos += result.per_op[i].histogram.sum_nanos();
        count += result.per_op[i].success;
      }
    }
    out.Num(cat.key, Ratio(static_cast<double>(nanos) / 1e3, static_cast<double>(count)));
  }
  for (const sb7::OpMetrics& m : result.per_op) {
    failed += m.failed;
  }
  const double started = static_cast<double>(result.total_started);
  out.Num("ops.failed_share", Ratio(static_cast<double>(failed), started));

  const sb7::StmStats::View& stm = result.stm;
  const double aborts = static_cast<double>(stm.aborts);
  out.Num("stm.commit_ratio", Ratio(static_cast<double>(stm.commits),
                                    static_cast<double>(stm.commits + stm.aborts)));
  out.Num("stm.reads_per_op", Ratio(static_cast<double>(stm.reads), started));
  out.Num("stm.writes_per_op", Ratio(static_cast<double>(stm.writes), started));
  out.Num("stm.validation_steps_per_op", Ratio(static_cast<double>(stm.validation_steps), started));
  out.Num("stm.abort.read_validation", Ratio(static_cast<double>(stm.aborts_read_validation), aborts));
  out.Num("stm.abort.write_lock", Ratio(static_cast<double>(stm.aborts_write_lock), aborts));
  out.Num("stm.abort.snapshot_too_old",
          Ratio(static_cast<double>(stm.aborts_snapshot_too_old), aborts));
  const bool mvstm = runner.config().strategy == "mvstm";
  out.Num("mvstm.ro_abort_ratio",
          mvstm ? Ratio(static_cast<double>(stm.ro_aborts),
                        static_cast<double>(stm.ro_commits + stm.ro_aborts))
                : 0.0);

  out.Num("ebr.epoch_advances_per_s",
          Ratio(static_cast<double>(ebr.epoch_end - ebr.epoch_begin), window_seconds));
  out.Num("ebr.pending_end", static_cast<double>(ebr.pending_end));

  if (result.traced) {
    sb7::trace::OpLatencyBreakdown total;
    for (const auto& op : result.latency_by_op) {
      total.read_nanos += op.read_nanos;
      total.validation_nanos += op.validation_nanos;
      total.commit_nanos += op.commit_nanos;
      total.backoff_nanos += op.backoff_nanos;
    }
    out.Num("stm.read_ns", Ratio(static_cast<double>(total.read_nanos), started));
    out.Num("stm.validation_ns", Ratio(static_cast<double>(total.validation_nanos), started));
    out.Num("stm.commit_ns", Ratio(static_cast<double>(total.commit_nanos), started));
    out.Num("stm.backoff_ns", Ratio(static_cast<double>(total.backoff_nanos), started));
    out.Num("stm.wasted_share", clock.WastedShare());
  }
}

// ----------------------------------------------------------------- closed --

int RunClosed(const Args& args) {
  sb7::BenchConfig config;
  config.strategy = args.strategy;
  config.scale = args.scale;
  config.workload = sb7::WorkloadTypeForName(args.mix);
  config.threads = args.threads;
  config.length_seconds = args.seconds;
  config.long_traversals = false;
  config.seed = args.seed;
  config.trace = args.trace;

  const int64_t build_begin = NowNanos();
  auto runner = std::make_unique<sb7::BenchmarkRunner>(config);
  const double setup_s = SecondsSince(build_begin);
  JsonLine out;
  out.Num("setup_s", setup_s);
  if (args.setup_only) {
    out.Print();
    std::_Exit(0);  // the teardown of the structure is not part of set-up
  }

  AttemptClock clock;
  if (args.trace) {
    sb7::InstallTxObserver(&clock);
  }
  EbrWindow ebr;
  ebr.Begin();
  const int64_t run_begin = NowNanos();
  const sb7::BenchResult result = runner->Run();
  const double run_s = SecondsSince(run_begin);
  ebr.End();
  if (args.trace) {
    sb7::RemoveTxObserver(&clock);
  }
  const int64_t check_begin = NowNanos();
  const sb7::InvariantReport report = sb7::CheckInvariants(runner->data());
  const double check_s = SecondsSince(check_begin);

  out.Num("ops_per_s", result.SuccessThroughput());
  out.Num("attempted", static_cast<double>(result.total_started));
  out.Num("correct", report.violations.empty() ? 1 : 0);
  if (!report.violations.empty()) {
    out.Str("error", report.violations.front());
  }
  out.Num("core.build_s", setup_s);
  EmitLayers(out, *runner, result, ebr, result.elapsed_seconds, clock);
  if (args.trace) {
    out.Num("span.build.self_s", setup_s);
    out.Num("span.run.self_s", run_s);
    out.Num("span.check.self_s", check_s);
  }
  out.Num("peak_rss_mb", PeakRssMb());
  out.Print();
  std::_Exit(0);
}

// ------------------------------------------------------------------ serve --

// One request as the client saw it.
struct Request {
  int64_t scheduled = 0;  // arrival time the Poisson schedule gave it
  int64_t sent = 0;
  int64_t answered = 0;   // 0 = no response
  uint32_t server_nanos = 0;
  sb7::net::Status status = sb7::net::Status::kOk;
};

struct Connection {
  std::vector<Request> requests;  // request_id - 1 indexes this
  std::vector<uint16_t> ops;
  std::string error;
};

// Poisson arrivals with a fixed count: `count` uniform points in
// [start, start + span) in order, which is a Poisson process conditioned on
// its number of arrivals. Fixing the count keeps the offered load exact, so
// the measured throughput does not carry the count's sampling noise.
std::vector<int64_t> PoissonSchedule(sb7::Rng& rng, size_t count, int64_t start, int64_t span) {
  std::vector<int64_t> times(count);
  for (int64_t& t : times) {
    t = start + static_cast<int64_t>(rng.NextDouble() * static_cast<double>(span));
  }
  std::sort(times.begin(), times.end());
  return times;
}

bool ReadResponses(int fd, std::string* inbuf, Connection& conn, int64_t now,
                   size_t* outstanding) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = sb7::net::ReadSome(fd, buffer, sizeof(buffer));
    if (n > 0) {
      inbuf->append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    conn.error = "connection closed by the server";
    return false;
  }
  std::string payload;
  for (;;) {
    const sb7::net::FrameStatus status = sb7::net::TryExtractFrame(inbuf, &payload);
    if (status == sb7::net::FrameStatus::kNeedMore) {
      return true;
    }
    sb7::net::OpResponse response;
    if (status == sb7::net::FrameStatus::kTooLarge ||
        !sb7::net::DecodeResponse(payload, &response) || response.request_id == 0 ||
        response.request_id > conn.requests.size()) {
      conn.error = "malformed response";
      return false;
    }
    Request& request = conn.requests[response.request_id - 1];
    if (request.answered != 0) {
      conn.error = "duplicate response";
      return false;
    }
    request.answered = now;
    request.status = response.status;
    request.server_nanos = response.server_nanos;
    --*outstanding;
  }
}

// Sends the connection's schedule open loop, then waits up to
// `drain_deadline` for the outstanding responses.
void DriveConnection(int port, const std::vector<int64_t>& schedule, Connection& conn,
                     int64_t drain_deadline) {
  sb7::net::ConnectResult connected = sb7::net::ConnectTcp("127.0.0.1", port);
  if (!connected.ok()) {
    conn.error = connected.error;
    return;
  }
  const int fd = connected.fd.get();
  std::string frame;
  sb7::net::AppendFrame(&frame, sb7::net::EncodeHello(sb7::net::Hello{}));
  unsigned char header[4];
  std::string payload;
  sb7::net::HelloAck ack;
  bool handshake = sb7::net::WriteAll(fd, frame, 5000) &&
                   sb7::net::ReadFull(fd, header, sizeof(header), 5000);
  if (handshake) {
    const uint32_t length = header[0] | (header[1] << 8) | (header[2] << 16) |
                            (static_cast<uint32_t>(header[3]) << 24);
    payload.resize(std::min<uint32_t>(length, sb7::net::kMaxFrameBytes));
    handshake = length <= sb7::net::kMaxFrameBytes &&
                sb7::net::ReadFull(fd, payload.data(), payload.size(), 5000) &&
                sb7::net::DecodeHelloAck(payload, &ack);
  }
  if (!handshake || !sb7::net::SetNonBlocking(fd)) {
    conn.error = "handshake failed";
    return;
  }

  conn.requests.resize(schedule.size());
  size_t next = 0;
  size_t outstanding = 0;
  std::string inbuf;
  for (;;) {
    int64_t now = NowNanos();
    if (next < schedule.size() && now >= schedule[next]) {
      Request& request = conn.requests[next];
      request.scheduled = schedule[next];
      request.sent = now;
      sb7::net::OpRequest wire;
      wire.request_id = next + 1;
      wire.op_index = conn.ops[next];
      frame.clear();
      sb7::net::AppendFrame(&frame, sb7::net::EncodeRequest(wire));
      if (!sb7::net::WriteAll(fd, frame, 5000)) {
        conn.error = "request write failed";
        return;
      }
      ++next;
      ++outstanding;
      continue;
    }
    if (next == schedule.size() && (outstanding == 0 || now >= drain_deadline)) {
      return;  // whatever is still outstanding counts as lost
    }
    const int64_t wake = next < schedule.size() ? schedule[next] : drain_deadline;
    const int64_t wait = std::max<int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      conn.error = "poll failed";
      return;
    }
    if (ready > 0 && !ReadResponses(fd, &inbuf, conn, NowNanos(), &outstanding)) {
      return;
    }
  }
}

// Length of the union of the [begin, end) intervals, clipped to [lo, hi).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [begin, end] : intervals) {
    const int64_t from = std::max(begin, cursor);
    const int64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      cursor = to;
    }
  }
  return covered;
}

int RunServe(const Args& args) {
  sb7::net::IngressQueue queue(kIngressCapacity);
  sb7::BenchConfig config;
  config.strategy = "mvstm";
  config.scale = kServeScale;
  config.workload = sb7::WorkloadTypeForName(kServeMix);
  config.threads = kExecutors;
  config.long_traversals = false;
  config.seed = args.seed;
  config.trace = args.trace;
  config.ingress = &queue;
  config.redo_log_path = args.log;
  config.durability = "group";
  // Clients stop offering load after --seconds and wait at most this long
  // for their answers; the runner's own deadline lies beyond both, so the
  // run ends when the queue is closed and drained.
  const double drain_seconds = 10.0;
  config.length_seconds = args.seconds + drain_seconds + 30.0;
  sb7::net::OpServer* server_ptr = nullptr;
  config.on_ingress_complete = [&server_ptr](const sb7::net::IngressRequest& request,
                                             sb7::net::Status status, int64_t nanos) {
    server_ptr->Complete(request, status, nanos);
  };

  const int64_t setup_begin = NowNanos();
  auto runner = std::make_unique<sb7::BenchmarkRunner>(config);
  const double build_s = SecondsSince(setup_begin);
  const size_t op_count = runner->registry().all().size();
  sb7::net::OpServer server(sb7::net::ServerOptions{}, &queue, static_cast<uint16_t>(op_count));
  server_ptr = &server;
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "sb7perf: cannot listen: %s\n", error.c_str());
    return 1;
  }
  const double setup_s = SecondsSince(setup_begin);
  JsonLine out;
  out.Num("setup_s", setup_s);
  if (args.setup_only) {
    server.Stop();
    ::unlink(args.log.c_str());
    out.Print();
    std::_Exit(0);
  }

  // Inputs: per-connection arrival schedules and operation draws, all from
  // the seed. The mix is the in-process rw-small mix.
  const std::vector<double> ratios = sb7::ComputeOperationRatios(
      runner->registry(), sb7::ReadOnlyFraction(config.workload),
      /*long_traversals_enabled=*/false, /*structure_mods_enabled=*/true, {});
  // The schedule opens with a warm-up (requests sent and checked, but not
  // timed): the first fsyncs of a fresh log are a once-per-start cost.
  const size_t warm_count = static_cast<size_t>(std::llround(args.rate * kWarmupSeconds));
  const size_t timed_count = static_cast<size_t>(std::llround(args.rate * args.seconds));
  const int64_t start = NowNanos() + 20'000'000;  // connections open first
  const int64_t measure_begin = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t offer_end = measure_begin + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t tail_begin = offer_end - static_cast<int64_t>(args.seconds * 0.25e9);
  const int64_t drain_deadline = offer_end + static_cast<int64_t>(drain_seconds * 1e9);
  sb7::Rng seeder(args.seed ^ 0x5e7e5eedull);
  std::vector<Connection> conns(kConnections);
  std::vector<std::vector<int64_t>> schedules(kConnections);
  const auto share = [](size_t count, int c) {
    return count / kConnections + (static_cast<size_t>(c) < count % kConnections);
  };
  for (int c = 0; c < kConnections; ++c) {
    sb7::Rng rng = seeder.Split();
    schedules[c] = PoissonSchedule(rng, share(warm_count, c), start, measure_begin - start);
    const std::vector<int64_t> timed =
        PoissonSchedule(rng, share(timed_count, c), measure_begin, offer_end - measure_begin);
    schedules[c].insert(schedules[c].end(), timed.begin(), timed.end());
    for (size_t i = 0; i < schedules[c].size(); ++i) {
      conns[c].ops.push_back(static_cast<uint16_t>(sb7::SampleOperation(ratios, rng)));
    }
  }

  // Shutdown order: each client stops offering at the end of the window and
  // waits for its answers; the last one to finish closes the ingress queue,
  // which ends the run once the workers drained it.
  AttemptClock clock;
  if (args.trace) {
    sb7::InstallTxObserver(&clock);
  }
  EbrWindow ebr;
  ebr.Begin();
  const int64_t run_begin = NowNanos();
  std::atomic<int> running{kConnections};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c]() {
      DriveConnection(server.port(), schedules[c], conns[c], drain_deadline);
      if (running.fetch_sub(1) == 1) {
        queue.Close();
      }
    });
  }
  sb7::BenchResult result = runner->Run();
  for (std::thread& client : clients) {
    client.join();
  }
  const int64_t run_end = NowNanos();
  ebr.End();
  if (args.trace) {
    sb7::RemoveTxObserver(&clock);
  }
  server.Stop();

  // Correctness gate: the log replays to the live world.
  const uint64_t live = sb7::DeepFingerprint(runner->data());
  const int64_t replay_begin = NowNanos();
  const sb7::redo::ReplayResult replay = sb7::redo::RecoverFromLog(args.log, "mvstm");
  const double replay_s = SecondsSince(replay_begin);
  ::unlink(args.log.c_str());
  std::string failure;
  if (!replay.ok) {
    failure = "replay failed: " + replay.error;
  } else if (!replay.summary.clean_close) {
    failure = "log has no clean close record";
  } else if (replay.fingerprint != live) {
    failure = "replayed world differs from the live world";
  }

  // Every request counts for errors; only those scheduled after the
  // warm-up are timed. Sojourn runs from the scheduled arrival. Goodput
  // counts every successful answer that arrived inside the window, up to
  // the last of them.
  int64_t rejected = 0, bad = 0, lost = 0;
  int64_t answered_in_window = 0;
  int64_t last_in_window = measure_begin;
  std::vector<int64_t> sojourn, tail, exec, overhead, late;
  std::vector<std::pair<int64_t, int64_t>> in_flight;  // [sent, answered)
  int64_t request_nanos = 0;
  for (const Connection& conn : conns) {
    if (!conn.error.empty() && failure.empty()) {
      failure = "client: " + conn.error;
    }
    for (const Request& r : conn.requests) {
      if (r.answered == 0) {
        ++lost;
        continue;
      }
      in_flight.emplace_back(r.sent, r.answered);
      request_nanos += r.answered - r.sent;
      // kOpFailed is a committed outcome of the operation, not an error.
      if (r.status == sb7::net::Status::kRejected) {
        ++rejected;
        continue;
      }
      if (r.status == sb7::net::Status::kBadRequest) {
        ++bad;
        continue;
      }
      if (r.answered >= measure_begin && r.answered < offer_end) {
        ++answered_in_window;
        last_in_window = std::max(last_in_window, r.answered);
      }
      if (r.scheduled < measure_begin) {
        continue;
      }
      late.push_back(r.sent - r.scheduled);
      sojourn.push_back(r.answered - r.scheduled);
      if (r.scheduled >= tail_begin) {
        tail.push_back(sojourn.back());
      }
      exec.push_back(r.server_nanos);
      overhead.push_back(sojourn.back() - static_cast<int64_t>(r.server_nanos));
    }
  }
  const double window_s = static_cast<double>(run_end - run_begin) / 1e9;
  const sb7::redo::WriterStats& redo = runner->redo_writer()->stats();

  out.Num("rate", args.rate);
  out.Num("attempted", static_cast<double>(warm_count + timed_count));
  out.Num("net.rejected", static_cast<double>(rejected));
  out.Num("net.bad", static_cast<double>(bad));
  out.Num("net.lost", static_cast<double>(lost));
  out.Num("correct", failure.empty() ? 1 : 0);
  if (!failure.empty()) {
    out.Str("error", failure);
  }
  out.Num("samples", static_cast<double>(sojourn.size()));
  out.Num("goodput_per_s", Ratio(static_cast<double>(answered_in_window),
                                 static_cast<double>(last_in_window - measure_begin) / 1e9));
  out.Num("p50_ms", Quantile(sojourn, 0.50) / 1e6);
  out.Num("p99_ms", Quantile(sojourn, 0.99) / 1e6);
  // The last quarter of the window on its own: a growing backlog moves its
  // median, which a short disk stall does not.
  out.Num("tail_p50_ms", Quantile(tail, 0.50) / 1e6);
  out.Num("net.exec_p50_us", Quantile(exec, 0.50) / 1e3);
  out.Num("net.exec_p99_us", Quantile(exec, 0.99) / 1e3);
  out.Num("net.overhead_p50_us", Quantile(overhead, 0.50) / 1e3);
  out.Num("net.gen_late_p99_ms", Quantile(late, 0.99) / 1e6);
  out.Num("core.build_s", build_s);
  out.Num("redo.members_per_group",
          Ratio(static_cast<double>(redo.members), static_cast<double>(redo.groups)));
  out.Num("redo.fsyncs_per_s", Ratio(static_cast<double>(redo.fsyncs), window_s));
  out.Num("redo.bytes_per_commit",
          Ratio(static_cast<double>(redo.bytes), static_cast<double>(redo.members)));
  out.Num("redo.replay_us_per_group", Ratio(replay_s * 1e6, static_cast<double>(redo.groups)));
  EmitLayers(out, *runner, result, ebr, window_s, clock);
  if (args.trace) {
    // The run's self time is the part of it when no request was in flight.
    out.Num("span.build.self_s", build_s);
    out.Num("span.run.self_s",
            static_cast<double>(run_end - run_begin -
                                CoveredNanos(std::move(in_flight), run_begin, run_end)) / 1e9);
    out.Num("span.request.self_s", static_cast<double>(request_nanos) / 1e9);
    out.Num("span.replay.self_s", replay_s);
  }
  out.Num("peak_rss_mb", PeakRssMb());
  out.Print();
  std::_Exit(0);
}

}  // namespace
}  // namespace sb7perf

int main(int argc, char** argv) {
  sb7perf::Args args;
  std::string error;
  if (!sb7perf::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "sb7perf: %s\n", error.c_str());
    return 2;
  }
  try {
    return args.mode == "closed" ? sb7perf::RunClosed(args) : sb7perf::RunServe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb7perf: escaped exception: %s\n", e.what());
    return 1;
  }
}
