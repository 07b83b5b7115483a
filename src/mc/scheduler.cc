#include "src/mc/scheduler.h"

#ifdef SB7_MC

#include <sstream>
#include <unordered_map>

#include "src/common/diag.h"

namespace sb7::mc {
namespace {

// Which scheduler (if any) owns the calling thread. Set for virtual threads
// for the duration of their body; every other thread passes through sync
// points, which is what keeps setup code and ordinary tests unscheduled.
thread_local McScheduler* tls_scheduler = nullptr;

// Address tag registry for human-readable traces. Guarded by its own mutex:
// tags are registered from litmus setup (control thread) and read when
// formatting violations, never on the hot path of an execution.
std::mutex g_tag_mutex;
std::unordered_map<const void*, std::string>& TagMap() {
  static auto* map = new std::unordered_map<const void*, std::string>();
  return *map;
}

}  // namespace

void TagAddress(const void* addr, std::string name) {
  std::lock_guard<std::mutex> lock(g_tag_mutex);
  TagMap()[addr] = std::move(name);
}

std::string AddressTag(const void* addr) {
  if (addr == nullptr) {
    return "-";
  }
  {
    std::lock_guard<std::mutex> lock(g_tag_mutex);
    auto it = TagMap().find(addr);
    if (it != TagMap().end()) {
      return it->second;
    }
  }
  std::ostringstream out;
  out << addr;
  return out.str();
}

void ClearAddressTags() {
  std::lock_guard<std::mutex> lock(g_tag_mutex);
  TagMap().clear();
}

void ModelFree(const void* addr) { sp::SyncPoint(addr, sp::OpKind::kFree); }

void ModelAlloc(const void* addr) {
  if (tls_scheduler != nullptr) {
    tls_scheduler->ModelAllocAddr(addr);
  }
}

void ModelRead(const void* addr) {
  if (tls_scheduler != nullptr) {
    tls_scheduler->ModelReadAddr(addr);
  }
}

McScheduler::McScheduler(std::vector<std::function<void()>> bodies)
    : bodies_(std::move(bodies)), cells_(bodies_.size()) {}

McScheduler::~McScheduler() {
  // Finish() must have joined everything; a scheduler destroyed with live
  // threads would leave them parked forever.
  SB7_CHECK(threads_.empty() && "McScheduler destroyed without Finish()");
}

void McScheduler::RunThread(int tid) {
  tls_scheduler = this;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cells_[tid].started = true;
  }
  bodies_[tid]();
  tls_scheduler = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cells_[tid].finished = true;
  }
  cv_.notify_all();
}

void McScheduler::AtSyncPoint(const void* addr, sp::OpKind kind) {
  // Figure out which virtual thread this is: linear scan is fine, N is tiny.
  std::unique_lock<std::mutex> lock(mutex_);
  int tid = -1;
  for (size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i].get_id() == std::this_thread::get_id()) {
      tid = static_cast<int>(i);
      break;
    }
  }
  SB7_CHECK(tid >= 0 && "sync point from a thread the scheduler never spawned");
  ThreadCell& cell = cells_[tid];
  cell.pending = PendingOp{addr, kind};
  cell.parked = true;
  cell.granted = false;
  cv_.notify_all();
  cv_.wait(lock, [&] { return cell.granted; });
  cell.granted = false;
  cell.parked = false;
  // The published operation executes right after SyncPoint returns, before
  // any other thread is granted a step — the grantor waits for this thread
  // to park again (or finish) before choosing the next step.
}

bool McScheduler::QuiescentLocked() const {
  for (const ThreadCell& cell : cells_) {
    // A granted cell still reads parked=true until the thread wakes and
    // clears both flags; counting it as quiescent would let Step() return
    // before the granted operation ran. Quiescent = finished, or parked
    // with no grant outstanding.
    if (!cell.finished && !(cell.started && cell.parked && !cell.granted)) {
      return false;
    }
  }
  return true;
}

void McScheduler::Start() {
  threads_.reserve(bodies_.size());
  {
    // Hold the lock across the spawn loop: a thread that races to its first
    // sync point must find its own entry in threads_ when it scans for its
    // tid, so the ids are stable before anyone can look.
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t i = 0; i < bodies_.size(); ++i) {
      threads_.emplace_back(&McScheduler::RunThread, this, static_cast<int>(i));
    }
    cv_.wait(lock, [&] { return QuiescentLocked(); });
  }
}

std::vector<int> McScheduler::EnabledThreads() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> enabled;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!cells_[i].finished && cells_[i].parked) {
      enabled.push_back(static_cast<int>(i));
    }
  }
  return enabled;
}

PendingOp McScheduler::PendingOf(int tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_[tid].pending;
}

bool McScheduler::AllDone() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ThreadCell& cell : cells_) {
    if (!cell.finished) {
      return false;
    }
  }
  return true;
}

ScheduleStep McScheduler::Step(int tid) {
  std::unique_lock<std::mutex> lock(mutex_);
  ThreadCell& cell = cells_[tid];
  SB7_CHECK(cell.parked && !cell.finished && "granting a step to a non-enabled thread");
  const ScheduleStep step{tid, cell.pending};
  // Model heap bookkeeping happens at grant time: the operation is now
  // certain to execute, in this position of the schedule.
  if (step.op.kind == sp::OpKind::kFree) {
    freed_.insert(step.op.addr);
  } else if (step.op.addr != nullptr && step.op.kind != sp::OpKind::kYield &&
             freed_.count(step.op.addr) != 0) {
    std::ostringstream detail;
    detail << "thread " << tid << " " << sp::OpKindName(step.op.kind) << " on freed "
           << AddressTag(step.op.addr);
    RecordViolation(Violation{Violation::Kind::kUseAfterFree, detail.str()});
  }
  cell.granted = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return QuiescentLocked(); });
  return step;
}

Violation McScheduler::CheckRaceAtState() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].finished || !cells_[i].parked) {
      continue;
    }
    for (size_t j = i + 1; j < cells_.size(); ++j) {
      if (cells_[j].finished || !cells_[j].parked) {
        continue;
      }
      const PendingOp& a = cells_[i].pending;
      const PendingOp& b = cells_[j].pending;
      if (Dependent(a, b) && (sp::IsRacyKind(a.kind) || sp::IsRacyKind(b.kind))) {
        std::ostringstream detail;
        detail << "threads " << i << "/" << j << " co-enabled " << sp::OpKindName(a.kind)
               << "+" << sp::OpKindName(b.kind) << " on " << AddressTag(a.addr);
        Violation violation{Violation::Kind::kDataRace, detail.str()};
        RecordViolation(violation);
        return violation;
      }
    }
  }
  return Violation{};
}

uint64_t McScheduler::FreeRun(uint64_t hard_cap) {
  uint64_t steps = 0;
  while (!AllDone()) {
    SB7_CHECK(steps < hard_cap && "litmus did not terminate under fair scheduling");
    const std::vector<int> enabled = EnabledThreads();
    SB7_CHECK(!enabled.empty());
    // Fair round-robin: first enabled tid strictly after the last one
    // granted, wrapping. Fairness is what guarantees STM retry loops and
    // spin-waits terminate — the thread being waited on always runs again.
    int chosen = enabled.front();
    for (int tid : enabled) {
      if (tid > free_run_cursor_) {
        chosen = tid;
        break;
      }
    }
    free_run_cursor_ = chosen;
    Step(chosen);
    ++steps;
  }
  return steps;
}

void McScheduler::Finish() {
  SB7_CHECK(AllDone() && "Finish() before all virtual threads completed");
  for (std::thread& thread : threads_) {
    thread.join();
  }
  threads_.clear();
}

void McScheduler::RecordViolation(Violation violation) {
  if (!violation_) {
    violation_ = std::move(violation);
  }
}

void McScheduler::ModelAllocAddr(const void* addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  freed_.erase(addr);
}

void McScheduler::ModelReadAddr(const void* addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (freed_.count(addr) != 0) {
    RecordViolation(
        Violation{Violation::Kind::kUseAfterFree, "plain read on freed " + AddressTag(addr)});
  }
}

}  // namespace sb7::mc

namespace sb7::sp {

void SyncPoint(const void* addr, OpKind kind) {
  if (mc::tls_scheduler != nullptr) {
    mc::tls_scheduler->AtSyncPoint(addr, kind);
  }
}

bool UnderMcScheduler() { return mc::tls_scheduler != nullptr; }

}  // namespace sb7::sp

#endif  // SB7_MC
