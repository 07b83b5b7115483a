// Unit and stress tests for the QSBR epoch-reclamation domain.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/ebr/ebr.h"

namespace sb7 {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : destroyed(counter) {}
  ~Tracked() { destroyed.fetch_add(1); }
  std::atomic<int>& destroyed;
};

TEST(EbrTest, RetireDefersUntilQuiescence) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  domain.Retire(new Tracked(destroyed),
                [](void* p) { delete static_cast<Tracked*>(p); });
  EXPECT_EQ(destroyed.load(), 0);
  // Advance epochs: each quiesce announces the current epoch; after enough
  // announcements the object's epoch is two behind and it is freed.
  for (int i = 0; i < 8; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, DrainAllFreesEverything) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  for (int i = 0; i < 100; ++i) {
    domain.Retire(new Tracked(destroyed),
                  [](void* p) { delete static_cast<Tracked*>(p); });
  }
  EXPECT_EQ(domain.DrainAll(), 100);
  EXPECT_EQ(destroyed.load(), 100);
}

TEST(EbrTest, RetireObjectTemplateWorksWithConst) {
  EbrDomain domain;
  const std::string* retired = new std::string("payload");
  domain.RetireObject(retired);
  EXPECT_GE(domain.PendingCount(), 1);
  domain.DrainAll();
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, DomainDestructorDrains) {
  std::atomic<int> destroyed{0};
  {
    EbrDomain domain;
    domain.Retire(new Tracked(destroyed),
                  [](void* p) { delete static_cast<Tracked*>(p); });
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(EbrTest, EpochAdvancesOnlyWhenAllThreadsQuiesce) {
  EbrDomain domain;
  domain.Quiesce();  // register main thread
  const uint64_t before = domain.global_epoch();

  std::atomic<bool> registered{false};
  std::atomic<bool> release{false};
  std::thread laggard([&] {
    domain.Quiesce();  // register and announce once
    registered = true;
    while (!release.load()) {
      std::this_thread::yield();  // never quiesce again while held
    }
    domain.Quiesce();
  });
  while (!registered.load()) {
    std::this_thread::yield();
  }
  // The laggard announced the epoch current at its registration; repeated
  // reclaim attempts may advance at most a bounded number of epochs past it.
  for (int i = 0; i < 10; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  const uint64_t stalled = domain.global_epoch();
  EXPECT_LE(stalled - before, 2u);

  release = true;
  laggard.join();
  for (int i = 0; i < 4; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  EXPECT_GT(domain.global_epoch(), stalled);
}

TEST(EbrTest, NoUseAfterFreeUnderConcurrentRetirement) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  std::atomic<int64_t> created{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        domain.Retire(new Tracked(destroyed),
                      [](void* p) { delete static_cast<Tracked*>(p); });
        created.fetch_add(1);
        domain.Quiesce();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  domain.DrainAll();
  EXPECT_EQ(destroyed.load(), created.load());
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, ExitedThreadsLimboIsInherited) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  std::thread worker([&] {
    for (int i = 0; i < 10; ++i) {
      domain.Retire(new Tracked(destroyed),
                    [](void* p) { delete static_cast<Tracked*>(p); });
    }
    // Thread exits without draining; its limbo must move to the orphan list.
  });
  worker.join();
  domain.DrainAll();
  EXPECT_EQ(destroyed.load(), 10);
}

// A registered thread that changes its EBR state only when the test asks.
// Each request runs on that thread and returns once it is done.
class ParkedThread {
 public:
  explicit ParkedThread(EbrDomain& domain) : domain_(domain), thread_([this] { Loop(); }) {}
  ~ParkedThread() {
    Post(kExit);
    thread_.join();
  }
  ParkedThread(const ParkedThread&) = delete;
  ParkedThread& operator=(const ParkedThread&) = delete;

  void GoOnline() { Post(kQuiesce); }
  void GoOffline() { Post(kOffline); }

 private:
  enum Step { kIdle, kQuiesce, kOffline, kExit };

  void Post(Step step) {
    request_.store(step);
    while (request_.load() != kIdle) {
      std::this_thread::yield();
    }
  }

  void Loop() {
    Step step;
    while ((step = request_.load()) != kExit) {
      if (step == kIdle) {
        std::this_thread::yield();
        continue;
      }
      if (step == kQuiesce) {
        domain_.Quiesce();
      } else {
        domain_.Offline();
      }
      request_.store(kIdle);
    }
    request_.store(kIdle);
  }

  EbrDomain& domain_;
  std::atomic<Step> request_{kIdle};
  std::thread thread_;  // last: it runs Loop(), which uses the members above
};

void RetireTracked(EbrDomain& domain, std::atomic<int>& destroyed) {
  domain.Retire(new Tracked(destroyed), [](void* p) { delete static_cast<Tracked*>(p); });
}

void Reclaim(EbrDomain& domain, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
}

TEST(EbrTest, OfflineThreadNeitherBlocksAdvanceNorFrees) {
  std::atomic<int> destroyed{0};
  EbrDomain domain;
  domain.Quiesce();
  ParkedThread idle(domain);
  idle.GoOnline();
  idle.GoOffline();

  // Offline, the idle thread is ignored: the epoch moves and frees happen.
  const uint64_t before = domain.global_epoch();
  RetireTracked(domain, destroyed);
  Reclaim(domain, 8);
  EXPECT_GE(domain.global_epoch() - before, 4u);
  EXPECT_EQ(destroyed.load(), 1);
  domain.Offline();
  EXPECT_EQ(domain.LaggardSlot(), -1);  // nobody online, nobody lagging

  // Its next Quiesce puts it back online at the current epoch, and from
  // then on it holds the epoch back again: one advance at most, no frees.
  idle.GoOnline();
  const uint64_t pinned = domain.global_epoch();
  RetireTracked(domain, destroyed);
  Reclaim(domain, 8);
  EXPECT_LE(domain.global_epoch() - pinned, 1u);
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(domain.PendingCount(), 1);
  domain.Offline();
  EXPECT_GE(domain.LaggardSlot(), 0);  // the idle thread's slot

  idle.GoOffline();
  Reclaim(domain, 4);
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, ReclaimFreesExactlyThePrefixOlderThanTheSafeEpoch) {
  // With one online thread, a Quiesce that finds the global epoch at g
  // announces g and frees what was retired before g - 1: the entries at
  // least two epochs old. Everything younger must stay.
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 3;
  std::vector<std::atomic<int>> destroyed(kBatches);  // outlives the domain
  std::vector<uint64_t> epochs(kBatches);
  EbrDomain domain;
  domain.Quiesce();
  for (int batch = 0; batch < kBatches; ++batch) {
    epochs[batch] = domain.global_epoch();
    for (int i = 0; i < kPerBatch; ++i) {
      RetireTracked(domain, destroyed[batch]);
    }
    const uint64_t found = domain.global_epoch();
    domain.Quiesce();
    int64_t pending = 0;
    for (int b = 0; b <= batch; ++b) {
      const bool safe = epochs[b] + 1 < found;
      EXPECT_EQ(destroyed[b].load(), safe ? kPerBatch : 0) << "batch " << b << " after " << batch;
      pending += safe ? 0 : kPerBatch;
    }
    EXPECT_EQ(domain.PendingCount(), pending) << "after batch " << batch;
  }
  // Each Quiesce advanced the epoch once, so the two latest batches wait.
  EXPECT_EQ(domain.PendingCount(), 2 * kPerBatch);
}

TEST(EbrTest, OrphansOfExitedThreadsAreReclaimedInEpochOrder) {
  std::atomic<int> early{0};
  std::atomic<int> late{0};
  EbrDomain domain;
  domain.Quiesce();

  // `early` retires first but exits last, so its orphans land behind the
  // younger ones of `late`. Reclamation must still free them first.
  std::atomic<bool> retired{false};
  std::atomic<bool> release{false};
  std::thread early_thread([&] {
    for (int i = 0; i < 5; ++i) {
      RetireTracked(domain, early);
    }
    retired = true;
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!retired.load()) {
    std::this_thread::yield();
  }
  const uint64_t early_epoch = domain.global_epoch();
  Reclaim(domain, 3);  // advances once a round: the retiring threads are offline
  std::thread late_thread([&] {
    for (int i = 0; i < 5; ++i) {
      RetireTracked(domain, late);
    }
  });
  late_thread.join();
  release = true;
  early_thread.join();
  EXPECT_EQ(domain.PendingCount(), 10);

  // Main announces early_epoch + 3: safe for the early orphans only.
  domain.Quiesce();
  domain.TryReclaim();
  EXPECT_EQ(domain.global_epoch(), early_epoch + 4);
  EXPECT_EQ(early.load(), 5);
  EXPECT_EQ(late.load(), 0);

  Reclaim(domain, 4);
  EXPECT_EQ(late.load(), 5);
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, ScanCoversTheHighestSlotEverHandedOut) {
  std::atomic<int> destroyed{0};
  EbrDomain domain;
  domain.Quiesce();  // slot 0

  // Slots 1..kLow: registered threads that hold their slots offline.
  constexpr int kLow = 5;
  std::vector<std::unique_ptr<ParkedThread>> low;
  for (int i = 0; i < kLow; ++i) {
    low.push_back(std::make_unique<ParkedThread>(domain));
    low.back()->GoOffline();
  }
  // The thread above them lags: online at the epoch of its registration.
  ParkedThread high(domain);
  high.GoOnline();
  constexpr int kHighSlot = kLow + 1;

  const uint64_t pinned = domain.global_epoch();
  RetireTracked(domain, destroyed);
  Reclaim(domain, 8);
  EXPECT_LE(domain.global_epoch() - pinned, 1u);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(domain.LaggardSlot(), kHighSlot);

  // Every slot below it frees, and a new thread reuses the lowest: the
  // high slot must still be scanned.
  low.clear();
  ParkedThread reuser(domain);
  reuser.GoOnline();
  Reclaim(domain, 8);
  EXPECT_LE(domain.global_epoch() - pinned, 1u);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(domain.LaggardSlot(), kHighSlot);

  high.GoOffline();
  reuser.GoOffline();
  Reclaim(domain, 4);
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(domain.PendingCount(), 0);
  domain.Offline();
  EXPECT_EQ(domain.LaggardSlot(), -1);
}

// Readers register, each in a slot above every slot handed out before it,
// while a writer keeps retiring the object they read. A reader whose
// registration the reclaimer's scan missed would read a freed object
// (caught by the `alive` check here, or by the sanitizers).
TEST(EbrTest, ThreadsRegisteringDuringReclamationAreWaitedFor) {
  struct Guarded {
    std::atomic<bool> alive{true};
    ~Guarded() { alive.store(false); }
  };
  EbrDomain domain;
  std::atomic<Guarded*> shared{new Guarded()};
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_freed{false};

  std::thread writer([&] {
    while (!stop.load()) {
      Guarded* old = shared.exchange(new Guarded());
      domain.Retire(old, [](void* p) { delete static_cast<Guarded*>(p); });
      domain.Quiesce();
    }
    domain.Offline();
  });
  constexpr int kReaders = 6;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    // Each reader holds its slot until the end, so every reader raises the
    // scan bound while the writer reclaims.
    readers.emplace_back([&] {
      for (int i = 0; i < 2'000; ++i) {
        domain.Quiesce();
        if (!shared.load()->alive.load()) {
          saw_freed = true;
        }
      }
      domain.Offline();
      while (!stop.load()) {
        std::this_thread::yield();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (std::thread& reader : readers) {
    reader.join();
  }
  writer.join();
  EXPECT_FALSE(saw_freed.load());
  delete shared.load();
  domain.DrainAll();
  EXPECT_EQ(domain.PendingCount(), 0);
}

}  // namespace
}  // namespace sb7
