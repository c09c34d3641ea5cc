// Runtime half of the thread-safety work: the compile-time matrix in
// ts_fixtures/ proves the annotations reject racy code under Clang; the
// tests here prove the annotated wrappers behave exactly like the std
// primitives they replace (same blocking, same wake-ups, no lost
// notifications) and that the types migrated onto them kept their
// semantics under load. Run under TSan for the full effect.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/bit_vector.h"
#include "common/fault_injector.h"
#include "common/thread_pool.h"
#include "index/index_cache.h"

namespace feisu {
namespace {

// ---------- Wrapper primitives ----------

TEST(AnnotatedMutexTest, GuardsASharedCounter) {
  Mutex mutex;
  int count = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mutex);
        ++count;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MutexLock lock(mutex);
  EXPECT_EQ(count, 8000);
}

TEST(AnnotatedMutexTest, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mutex;
  mutex.Lock();
  std::atomic<bool> contended_result{true};
  // try_lock from *another* thread: self-try_lock on a std::mutex is UB.
  std::thread prober([&]() { contended_result = mutex.TryLock(); });
  prober.join();
  EXPECT_FALSE(contended_result.load());
  mutex.Unlock();
  ASSERT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(AnnotatedSharedMutexTest, ReadersOverlap) {
  SharedMutex mutex;
  std::atomic<int> concurrent_readers{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&]() {
      ReaderLock lock(mutex);
      concurrent_readers.fetch_add(1);
      // While holding shared access, wait (bounded) for the other reader
      // to arrive — only possible if readers genuinely overlap. A
      // regression to exclusive locking deadlocks this wait, so the spin
      // cap doubles as the failure path.
      for (int spin = 0; spin < 10000000; ++spin) {
        if (concurrent_readers.load() == 2) {
          overlapped.store(true);
          break;
        }
        std::this_thread::yield();
      }
      concurrent_readers.fetch_sub(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(overlapped.load());
}

TEST(AnnotatedSharedMutexTest, WriterExcludesReadersAndWriters) {
  SharedMutex mutex;
  int value = 0;
  std::atomic<int> concurrent_readers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        ReaderLock lock(mutex);
        concurrent_readers.fetch_add(1);
        // Reads of `value` are safe here by construction; writers hold
        // exclusive access.
        (void)value;
        concurrent_readers.fetch_sub(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        WriterLock lock(mutex);
        EXPECT_EQ(concurrent_readers.load(), 0);
        ++value;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  WriterLock lock(mutex);
  EXPECT_EQ(value, 400);
}

TEST(AnnotatedCondVarTest, NotifyWakesWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&]() {
    MutexLock lock(mutex);
    while (!ready) cv.Wait(lock);
  });
  {
    MutexLock lock(mutex);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();  // completing is the assertion: no lost wake-up
}

// ---------- ThreadPool on the annotated wrappers ----------

TEST(AnnotationsThreadPoolTest, SubmitDrainHammer) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    for (uint64_t i = 0; i < 200; ++i) {
      auto unused = pool.Submit([&sum, i]() { sum.fetch_add(i); });
      (void)unused;
    }
    pool.Drain();
    EXPECT_EQ(pool.pending(), 0u);
  }
  EXPECT_EQ(sum.load(), 20ull * (199ull * 200ull / 2));
}

// ---------- IndexCache on the annotated wrappers ----------

TEST(AnnotationsIndexCacheTest, ConcurrentMixedOperationsHammer) {
  IndexCacheConfig config;
  config.capacity_bytes = 64 * 1024;  // small: forces eviction churn
  config.shards = 4;
  IndexCache cache(config);
  ThreadPool pool(4);
  std::atomic<uint64_t> alive_handles{0};
  auto hammer = [&](size_t t) {
    BitVector bits(512, t % 2 == 0);
    for (int i = 0; i < 300; ++i) {
      SmartIndexKey key{static_cast<int64_t>((t * 300 + i) % 64),
                        "(c" + std::to_string(i % 7) + " > 0)"};
      cache.Insert(key, bits, static_cast<SimTime>(i));
      if (auto handle = cache.Lookup(key, static_cast<SimTime>(i))) {
        // The shared_ptr contract: the handle stays valid even if a
        // concurrent insert evicts the entry underneath us.
        alive_handles.fetch_add(handle->num_rows() == 512 ? 1 : 0);
      }
      if (i % 16 == 0) {
        cache.SetPreference("(c1 > 0)", t % 2 == 0);
        cache.EvictExpired(static_cast<SimTime>(i));
      }
    }
  };
  std::vector<std::future<void>> workers;
  for (size_t t = 0; t < 8; ++t) {
    workers.push_back(pool.Submit([&hammer, t]() { hammer(t); }));
  }
  for (std::future<void>& worker : workers) worker.get();
  EXPECT_GT(alive_handles.load(), 0u);
  IndexCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 8u * 300u);
  EXPECT_LE(cache.memory_bytes(), cache.capacity_bytes());
}

// ---------- FaultInjector: regression for the Configure race ----------

// Before the annotation migration, Configure() wrote config_ with no lock
// while pool threads read it through OnBlockRead/ProfileFor — a torn read
// of the profiles map under concurrent reconfiguration. The whole swap now
// happens under the injector's mutex; this test reconfigures in a tight
// loop against hammering readers and must stay clean under TSan.
TEST(AnnotationsFaultInjectorTest, ConfigureRacesAgainstQueries) {
  FaultInjector injector;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      std::string path = "/hdfs/part-" + std::to_string(t);
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (injector.enabled()) {
          (void)injector.OnBlockRead(path, static_cast<uint32_t>(i % 3));
          (void)injector.IsReplicaCorrupted(path, static_cast<uint32_t>(i % 3));
          (void)injector.DropHeartbeat(static_cast<uint32_t>(t),
                                       static_cast<SimTime>(i));
        }
        (void)injector.config();  // snapshot while Configure may run
        reads.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  // Keep reconfiguring until the readers have demonstrably interleaved
  // with at least a few hundred Configure swaps (capped so a wedged
  // reader can't hang the test forever).
  int round = 0;
  while ((round < 200 || reads.load(std::memory_order_relaxed) < 2000) &&
         round < 200000) {
    FaultConfig config;
    config.enabled = round % 2 == 0;
    config.seed = static_cast<uint64_t>(round + 1);
    config.heartbeat_drop_rate = 0.5;
    config.profiles["/hdfs"] = HdfsFaultProfile();
    config.profiles["/ffs"] = FatmanFaultProfile();
    config.node_events.push_back({static_cast<SimTime>(round), 1u, true});
    injector.Configure(std::move(config));
    (void)injector.TakeDueNodeEvents(static_cast<SimTime>(round));
    (void)injector.stats();
    ++round;
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  // Configure resets per-run state, so counters reflect only the final
  // configuration — the point is that nothing tore or deadlocked.
  (void)injector.stats();
}

// Determinism must survive the locking change: same seed, same call
// pattern, identical verdicts.
TEST(AnnotationsFaultInjectorTest, DeterministicAfterReconfigure) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 42;
  config.default_profile = FatmanFaultProfile();
  auto run = [&config]() {
    FaultInjector injector(config);
    std::vector<FaultKind> verdicts;
    for (int i = 0; i < 200; ++i) {
      verdicts.push_back(
          injector.OnBlockRead("/ffs/cold-" + std::to_string(i % 5), 2));
    }
    return verdicts;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace feisu
