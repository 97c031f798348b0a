#include <algorithm>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "catalog_test_util.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/thread_pool.h"
#include "exec/hcubej.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::dist {
namespace {

TEST(ThreadPoolTest, StreamingSubmitRunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool pool(4);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&hits, i] { hits[size_t(i)]++; });
  }
  pool.WaitIdle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool stays usable: more submissions after an idle period.
  std::atomic<int> more{0};
  pool.Submit([&more] { more++; });
  pool.WaitIdle();
  EXPECT_EQ(more.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Many quick submissions; some are still queued when the pool is
    // destroyed — the drain contract says all of them still run.
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { ran++; });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(RunTasksTest, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&hits, i] { hits[size_t(i)]++; });
  }
  RunTasks(4, tasks);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunTasksTest, ReusableAcrossBatches) {
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back([&total] { total++; });
    RunTasks(3, tasks);
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(RunTasksTest, EmptyBatchIsNoop) {
  RunTasks(0, {});
  RunTasks(1, {});
  RunTasks(4, {});
  SUCCEED();
}

TEST(RunTasksTest, StreamingAndBatchModesInterleave) {
  // The serve shape: streaming workers each fork a batch while another
  // batch runs on the calling thread.
  ThreadPool pool(3);
  std::atomic<int> streamed{0};
  std::atomic<int> batched{0};
  auto batch = [&batched] {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) tasks.push_back([&batched] { batched++; });
    RunTasks(0, tasks);
  };
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&streamed, &batch] {
      batch();
      streamed++;
    });
  }
  batch();
  pool.WaitIdle();
  EXPECT_EQ(streamed.load(), 16);
  EXPECT_EQ(batched.load(), 17 * 16);
}

TEST(RunTasksTest, ConcurrentBatchesRunEveryTaskExactlyOnce) {
  constexpr int kThreads = 8, kBatches = 50, kTasks = 16;
  std::vector<std::atomic<int>> hits(size_t(kThreads * kBatches * kTasks));
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&hits, t] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < kTasks; ++i) {
          const size_t slot = size_t((t * kBatches + b) * kTasks + i);
          tasks.push_back([&hits, slot] { hits[slot]++; });
        }
        RunTasks(0, tasks);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunTasksTest, NestedBatchCompletes) {
  // Session::RunBatch -> RunHCubeJ: a task of one batch forks another.
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> outer;
  for (int o = 0; o < 8; ++o) {
    outer.push_back([&hits, o] {
      std::vector<std::function<void()>> inner;
      for (int i = 0; i < 8; ++i) {
        inner.push_back([&hits, o, i] { hits[size_t(o * 8 + i)]++; });
      }
      RunTasks(0, inner);
    });
  }
  RunTasks(0, outer);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunTasksTest, BackToBackSmallBatches) {
  // Helpers often dequeue a batch after its caller has already run
  // both tasks and returned; that must neither crash nor re-run one.
  std::atomic<int> total{0};
  for (int b = 0; b < 10000; ++b) {
    std::vector<std::function<void()>> tasks = {[&total] { total++; },
                                                [&total] { total++; }};
    RunTasks(0, tasks);
  }
  EXPECT_EQ(total.load(), 20000);
}

TEST(RunTasksTest, DefaultWidthRunsTasksConcurrently) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "single-core host: RunTasks is sequential";
  }
  // Each task waits for the other to start: only a second thread can
  // let the first one finish before the time-out.
  std::atomic<int> started{0};
  std::atomic<bool> met{true};
  auto task = [&] {
    started++;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > give_up) {
        met = false;
        return;
      }
      std::this_thread::yield();
    }
  };
  RunTasks(0, {task, task});
  EXPECT_TRUE(met.load());
}

TEST(RunTasksTest, SequentialWhenOneThread) {
  // With threads=1 tasks must run in submission order.
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  RunTasks(1, tasks);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(RunTasksTest, ParallelSumsMatch) {
  std::vector<uint64_t> slots(32, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < slots.size(); ++i) {
    tasks.push_back([&slots, i] {
      uint64_t acc = 0;
      for (uint64_t j = 0; j <= i * 1000; ++j) acc += j;
      slots[i] = acc;
    });
  }
  RunTasks(4, tasks);
  for (size_t i = 0; i < slots.size(); ++i) {
    const uint64_t n = i * 1000;
    EXPECT_EQ(slots[i], n * (n + 1) / 2);
  }
}

TEST(ThreadedHCubeJTest, SameCountsAsSequential) {
  Rng rng(77);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(40, 250, rng));
  for (int qi : {1, 2, 5}) {
    auto q = query::MakeBenchmarkQuery(qi);
    query::AttributeOrder order;
    for (int a = 0; a < q->num_attrs(); ++a) order.push_back(a);

    ClusterConfig cfg;
    cfg.num_servers = 4;
    Cluster c_seq(cfg), c_par(cfg);
    exec::HCubeJParams seq_params;
    seq_params.worker_threads = 1;
    exec::HCubeJParams par_params;
    auto seq = exec::RunHCubeJ(*q, db, order, seq_params, &c_seq);
    auto par = exec::RunHCubeJ(*q, db, order, par_params, &c_par);
    ASSERT_TRUE(seq.ok() && par.ok()) << "Q" << qi;
    ASSERT_TRUE(seq->report.ok() && par->report.ok()) << "Q" << qi;
    EXPECT_EQ(par->report.output_count, seq->report.output_count)
        << "Q" << qi;
    EXPECT_EQ(par->report.extensions, seq->report.extensions) << "Q" << qi;
  }
}

TEST(ThreadedHCubeJTest, CollectedOutputIdenticalToSequential) {
  // Bag pre-computation and the SPJ projection path both gather rows
  // through collect_output: the concurrent default must hand them the
  // very rows, in the very order, of the sequential run.
  Rng rng(79);
  storage::Catalog db;
  test::CreateRelation(&db, "G", dataset::ErdosRenyi(30, 180, rng));
  for (int qi : {1, 2}) {
    for (bool use_cache : {false, true}) {
      auto q = query::MakeBenchmarkQuery(qi);
      query::AttributeOrder order;
      for (int a = 0; a < q->num_attrs(); ++a) order.push_back(a);
      ClusterConfig cfg;
      cfg.num_servers = 6;
      Cluster c_seq(cfg), c_par(cfg);
      exec::HCubeJParams seq_params;
      seq_params.collect_output = true;
      seq_params.use_cache = use_cache;
      seq_params.worker_threads = 1;
      exec::HCubeJParams par_params = seq_params;
      par_params.worker_threads = 0;
      auto seq = exec::RunHCubeJ(*q, db, order, seq_params, &c_seq);
      auto par = exec::RunHCubeJ(*q, db, order, par_params, &c_par);
      ASSERT_TRUE(seq.ok() && par.ok()) << "Q" << qi;
      ASSERT_TRUE(seq->report.ok() && par->report.ok()) << "Q" << qi;
      EXPECT_GT(seq->results.size(), 0u) << "Q" << qi;
      EXPECT_EQ(par->results.schema().attrs(), seq->results.schema().attrs());
      EXPECT_TRUE(std::ranges::equal(par->results.raw(), seq->results.raw()))
          << "Q" << qi << " use_cache=" << use_cache;
    }
  }
}

}  // namespace
}  // namespace adj::dist
