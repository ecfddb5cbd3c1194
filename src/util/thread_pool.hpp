// Fixed-size thread pool for the autotuner's compute hot loops.
//
// Design constraints, in order:
//  * deterministic parallelism — parallel_for hands out index chunks from a
//    shared counter, but every index writes only its own result slot, so the
//    output of a parallel sweep is bitwise-identical for any thread count
//    (the seeding scheme that makes the *randomized* loops deterministic
//    lives with the callers: one counter-indexed Rng stream per tree, see
//    Rng::stream());
//  * no work stealing, no growth — `threads` is the total concurrency
//    including the calling thread, so a pool of size 1 has zero workers and
//    runs everything inline (a sequential run is the 1-thread parallel run);
//  * exceptions propagate — the first exception a parallel_for body throws
//    cancels the remaining chunks and is rethrown on the calling thread;
//    submit() surfaces task exceptions through the returned future;
//  * reentrancy-safe — parallel_for called from inside a pool task runs the
//    nested loop inline on that worker (no nested fan-out, no deadlock);
//  * clean shutdown — shutdown() drains queued tasks, joins all workers, and
//    is idempotent; the destructor calls it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace acclaim::util {

/// Monotonic usage counters, snapshotted by ThreadPool::stats(). The
/// telemetry registry publishes these as gauges (telemetry cannot be linked
/// from util without a layering cycle, so the pool only counts).
struct ThreadPoolStats {
  int threads = 1;                      ///< total concurrency (workers + caller)
  std::uint64_t tasks_executed = 0;     ///< submitted tasks run (queued or inline)
  std::uint64_t parallel_fors = 0;      ///< parallel_for invocations (incl. inline)
  std::uint64_t inline_runs = 0;        ///< parallel_fors that ran sequentially
  std::uint64_t queue_peak = 0;         ///< high-water mark of the task queue
};

class ThreadPool {
 public:
  /// `threads` is the total concurrency; values < 1 are clamped to 1.
  /// A pool of size n spawns n-1 workers (the caller is the n-th lane).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  int size() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Drains the queue, joins all workers. Idempotent; safe to call twice
  /// and again from the destructor. submit()/parallel_for() after shutdown
  /// throw InvalidArgument.
  void shutdown();

  /// Schedules `fn` on a worker (or runs it inline when the pool has no
  /// workers) and returns a future for its result. Task exceptions surface
  /// through the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Runs body(i) for every i in [begin, end), splitting the range into
  /// `grain`-sized chunks shared between the workers and the calling thread.
  /// Chunk-to-thread assignment is nondeterministic; callers must make
  /// body(i) write only to state owned by index i. Rethrows the first body
  /// exception after the loop quiesces. Nested calls (from a pool worker)
  /// and pools of size 1 run the loop inline.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body, std::size_t grain = 1);

  /// True when the calling thread is one of this pool's workers.
  bool in_pool() const noexcept;

  ThreadPoolStats stats() const;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  std::uint64_t queue_peak_ = 0;  ///< guarded by mu_
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
};

/// std::thread::hardware_concurrency with a floor of 1.
int hardware_threads() noexcept;

/// Largest thread count `--threads` accepts: far above any real machine, low
/// enough that a typo ("16000" for "16") cannot make the pool spawn
/// thousands of workers.
inline constexpr int kMaxThreads = 1024;

/// The check `--threads` applies on the CLI and the benches: the whole of
/// `text` must be a base-10 integer in [1, kMaxThreads]. nullopt for
/// anything else.
std::optional<int> parse_thread_count(const std::string& text);

/// The process-wide pool every parallel hot loop (forest fit/predict,
/// jackknife sweeps, acquisition scoring) runs on. Created on first use
/// with set_global_threads()'s last value, else hardware_threads().
ThreadPool& global_pool();

/// Resizes the global pool by tearing it down (joining its workers) and
/// recreating it lazily; n <= 0 restores the default (hardware_threads()).
/// Not safe to call while another thread is using global_pool() — call it
/// between parallel regions (CLI startup, bench setup, test SetUp).
void set_global_threads(int n);

/// The size the global pool has (or would be created with).
int global_threads();

}  // namespace acclaim::util
