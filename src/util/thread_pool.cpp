#include "util/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "util/error.hpp"

namespace acclaim::util {

namespace {

/// Set for the duration of worker_loop so in_pool() (and therefore the
/// reentrancy guard in parallel_for) can identify pool threads without a
/// registry lookup.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int total = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 0; i < total - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

bool ThreadPool::in_pool() const noexcept { return t_current_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers: run inline so a size-1 pool still honors submit().
    {
      std::lock_guard lock(mu_);
      require(!stop_, "ThreadPool::submit after shutdown");
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
    return;
  }
  {
    std::lock_guard lock(mu_);
    require(!stop_, "ThreadPool::submit after shutdown");
    queue_.push_back(std::move(task));
    queue_peak_ = std::max<std::uint64_t>(queue_peak_, queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        break;  // stop_ set and the queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
  t_current_pool = nullptr;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (begin >= end) {
    return;
  }
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  // Sequential fallbacks: nested calls run inline on the current worker
  // (fanning out again could deadlock once every worker waits on a nested
  // loop), and a 1-lane pool or single-chunk range gains nothing from the
  // queue. The inline loop is the 1-thread schedule, so results match the
  // parallel path bitwise whenever body(i) only writes state owned by i.
  if (in_pool() || workers_.empty() || chunks <= 1) {
    {
      std::lock_guard lock(mu_);
      require(!stop_, "ThreadPool::parallel_for after shutdown");
    }
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = begin; i < end; ++i) {
      body(i);
    }
    return;
  }

  struct SweepState {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<bool> cancelled{false};
    std::mutex emu;
    std::exception_ptr eptr;
  };
  auto state = std::make_shared<SweepState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->grain = grain;
  state->body = &body;

  const auto run_chunks = [](SweepState& st) {
    while (!st.cancelled.load(std::memory_order_relaxed)) {
      const std::size_t lo = st.next.fetch_add(st.grain, std::memory_order_relaxed);
      if (lo >= st.end) {
        return;
      }
      const std::size_t hi = std::min(st.end, lo + st.grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          (*st.body)(i);
        }
        // Stores the first exception; parallel_for rethrows it on the
        // calling thread after the loop quiesces.
      } catch (...) {
        std::lock_guard lock(st.emu);
        if (!st.eptr) {
          st.eptr = std::current_exception();
        }
        st.cancelled.store(true, std::memory_order_relaxed);
      }
    }
  };

  // One helper per worker, capped at chunks-1 (the caller takes a lane).
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  std::vector<std::future<void>> pending;
  pending.reserve(helpers);
  for (std::size_t h = 0; h < helpers; ++h) {
    pending.push_back(submit([state, run_chunks] { run_chunks(*state); }));
  }
  run_chunks(*state);
  for (std::future<void>& f : pending) {
    f.get();  // body exceptions land in state->eptr, never here
  }
  if (state->eptr) {
    std::rethrow_exception(state->eptr);
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats st;
  st.threads = size();
  st.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  st.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  st.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    st.queue_peak = queue_peak_;
  }
  return st;
}

int hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::optional<int> parse_thread_count(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE || n < 1 || n > kMaxThreads) {
    return std::nullopt;
  }
  return static_cast<int>(n);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
int g_requested = 0;  ///< 0 = hardware default

int resolved_threads() { return g_requested > 0 ? g_requested : hardware_threads(); }

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard lock(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(resolved_threads());
  }
  return *g_pool;
}

void set_global_threads(int n) {
  std::lock_guard lock(g_pool_mu);
  g_requested = std::max(n, 0);
  if (g_pool && g_pool->size() != resolved_threads()) {
    g_pool.reset();  // joins workers; recreated lazily at the new size
  }
}

int global_threads() {
  std::lock_guard lock(g_pool_mu);
  return g_pool ? g_pool->size() : resolved_threads();
}

}  // namespace acclaim::util
