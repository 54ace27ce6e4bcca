#pragma once

/// \file thread_pool.hpp
/// Persistent worker pool with a `parallel_for` that splits an index range
/// into contiguous chunks. Force loops in the MD engine and the hardware
/// simulators use this instead of spawning threads per step.
///
/// Determinism: `parallel_for` assigns chunk c = [bounds) to worker c
/// statically, so per-chunk partial results can be reduced in chunk order and
/// a run is bit-reproducible regardless of scheduling.
///
/// Tiny ranges run inline on the calling thread (no condition-variable
/// wakeup): below `min_parallel` items the whole range executes as chunk 0.
/// Callers whose per-item work is heavy can pass min_parallel = 0 to force
/// fan-out even for short ranges.
///
/// Re-entrancy: a pool has one task slot, so `parallel_for` called from
/// inside one of its own chunks (which concurrent serve jobs can do through
/// nested force evaluations) must not enqueue a second task — it would
/// corrupt the in-flight counter and deadlock the outer call. Such nested
/// calls are detected through a thread-local marker and run the whole range
/// inline as chunk 0. Nesting across *different* pools fans out normally.
///
/// The single task slot also means a pool supports ONE external caller at a
/// time: concurrent `parallel_for` calls from unrelated threads race on the
/// slot. Give independent callers independent pools (the serve scheduler
/// hands each worker its own slice for exactly this reason).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/trace_context.hpp"

namespace mdm {

class ThreadPool {
 public:
  /// Ranges shorter than this run inline by default (a pool wakeup costs
  /// more than scanning a few dozen items, e.g. small k-vector sets).
  static constexpr std::size_t kDefaultGrain = 32;

  /// Create a pool with `threads` workers; 0 means hardware_concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(chunk_index, begin, end) over [0, n) split into size() contiguous
  /// chunks. Blocks until all chunks finish. The calling thread executes
  /// chunk 0 itself. Exceptions from chunks propagate (first one wins).
  /// Ranges with n < min_parallel run inline as fn(0, 0, n).
  void parallel_for(std::size_t n,
                    const std::function<void(unsigned, std::size_t,
                                             std::size_t)>& fn,
                    std::size_t min_parallel = kDefaultGrain);

  /// Allocation-free variant: `raw(ctx, chunk_index, begin, end)`. The hot
  /// force loops use this form (constructing a std::function from a
  /// capturing lambda may heap-allocate on every step). `ctx` must stay
  /// valid until the call returns; the call blocks like parallel_for.
  using RawFn = void (*)(void* ctx, unsigned chunk, std::size_t begin,
                         std::size_t end);
  void parallel_for_raw(std::size_t n, RawFn raw, void* ctx,
                        std::size_t min_parallel = kDefaultGrain);

  /// Shared process-wide pool (created on first use). Size comes from
  /// `set_global_threads` when called before first use, otherwise from the
  /// MDM_THREADS environment variable when set (>= 1), otherwise from
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Thread count an explicit-size-0 pool (and the global pool) resolves
  /// to: the set_global_threads override, then MDM_THREADS, then
  /// hardware_concurrency. Always >= 1.
  static unsigned default_threads();

  /// Programmatic size override for the global pool (the `--threads` CLI
  /// flag; takes precedence over MDM_THREADS). Must be called before
  /// global() is first used; returns false — and changes nothing — once the
  /// global pool exists. Non-global pools are unaffected: give each its own
  /// explicit size (this is how the serve scheduler hands every job a
  /// bounded slice without touching the environment).
  static bool set_global_threads(unsigned threads);

  /// True while the calling thread is executing a chunk of this pool (used
  /// by the re-entrancy guard; exposed for tests).
  bool running_on_this_pool() const;

 private:
  struct Task {
    RawFn raw = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    std::size_t generation = 0;
    /// Dispatcher's ambient TraceContext, installed on workers around each
    /// chunk so pool-side spans join the dispatcher's trace (DESIGN.md §10).
    obs::TraceContext trace_ctx;
  };

  void worker_loop(unsigned worker_index);
  static void run_chunk(const Task& task, unsigned chunk, unsigned nchunks);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Task task_;
  std::size_t generation_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Convenience wrapper: element-wise parallel loop over [0, n) on the global
/// pool; `fn(i)` is called for every index.
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Dispatch a capturing lambda `fn(chunk, begin, end)` over the pool through
/// parallel_for_raw — no std::function, no allocation. The lambda outlives
/// the (blocking) call, so passing its address is safe.
template <typename Fn>
void pool_for(ThreadPool& pool, std::size_t n, Fn&& fn,
              std::size_t min_parallel = ThreadPool::kDefaultGrain) {
  pool.parallel_for_raw(
      n,
      [](void* ctx, unsigned chunk, std::size_t begin, std::size_t end) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(chunk, begin, end);
      },
      const_cast<void*>(static_cast<const void*>(&fn)), min_parallel);
}

/// pool_for with every item fanned out (min_parallel = 0) when `pool` has
/// workers; otherwise fn(0, 0, n) inline. For loops whose items are heavy.
template <typename Fn>
void pool_for_items(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool && pool->size() > 1)
    pool_for(*pool, n, fn, /*min_parallel=*/0);
  else
    fn(0u, std::size_t{0}, n);
}

}  // namespace mdm
