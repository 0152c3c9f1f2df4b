// Deterministic fan-out of an indexed job set over a ThreadPool.
//
// Determinism guarantee: Map(n, fn) returns results in job-index order, and
// each job must be self-contained — its own Simulator, PacketPool, and RNG
// seeded from its config — so the value results[i] is a pure function of
// point i's config. Under that contract the output is bit-identical to the
// serial (num_threads = 1) run for every thread count: threads only decide
// *when* a job runs, never what it computes. The only process-global state
// jobs share is the atomic packet-pool tag counter (drawn once per pool at
// construction; uids are tracing-only and never feed back into simulation
// behavior) and the atomic log level.
//
// Exceptions: if any fn(i) throws, every other job still runs to
// completion (side effects do not depend on the thread count either) and
// Map then rethrows the exception of the lowest-index failed job — again
// independent of scheduling order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"

namespace fncc {

class SweepRunner {
 public:
  /// num_threads = 0 picks ThreadPool::DefaultThreadCount() (FNCC_THREADS
  /// env override, else hardware concurrency). 1 runs jobs inline on the
  /// calling thread with no pool at all — the reference serial path.
  explicit SweepRunner(int num_threads = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(0) .. fn(n-1), each exactly once, across the pool. Blocks
  /// until all complete; rethrows the lowest-index job exception.
  void RunIndexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Indexed map: results come back in job-index order regardless of
  /// completion order. Result must be default-constructible (each slot is
  /// move-assigned by its job).
  template <typename Result, typename Fn>
  std::vector<Result> Map(std::size_t n, Fn&& fn) {
    std::vector<Result> results(n);
    RunIndexed(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  int threads_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily, only when parallel
};

}  // namespace fncc
