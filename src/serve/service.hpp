#pragma once

/// \file service.hpp
/// The multi-tenant simulation job service (DESIGN.md §9): glues the
/// admission controller, the policy queue and a pool of K scheduler workers
/// into one submit/poll/wait/cancel facade.
///
///   SimService service({.workers = 4, .threads_per_job = 2});
///   service.start();
///   auto h = service.submit({.tenant = "alice", .cells = 2});
///   JobResult r = h.wait();
///
/// Concurrency model: each worker thread owns a private `ThreadPool` of
/// `threads_per_job` threads and drives one job at a time through
/// serve::run_job, so the process never oversubscribes beyond
/// workers x threads_per_job engine threads regardless of how many jobs are
/// queued (the global pool is untouched). Every queue/admission/scheduler
/// decision is reported to obs::Registry::global() — serve.* counters,
/// gauges and wait/run latency histograms plus per-tenant counters — so the
/// registry dump doubles as the SLO dashboard.
///
/// Shutdown: stop() requests cancel on everything, drains the queue
/// (finalizing still-queued jobs as kCancelled), and joins the workers;
/// running jobs stop cooperatively at their next step boundary. The
/// destructor calls stop().

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"

namespace mdm::serve {

struct ServiceConfig {
  int workers = 2;              ///< K concurrently running jobs
  unsigned threads_per_job = 1; ///< pool slice each job's force loops use
  AdmissionConfig admission{};
  /// Root for per-job checkpoint directories (`<root>/job-<id>`), used when
  /// a spec asks for checkpointing without naming its own directory. Empty
  /// = only specs with an explicit checkpoint_dir write checkpoints.
  std::string checkpoint_root;
  /// Stream every recorded sample into the job's live buffer
  /// (JobHandle::poll_samples); the fleet shard turns this on to feed
  /// chunked result polling.
  bool stream_samples = false;
  /// Graceful drain: a cooperative cancel persists a checkpoint (and, for
  /// resume_manifest jobs, a manifest) at the exact cancel step, so
  /// SIGTERM-drained jobs migrate with zero recomputation.
  bool checkpoint_on_cancel = false;
  /// Called, under the service lock, as each admitted job turns terminal
  /// (quick, no calls back into the service): the fleet shard's wake-up.
  std::function<void()> on_job_done;
};

class SimService {
 public:
  explicit SimService(ServiceConfig config);
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Spawn the worker threads. Idempotent. Jobs may be submitted before
  /// start(); they queue up (tests use this for deterministic ordering).
  void start();

  /// Cancel queued + running jobs, join workers, finalize everything.
  void stop();

  /// Admission-checked submit. The returned handle is always valid; a
  /// rejected job is already terminal with kRejected and the Overloaded
  /// reason in `error`.
  JobHandle submit(const JobSpec& spec);

  /// Block until every submitted job has reached a terminal state. The
  /// service must be started.
  void drain();
  /// drain() with a deadline: throws JobWaitTimeout whose message names
  /// every still-outstanding job (id, tenant, class, state) — the serve
  /// analogue of the vmpi who-waits-on-whom deadlock dump.
  void drain_for(double timeout_ms);

  const ServiceConfig& config() const { return config_; }
  std::size_t queue_depth() const;
  int running_jobs() const;

 private:
  void worker_main();
  /// Terminal bookkeeping shared by every exit path: fair-share + admission
  /// release, SLO metrics, per-tenant counters, handle wakeup.
  void finalize_locked(Job& job, JobResult result, bool was_running);

  ServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;   ///< workers: work available / stop
  std::condition_variable idle_cv_;  ///< drain(): all work finished
  JobQueue queue_;
  AdmissionController admission_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Job>> active_;  ///< currently running jobs
  std::uint64_t next_id_ = 1;
  int running_ = 0;
  int unfinished_ = 0;  ///< admitted jobs not yet terminal
  bool started_ = false;
  bool stop_ = false;
};

}  // namespace mdm::serve
