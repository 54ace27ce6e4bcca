#include "serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/runner.hpp"
#include "util/thread_pool.hpp"

namespace mdm::serve {
namespace {

obs::Registry& reg() { return obs::Registry::global(); }

double ms_between(Job::Clock::time_point a, Job::Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Per-tenant SLO counter: tenant ids are caller-controlled strings; the
/// registry JSON dump escapes them (obs/metrics.cpp).
void bump_tenant(const std::string& tenant, const char* what) {
  reg().counter("serve.tenant." + tenant + "." + what).add(1);
}

}  // namespace

SimService::SimService(ServiceConfig config)
    : config_(std::move(config)), admission_(config_.admission) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.threads_per_job < 1) config_.threads_per_job = 1;
  reg().gauge("serve.workers").set(config_.workers);
}

SimService::~SimService() { stop(); }

void SimService::start() {
  std::lock_guard lock(mutex_);
  if (started_ || stop_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

void SimService::stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
    workers.swap(workers_);
    // Running jobs stop cooperatively at their next step boundary.
    for (const auto& job : active_) job->request_cancel();
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
  // Finalize whatever is still queued (start() was never called, or jobs
  // outnumbered what the workers drained before stopping).
  std::lock_guard lock(mutex_);
  while (auto job = queue_.pop()) {
    JobResult r;
    r.state = JobState::kCancelled;
    r.error = "service stopped";
    r.wait_ms = ms_between(job->submit_time(), Job::Clock::now());
    finalize_locked(*job, std::move(r), /*was_running=*/false);
  }
  reg().gauge("serve.queue.depth").set(0);
}

JobHandle SimService::submit(const JobSpec& spec) {
  reg().counter("serve.submitted").add(1);
  bump_tenant(spec.tenant, "submitted");
  std::lock_guard lock(mutex_);
  auto job = std::make_shared<Job>(next_id_++, spec);
  // The job's trace starts here: the admission decision is its first span.
  obs::TraceContextScope trace_scope(job->trace_context());
  obs::TraceSpan admission_span("serve.admission");
  obs::FlightRecorder::record(obs::FlightKind::kNote, "serve.submit",
                              static_cast<std::int64_t>(job->id()));
  if (stop_) {
    JobResult r;
    r.state = JobState::kRejected;
    // "Overloaded" prefix: a draining service looks exactly like an
    // overloaded one to clients, so the fleet router's retry policy treats
    // both the same (back off and try another shard).
    r.error = "Overloaded: service stopped";
    job->finalize(std::move(r));
    reg().counter("serve.rejected.stopped").add(1);
    return JobHandle(job);
  }
  const auto decision = admission_.decide(spec, queue_.size());
  if (decision != AdmissionController::Decision::kAdmit) {
    JobResult r;
    r.state = JobState::kRejected;
    r.error = AdmissionController::reason(decision);
    job->finalize(std::move(r));
    reg().counter(decision == AdmissionController::Decision::kQueueFull
                      ? "serve.rejected.queue_depth"
                      : "serve.rejected.memory")
        .add(1);
    bump_tenant(spec.tenant, "rejected");
    MDM_LOG_DEBUG("serve: job %llu rejected: %s",
                  static_cast<unsigned long long>(job->id()),
                  job->snapshot().error.c_str());
    return JobHandle(job);
  }
  admission_.acquire(spec);
  queue_.push(job);
  ++unfinished_;
  reg().counter("serve.admitted").add(1);
  reg().gauge("serve.queue.depth").set(double(queue_.size()));
  reg().gauge("serve.inflight_bytes").set(double(admission_.inflight_bytes()));
  cv_.notify_one();
  return JobHandle(job);
}

void SimService::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return unfinished_ == 0; });
}

void SimService::drain_for(double timeout_ms) {
  std::unique_lock lock(mutex_);
  const auto timeout = std::chrono::duration<double, std::milli>(timeout_ms);
  if (idle_cv_.wait_for(lock, timeout, [&] { return unfinished_ == 0; }))
    return;
  // Name exactly who the drain is stuck on (running first, then queued) —
  // the serve analogue of the vmpi who-waits-on-whom deadlock dump.
  std::string who;
  int named = 0;
  for (const auto& job : active_) {
    if (!who.empty()) who += "; ";
    who += job->describe();
    ++named;
  }
  for (const auto& job : queue_.snapshot()) {
    if (!who.empty()) who += "; ";
    who += job->describe();
    ++named;
  }
  char head[96];
  std::snprintf(head, sizeof head,
                "drain timed out after %.1f ms waiting on %d job(s): ",
                timeout_ms, named);
  throw JobWaitTimeout(head + who);
}

std::size_t SimService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

int SimService::running_jobs() const {
  std::lock_guard lock(mutex_);
  return running_;
}

void SimService::finalize_locked(Job& job, JobResult result,
                                 bool was_running) {
  const std::string& tenant = job.spec().tenant;
  if (was_running) {
    --running_;
    queue_.note_finished(tenant);
    reg().gauge("serve.running").set(running_);
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      if (it->get() == &job) {
        active_.erase(it);
        break;
      }
    }
  }
  admission_.release(job.spec());
  reg().gauge("serve.inflight_bytes").set(double(admission_.inflight_bytes()));

  switch (result.state) {
    case JobState::kCompleted:
      reg().counter("serve.completed").add(1);
      bump_tenant(tenant, "completed");
      if (result.resumed_from_step > 0) reg().counter("serve.resumed").add(1);
      break;
    case JobState::kCancelled:
      reg().counter("serve.cancelled").add(1);
      bump_tenant(tenant, "cancelled");
      break;
    case JobState::kFailed:
      reg().counter("serve.failed").add(1);
      bump_tenant(tenant, "failed");
      MDM_LOG_WARN("serve: job %llu failed: %s",
                   static_cast<unsigned long long>(job.id()),
                   result.error.c_str());
      break;
    case JobState::kDeadlineExceeded:
      reg().counter("serve.shed.deadline").add(1);
      bump_tenant(tenant, "shed");
      break;
    default:
      break;
  }
  reg().histogram("serve.wait_ms").observe(result.wait_ms);
  if (was_running) {
    reg().histogram("serve.run_ms").observe(result.run_ms);
    reg().histogram("serve.total_ms")
        .observe(result.wait_ms + result.run_ms);
  }
  result.trace_id = job.trace_id();
  // Per-job span summary (DESIGN.md §10): with tracing on, aggregate this
  // job's trace by span name — queue wait, run time, checkpoint overhead,
  // per-rank phases — into serve.span.* histograms (milliseconds).
  if (obs::Trace::enabled()) {
    for (const auto& stat : obs::Trace::summarize(job.trace_id()))
      reg().histogram("serve.span." + stat.name)
          .observe(static_cast<double>(stat.total_ns) * 1e-6);
  }
  job.finalize(std::move(result));
  if (config_.on_job_done) config_.on_job_done();
  if (--unfinished_ == 0) idle_cv_.notify_all();
}

void SimService::worker_main() {
  // Each worker owns its job-sized slice; K workers x threads_per_job is
  // the hard ceiling on engine threads (the worker thread itself runs
  // chunk 0 of every fan-out, so a slice of size T uses T OS threads).
  ThreadPool slice(config_.threads_per_job);
  for (;;) {
    std::shared_ptr<Job> job;
    Job::Clock::time_point popped_tp;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to drain
      job = queue_.pop();
      reg().gauge("serve.queue.depth").set(double(queue_.size()));
      popped_tp = Job::Clock::now();
      const double wait_ms = ms_between(job->submit_time(), popped_tp);

      if (stop_ || job->cancel_requested()) {
        JobResult r;
        r.state = JobState::kCancelled;
        r.error = stop_ ? "service stopped" : "cancelled while queued";
        r.wait_ms = wait_ms;
        finalize_locked(*job, std::move(r), /*was_running=*/false);
        continue;
      }
      if (job->has_deadline() && popped_tp > job->deadline()) {
        JobResult r;
        r.state = JobState::kDeadlineExceeded;
        r.error = "DeadlineExceeded: waited " + std::to_string(wait_ms) +
                  " ms, deadline " +
                  std::to_string(job->spec().deadline_ms) + " ms";
        r.wait_ms = wait_ms;
        finalize_locked(*job, std::move(r), /*was_running=*/false);
        continue;
      }

      job->mark_running();
      queue_.note_started(job->spec().tenant);
      ++running_;
      active_.push_back(job);
      reg().gauge("serve.running").set(running_);
    }

    // ---- run outside the lock, inside the job's trace ----
    obs::TraceContextScope trace_scope(job->trace_context());
    // The queue span covers submit -> pop on the trace clock, completing
    // the admission/queue/run/complete decomposition of the job's life.
    obs::Trace::record_complete("serve.queue", job->submit_trace_ns(),
                                obs::Trace::now_ns());
    RunOptions options;
    options.pool = &slice;
    options.cancel = job->cancel_flag();
    options.checkpoint_on_cancel = config_.checkpoint_on_cancel;
    if (config_.stream_samples)
      options.on_sample = [&job](const Sample& s) {
        job->push_stream_sample(s);
      };
    JobResult result;
    const JobSpec& spec = job->spec();
    if (spec.checkpoint_interval > 0) {
      if (!spec.checkpoint_dir.empty())
        options.checkpoint_dir = spec.checkpoint_dir;
      else if (!config_.checkpoint_root.empty())
        options.checkpoint_dir = config_.checkpoint_root + "/job-" +
                                 std::to_string(job->id());
    }
    try {
      obs::TraceSpan run_span("serve.run");
      result = run_job(spec, options);
    } catch (const std::exception& e) {
      result.state = JobState::kFailed;
      result.error = e.what();
    } catch (...) {
      result.state = JobState::kFailed;
      result.error = "unknown error";
    }
    const auto finished_tp = Job::Clock::now();
    result.wait_ms = ms_between(job->submit_time(), popped_tp);
    result.run_ms = ms_between(popped_tp, finished_tp);
    {
      const std::uint64_t done_ns = obs::Trace::now_ns();
      obs::Trace::record_complete("serve.complete", done_ns, done_ns);
    }

    {
      std::lock_guard lock(mutex_);
      finalize_locked(*job, std::move(result), /*was_running=*/true);
    }
  }
}

}  // namespace mdm::serve
