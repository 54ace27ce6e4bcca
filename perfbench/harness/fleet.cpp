// fleet_open_loop: a seeded Poisson schedule of distinct native N = 216
// jobs offered to a serve::fleet::Router with two forked mdm_shardd shards
// (1 worker x 1 thread each), result cache off. One thread generates the
// load and polls for completions; each job's latency runs from its due
// time on the schedule to the moment its result is observed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/fleet/router.hpp"
#include "serve/runner.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mdm;
namespace fs = std::filesystem;

constexpr int kShards = 2;
constexpr int kCells = 3;  // N = 216
constexpr int kNvtSteps = 20;
constexpr int kNveSteps = 20;
constexpr int kCheckpointEvery = 10;
/// Offered rate, jobs/s: about 0.3 of what two single-thread shards
/// complete (~20 jobs/s). A job waits with probability ~rho, so at half
/// capacity the median would sit on the edge between queued and unqueued
/// jobs and jump between runs (README.md, steadiness lessons).
constexpr double kRatePerS = 6.0;
/// Threads running the standalone reference jobs after the measurement.
constexpr int kReferenceThreads = 3;
constexpr int kSetupReps = 5;
constexpr int kWarmupJobs = 4;
constexpr double kPollUs = 1000.0;

serve::JobSpec job_spec(std::uint64_t seed, int nvt, int nve) {
  serve::JobSpec spec;
  spec.tenant = "loadgen";
  spec.cells = kCells;
  spec.nvt_steps = nvt;
  spec.nve_steps = nve;
  spec.seed = seed;
  spec.backend = Backend::kNative;
  spec.checkpoint_interval = kCheckpointEvery;
  return spec;
}

serve::fleet::FleetConfig fleet_config(const std::string& root) {
  serve::fleet::FleetConfig c;
  c.shards = kShards;
  c.workers_per_shard = 1;
  c.threads_per_job = 1;
  c.root = root;
  c.cache_enabled = false;
  return c;
}

/// The load generator's schedule: due offsets (s) and per-job velocity
/// seeds, both drawn from the workload seed only.
struct Schedule {
  std::vector<double> due_s;
  std::vector<std::uint64_t> job_seed;
};

Schedule make_schedule(std::uint64_t seed, double seconds,
                       std::uint64_t stream) {
  Schedule s;
  Random rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / kRatePerS;
    if (t >= seconds) break;
    s.due_s.push_back(t);
    // Distinct per job and per run: no two specs share a canonical key.
    s.job_seed.push_back(seed * 1'000'003ULL + stream * 100'000ULL +
                         s.job_seed.size() + 1);
  }
  return s;
}

struct Outcome {
  std::vector<serve::JobSpec> specs;
  std::vector<serve::JobHandle> handles;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
};

/// Offer `schedule` open loop: submit each job at its due time regardless
/// of completions, and timestamp completions by polling between arrivals.
Outcome offer(serve::fleet::Router& router, const Schedule& schedule) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  const std::size_t jobs = schedule.due_s.size();
  out.latency_ms.assign(jobs, 0.0);
  std::vector<Clock::time_point> due(jobs);
  std::vector<bool> done(jobs, false);
  std::size_t next = 0, finished = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; j < jobs; ++j)
    due[j] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule.due_s[j]));
  while (finished < jobs) {
    const Clock::time_point now = Clock::now();
    if (next < jobs && now >= due[next]) {
      out.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due[next]).count());
      out.specs.push_back(job_spec(schedule.job_seed[next], kNvtSteps,
                                   kNveSteps));
      out.handles.push_back(router.submit(out.specs.back()));
      ++next;
      continue;
    }
    for (std::size_t j = 0; j < next; ++j) {
      if (done[j] || !out.handles[j].done()) continue;
      done[j] = true;
      ++finished;
      out.latency_ms[j] =
          std::chrono::duration<double, std::milli>(Clock::now() - due[j])
              .count();
    }
    Clock::time_point wake =
        Clock::now() + std::chrono::microseconds(long(kPollUs));
    if (next < jobs && due[next] < wake) wake = due[next];
    std::this_thread::sleep_until(wake);
  }
  return out;
}

bool same_result(const serve::JobResult& a, const serve::JobResult& b) {
  if (a.samples.size() != b.samples.size() ||
      a.positions.size() != b.positions.size() ||
      a.velocities.size() != b.velocities.size())
    return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const Sample& x = a.samples[i];
    const Sample& y = b.samples[i];
    if (x.step != y.step || x.time_ps != y.time_ps ||
        x.temperature_K != y.temperature_K || x.kinetic_eV != y.kinetic_eV ||
        x.potential_eV != y.potential_eV || x.total_eV != y.total_eV ||
        x.pressure_GPa != y.pressure_GPa)
      return false;
  }
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    const Vec3 &p = a.positions[i], &q = b.positions[i];
    const Vec3 &v = a.velocities[i], &w = b.velocities[i];
    if (p.x != q.x || p.y != q.y || p.z != q.z || v.x != w.x ||
        v.y != w.y || v.z != w.z)
      return false;
  }
  return true;
}

double dir_bytes(const fs::path& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) bytes += double(e.file_size(ec));
  return bytes;
}

}  // namespace

void run_fleet_open_loop(const Options& options, Report& report) {
  const std::string root =
      options.work_dir + "/fleet-root-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(root, ec);
  report.info("N", double(nacl_ion_count(kCells)));
  report.info("backend", "native");
  report.info("solver", "ewald-sf");
  report.info("shards_x_workers_x_threads", "2x1x1");
  report.info("job_steps", double(kNvtSteps + kNveSteps));
  report.info("checkpoint_every", double(kCheckpointEvery));
  report.info("offered_rate_per_s", kRatePerS);
  report.info("fleet_root", root);
  report.info("setup_reps", double(kSetupReps));

  auto& reg = obs::Registry::global();
  const std::uint64_t hits0 = reg.counter_value("fleet.cache.hits");
  const std::uint64_t rejected0 = reg.counter_value("fleet.rejected");

  // Set-up: router construction + shard spawn + the first job's result.
  std::vector<double> setup_s, spawn_s;
  std::unique_ptr<serve::fleet::Router> router;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    router.reset();
    const double t0 = now_s();
    router = std::make_unique<serve::fleet::Router>(fleet_config(root));
    router->start();
    spawn_s.push_back(now_s() - t0);
    const auto first = router->submit(job_spec(1000 + rep, 0, 1));
    first.wait();
    setup_s.push_back(now_s() - t0);
  }
  report.info("fleet_root_fs", filesystem_type(root));
  for (int w = 0; w < kWarmupJobs; ++w)
    router->submit(job_spec(2000 + w, kNvtSteps, kNveSteps)).wait();

  std::vector<Outcome> phases;
  if (!options.trace) {
    phases.push_back(offer(*router, make_schedule(options.seed,
                                                  options.seconds, 0)));
  } else {
    phases.push_back(offer(*router, make_schedule(options.seed,
                                                  options.seconds / 2, 1)));
    obs::Trace::set_enabled(true);
    phases.push_back(offer(*router, make_schedule(options.seed,
                                                  options.seconds / 2, 2)));
    obs::Trace::set_enabled(false);
  }
  router->drain();
  double rss = self_peak_rss_mb();
  for (int s = 0; s < kShards; ++s) rss += peak_rss_mb(router->shard_pid(s));

  // Results: every job completed, none rejected or lost, each bit-identical
  // to the standalone run_job of its spec (run after the measurement).
  struct Done {
    const serve::JobSpec* spec;
    serve::JobResult result;
    double latency_ms;
    std::uint64_t id;
  };
  std::vector<Done> done;
  long long jobs = 0, not_completed = 0;
  for (const Outcome& o : phases) {
    for (std::size_t j = 0; j < o.handles.size(); ++j) {
      ++jobs;
      serve::JobResult r = o.handles[j].wait();
      if (r.state != serve::JobState::kCompleted) {
        ++not_completed;
        continue;
      }
      done.push_back({&o.specs[j], std::move(r), o.latency_ms[j],
                      o.handles[j].id()});
    }
  }
  std::vector<char> diverged(done.size(), 0);
  std::vector<double> reference_ms(done.size(), 0.0);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kReferenceThreads; ++t)
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < done.size(); i += kReferenceThreads) {
          try {
            const double t0 = now_s();
            const serve::JobResult reference = serve::run_job(*done[i].spec);
            reference_ms[i] = (now_s() - t0) * 1e3;
            diverged[i] = !same_result(done[i].result, reference);
          } catch (const std::exception&) {
            diverged[i] = 1;  // no reference: the result is unconfirmed
          }
        }
      });
    for (auto& w : workers) w.join();
  }
  std::vector<double> wait_ms, run_ms, route_ms, ckpt_bytes;
  for (const Done& d : done) {
    wait_ms.push_back(d.result.wait_ms);
    run_ms.push_back(d.result.run_ms);
    route_ms.push_back(d.latency_ms - d.result.wait_ms - d.result.run_ms);
    ckpt_bytes.push_back(dir_bytes(root + "/job-" + std::to_string(d.id)));
  }
  long long diverged_count = 0;
  for (const char d : diverged) diverged_count += d;
  router.reset();
  fs::remove_all(root, ec);
  report.operations(jobs, not_completed);
  const double cache_hits =
      double(reg.counter_value("fleet.cache.hits") - hits0);
  const double rejected = double(reg.counter_value("fleet.rejected") - rejected0);
  report.check("fleet_jobs_completed", not_completed == 0 && rejected == 0,
               std::to_string(jobs - not_completed) + "/" +
                   std::to_string(jobs) + " completed, " +
                   std::to_string(long(rejected)) + " rejected");
  report.check("fleet_bit_identical", diverged_count == 0,
               std::to_string(diverged_count) + " of " + std::to_string(jobs) +
                   " differ from standalone run_job");
  report.check("fleet_cache_bypassed", cache_hits == 0,
               "fleet.cache.hits = " + std::to_string(long(cache_hits)));

  const Outcome& last = phases.back();
  const double n = double(nacl_ion_count(kCells));
  std::vector<double> latency_ms;
  for (const Outcome& o : phases)
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
  report.latency(latency_ms, 0.5, options.trace);
  // The same specs run standalone in this process without checkpoints:
  // what a job costs without the fleet's queue, wire and checkpoint path.
  report.info("standalone_job_ms_p50", median(reference_ms));
  if (!options.trace) {
    report.metric("particle_steps_per_s",
                  n * (kNvtSteps + kNveSteps) / (median(run_ms) * 1e-3));
    report.metric("setup_s", median(setup_s));
    report.metric("peak_rss_mb", rss);
  } else {
    report.metric("fleet.wait_ms_p50", median(wait_ms));
    report.metric("fleet.run_ms_p50", median(run_ms));
    report.metric("fleet.route_ms_p50", median(route_ms));
    report.metric("fleet.ckpt_bytes_per_job", median(ckpt_bytes));
    report.metric("fleet.cache_hits", cache_hits);
    report.metric("loadgen.late_ms_p50", median(last.late_ms));
    double late_max = 0.0;
    for (const double l : last.late_ms) late_max = std::max(late_max, l);
    report.metric("loadgen.late_ms_max", late_max);
    report.metric("setup.spawn_s", median(spawn_s));
    const double untraced_p50 = median(phases[0].latency_ms);
    report.metric("trace.overhead_pct",
                  untraced_p50 > 0
                      ? (median(last.latency_ms) / untraced_p50 - 1.0) * 100.0
                      : 0.0);
  }
}

}  // namespace perfbench
