/// \file test_fleet.cpp
/// The sharded serving fleet (DESIGN.md §13): process-isolated shards with
/// bit-identical results vs standalone runs, streamed chunked result
/// polling, the deterministic result cache (hits + in-flight coalescing),
/// kill -9 failover with checkpoint-manifest resume (zero lost jobs),
/// SIGTERM graceful drain (exit 0 + rerouting), and bounded Overloaded
/// retry with backoff.
///
/// Every test forks real `mdm_shardd` processes (path baked in via
/// MDM_SHARDD_PATH), so this suite also covers the wire protocol and the
/// supervisor end to end.

#include "serve/fleet/router.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/runner.hpp"

namespace mdm::serve::fleet {
namespace {

namespace fs = std::filesystem;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

void expect_samples_equal(const Sample& a, const Sample& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.time_ps, b.time_ps);
  EXPECT_EQ(a.temperature_K, b.temperature_K);
  EXPECT_EQ(a.kinetic_eV, b.kinetic_eV);
  EXPECT_EQ(a.potential_eV, b.potential_eV);
  EXPECT_EQ(a.total_eV, b.total_eV);
  EXPECT_EQ(a.pressure_GPa, b.pressure_GPa);
}

void expect_result_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    expect_samples_equal(a.samples[i], b.samples[i]);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << "i=" << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << "i=" << i;
    EXPECT_EQ(a.positions[i].z, b.positions[i].z) << "i=" << i;
  }
  ASSERT_EQ(a.velocities.size(), b.velocities.size());
  for (std::size_t i = 0; i < a.velocities.size(); ++i) {
    EXPECT_EQ(a.velocities[i].x, b.velocities[i].x) << "i=" << i;
    EXPECT_EQ(a.velocities[i].y, b.velocities[i].y) << "i=" << i;
    EXPECT_EQ(a.velocities[i].z, b.velocities[i].z) << "i=" << i;
  }
}

/// Tiny but non-trivial workload (64 ions, full Ewald).
JobSpec small_spec() {
  JobSpec spec;
  spec.cells = 2;
  spec.nvt_steps = 3;
  spec.nve_steps = 3;
  spec.seed = 11;
  return spec;
}

/// Long enough that a kill/drain raced against the run lands mid-trajectory.
JobSpec long_spec() {
  JobSpec spec;
  spec.cells = 2;
  spec.nvt_steps = 200;
  spec.nve_steps = 0;
  spec.seed = 5;
  return spec;
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("mdm_fleet_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  FleetConfig fleet_config(int shards, int workers_per_shard = 2) const {
    FleetConfig config;
    config.shards = shards;
    config.workers_per_shard = workers_per_shard;
    config.threads_per_job = 1;
    config.root = (dir_ / "fleet").string();
    config.heartbeat_ms = 20.0;
    return config;
  }

  /// Block until `dir` holds a completed file with the given prefix (e.g.
  /// the first manifest generation of a running fleet job). Requires the
  /// final ".mdm" suffix: the atomic-write ".tmp" of an in-progress write
  /// must not count — a kill racing the rename would find no valid pair.
  static void wait_for_file(const std::string& dir, const char* prefix) {
    for (;;) {
      if (fs::exists(dir))
        for (const auto& e : fs::directory_iterator(dir)) {
          const std::string name = e.path().filename().string();
          if (name.rfind(prefix, 0) == 0 && name.size() > 4 &&
              name.compare(name.size() - 4, 4, ".mdm") == 0)
            return;
        }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Bit-identity and streaming.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, FleetResultBitIdenticalToStandalone) {
  const JobSpec spec = small_spec();
  const JobResult reference = run_job(spec);  // serial, in-process

  Router router(fleet_config(2));
  router.start();
  const JobResult served = router.submit(spec).wait();
  ASSERT_EQ(served.state, JobState::kCompleted);
  EXPECT_EQ(served.completed_steps, spec.total_steps());
  expect_result_equal(served, reference);
}

TEST_F(FleetTest, ChunksStreamWhileTheJobStillRuns) {
  Router router(fleet_config(1, 1));
  router.start();
  auto handle = router.submit(long_spec());

  // Poll for chunks; at least one must arrive strictly before completion.
  std::size_t cursor = 0;
  std::vector<Sample> streamed;
  bool saw_chunk_before_done = false;
  while (!handle.done()) {
    auto chunk = handle.poll_samples(cursor);
    if (!chunk.empty() && !handle.done()) saw_chunk_before_done = true;
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JobResult result = handle.wait();
  ASSERT_EQ(result.state, JobState::kCompleted);
  EXPECT_TRUE(saw_chunk_before_done);

  // After completion the stream converges to the full trajectory, in step
  // order and bit-identical to the result samples.
  auto tail = handle.poll_samples(cursor);
  streamed.insert(streamed.end(), tail.begin(), tail.end());
  ASSERT_EQ(streamed.size(), result.samples.size());
  for (std::size_t i = 0; i < streamed.size(); ++i)
    expect_samples_equal(streamed[i], result.samples[i]);
}

TEST_F(FleetTest, FinishedJobIsReportedWithoutWaitingForThePollTimeout) {
  // The shard's poll wakes when a job finishes, instead of at its 20 ms
  // chunk cadence. Heartbeats are slowed so no ping wakes it either.
  FleetConfig config = fleet_config(1, 1);
  config.heartbeat_ms = 1000.0;
  Router router(config);
  router.start();
  // 216 ions: the step takes long enough that the job is still running
  // when the shard has answered its submission.
  JobSpec spec = small_spec();
  spec.cells = 3;
  spec.nvt_steps = 0;
  spec.nve_steps = 1;
  // The reporting delay: round trip less the job's own wait and run time
  // in the shard (which sanitizer builds stretch).
  std::vector<double> delay_ms;
  for (int k = 0; k < 9; ++k) {
    spec.seed = 100 + k;  // distinct jobs, so none is a cache hit
    const auto t0 = std::chrono::steady_clock::now();
    const JobResult result = router.submit(spec).wait();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ASSERT_EQ(result.state, JobState::kCompleted);
    delay_ms.push_back(ms - result.wait_ms - result.run_ms);
  }
  std::sort(delay_ms.begin(), delay_ms.end());
  EXPECT_LT(delay_ms[4], 10.0) << "median of 9 one-step jobs";
}

// ---------------------------------------------------------------------------
// Deterministic result cache.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, IdenticalResubmissionIsACacheHit) {
  const std::uint64_t hits0 = counter("fleet.cache.hits");
  Router router(fleet_config(1, 1));
  router.start();

  const JobSpec spec = small_spec();
  const JobResult first = router.submit(spec).wait();
  ASSERT_EQ(first.state, JobState::kCompleted);

  // Same physics under a different tenant/class: still the same canonical
  // key, so the second submission is answered from the cache.
  JobSpec again = spec;
  again.tenant = "someone-else";
  again.job_class = JobClass::kInteractive;
  const JobResult second = router.submit(again).wait();
  ASSERT_EQ(second.state, JobState::kCompleted);
  EXPECT_EQ(counter("fleet.cache.hits") - hits0, 1u);
  expect_result_equal(second, first);
}

TEST_F(FleetTest, DuplicateInFlightSubmissionCoalesces) {
  const std::uint64_t coalesced0 = counter("fleet.cache.coalesced");
  Router router(fleet_config(1, 1));
  router.start();

  const JobSpec spec = long_spec();
  auto primary = router.submit(spec);
  auto follower = router.submit(spec);  // identical while primary runs
  const JobResult a = primary.wait();
  const JobResult b = follower.wait();
  ASSERT_EQ(a.state, JobState::kCompleted);
  ASSERT_EQ(b.state, JobState::kCompleted);
  EXPECT_EQ(counter("fleet.cache.coalesced") - coalesced0, 1u);
  expect_result_equal(b, a);

  // The follower's stream converges to the full trajectory too.
  std::size_t cursor = 0;
  EXPECT_EQ(follower.poll_samples(cursor).size(), b.samples.size());
}

TEST_F(FleetTest, CanonicalKeySeparatesDifferentPhysics) {
  JobSpec a = small_spec();
  JobSpec b = small_spec();
  b.seed = a.seed + 1;
  EXPECT_NE(canonical_job_key(a), canonical_job_key(b));
  JobSpec c = a;
  c.tenant = "other";
  c.deadline_ms = 123.0;
  c.checkpoint_dir = "/somewhere/else";
  EXPECT_EQ(canonical_job_key(a), canonical_job_key(c));
}

/// Regression: the duplicate-detection key must incorporate the FULL
/// scenario text. Before the fix two jobs with identical fixed-melt fields
/// but different scenario payloads collided in the result cache — the
/// second tenant got the first tenant's trajectory.
TEST_F(FleetTest, CanonicalKeySeparatesScenarioPayloads) {
  const char* kScenario = R"([scenario]
name = "lj"
[species.Ar]
mass = 39.948
sigma = 3.405
eps = 0.0104
count = 16
[system]
kind = "random"
box = 20.0
seed = 3
[forcefield]
kind = "lennard-jones"
coulomb = false
r_cut = 8.0
[run]
dt_fs = 4.0
equilibration = 2
production = 4
temperature_K = 120.0
)";
  JobSpec plain = small_spec();
  JobSpec with_scenario = small_spec();
  with_scenario.scenario = kScenario;
  EXPECT_NE(canonical_job_key(plain), canonical_job_key(with_scenario));

  // Different physics inside the scenario text -> different key, even
  // though every fixed JobSpec field is identical.
  JobSpec other_physics = with_scenario;
  other_physics.scenario = std::string(kScenario);
  const std::size_t at = other_physics.scenario.find("seed = 3");
  ASSERT_NE(at, std::string::npos);
  other_physics.scenario.replace(at, 8, "seed = 4");
  EXPECT_NE(canonical_job_key(with_scenario),
            canonical_job_key(other_physics));

  // Cosmetic differences (comments, spacing) canonicalise away, and the
  // analysis output directory is routing, not physics.
  JobSpec cosmetic = with_scenario;
  cosmetic.scenario = "# a comment\n" + std::string(kScenario);
  cosmetic.analysis_dir = "/tmp/elsewhere";
  EXPECT_EQ(canonical_job_key(with_scenario), canonical_job_key(cosmetic));
}

/// Scenario jobs run end to end through the fleet: submit twice, the second
/// is a cache hit with the identical trajectory.
TEST_F(FleetTest, ScenarioJobRunsAndCachesThroughFleet) {
  const std::uint64_t hits0 = counter("fleet.cache.hits");
  Router router(fleet_config(1, 1));
  router.start();

  JobSpec spec;
  spec.scenario = R"([scenario]
name = "lj-fleet"
[species.Ar]
mass = 39.948
sigma = 3.405
eps = 0.0104
count = 24
[system]
kind = "random"
box = 24.0
seed = 6
[forcefield]
kind = "lennard-jones"
coulomb = false
r_cut = 8.0
[run]
dt_fs = 4.0
equilibration = 3
production = 5
temperature_K = 120.0
)";
  const JobResult first = router.submit(spec).wait();
  ASSERT_EQ(first.state, JobState::kCompleted) << first.error;
  EXPECT_EQ(first.positions.size(), 24u);
  EXPECT_FALSE(first.samples.empty());

  JobSpec again = spec;
  again.tenant = "other";  // key ignores tenant, cache must hit
  const JobResult second = router.submit(again).wait();
  ASSERT_EQ(second.state, JobState::kCompleted);
  EXPECT_EQ(counter("fleet.cache.hits") - hits0, 1u);
  expect_result_equal(second, first);
}

// ---------------------------------------------------------------------------
// Failover: kill -9 mid-run loses zero jobs, results stay bit-identical.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, ShardKillMigratesJobWithCheckpointResume) {
  const std::uint64_t failovers0 = counter("fleet.failovers");
  const std::uint64_t migrated0 = counter("fleet.migrated");

  FleetConfig config = fleet_config(2, 1);
  Router router(config);
  router.start();

  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;
  auto handle = router.submit(spec);

  // Deterministic placement: probe 0 of the canonical hash.
  const int victim =
      static_cast<int>(canonical_job_hash(spec) % std::uint64_t(2));
  const std::string job_dir =
      config.root + "/job-" + std::to_string(handle.id());
  wait_for_file(job_dir, "manifest.");  // a resume pair is on disk
  ASSERT_TRUE(router.signal_shard(victim, SIGKILL));

  const JobResult result = handle.wait();  // zero lost jobs: this returns
  ASSERT_EQ(result.state, JobState::kCompleted);
  EXPECT_GT(result.resumed_from_step, 0u);
  EXPECT_EQ(result.completed_steps, spec.total_steps());
  EXPECT_GE(counter("fleet.failovers") - failovers0, 1u);
  EXPECT_GE(counter("fleet.migrated") - migrated0, 1u);

  // The migrated result is the complete trajectory, bit-identical to an
  // uninterrupted standalone run (manifest prefix + resumed suffix).
  JobSpec plain = spec;
  plain.checkpoint_interval = 0;
  const JobResult reference = run_job(plain);
  expect_result_equal(result, reference);

  // The supervisor restarted the dead slot.
  for (int i = 0; i < 2000 && router.alive_shards() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(router.alive_shards(), 2);
}

// ---------------------------------------------------------------------------
// Graceful drain: SIGTERM checkpoints, rejects new work, exits 0.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, SigtermDrainExitsZeroAndReroutesJobs) {
  const std::uint64_t migrated0 = counter("fleet.migrated");

  FleetConfig config = fleet_config(2, 1);
  Router router(config);
  router.start();

  JobSpec spec = long_spec();
  spec.checkpoint_interval = 5;
  auto handle = router.submit(spec);
  const int victim =
      static_cast<int>(canonical_job_hash(spec) % std::uint64_t(2));
  const std::string job_dir =
      config.root + "/job-" + std::to_string(handle.id());
  wait_for_file(job_dir, "manifest.");
  ASSERT_TRUE(router.signal_shard(victim, SIGTERM));

  const JobResult result = handle.wait();
  ASSERT_EQ(result.state, JobState::kCompleted);  // rerouted, not lost
  EXPECT_GT(result.resumed_from_step, 0u);
  EXPECT_GE(counter("fleet.migrated") - migrated0, 1u);

  // Drain means a clean exit: status 0, not a crash.
  std::optional<int> status;
  for (int i = 0; i < 5000; ++i) {
    status = router.shard_exit_status(victim);
    if (status.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, 0);

  JobSpec plain = spec;
  plain.checkpoint_interval = 0;
  expect_result_equal(result, run_job(plain));
}

// ---------------------------------------------------------------------------
// Retry with backoff on Overloaded.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, OverloadedSubmissionsRetryUntilCapacityFrees) {
  const std::uint64_t retries0 = counter("fleet.retries");

  FleetConfig config = fleet_config(1, 1);
  config.shard_queue_cap = 1;   // one running + one queued, rest rejected
  config.retry_max_attempts = 50;
  config.retry_base_ms = 10.0;
  config.retry_max_ms = 50.0;
  config.cache_enabled = false;  // distinct work per job, no coalescing
  Router router(config);
  router.start();

  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec = small_spec();
    spec.seed = std::uint64_t(100 + i);  // distinct canonical keys
    handles.push_back(router.submit(spec));
  }
  for (auto& handle : handles)
    EXPECT_EQ(handle.wait().state, JobState::kCompleted);
  // The shard's 1-deep queue forced at least one Overloaded round trip.
  EXPECT_GE(counter("fleet.retries") - retries0, 1u);
}

TEST_F(FleetTest, RetryBudgetBoundsOverloadedRejections) {
  FleetConfig config = fleet_config(1, 1);
  config.shard_queue_cap = 0;  // shard admission rejects everything
  config.retry_max_attempts = 2;
  config.retry_base_ms = 1.0;
  config.retry_max_ms = 2.0;
  config.cache_enabled = false;
  Router router(config);
  router.start();

  const std::uint64_t retries0 = counter("fleet.retries");
  const JobResult result = router.submit(small_spec()).wait();
  EXPECT_EQ(result.state, JobState::kRejected);
  EXPECT_NE(result.error.find("Overloaded"), std::string::npos);
  EXPECT_EQ(counter("fleet.retries") - retries0, 2u);  // budget, then stop
}

// ---------------------------------------------------------------------------
// Drain with deadline names the stuck jobs.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, DrainForTimeoutNamesOutstandingJobs) {
  Router router(fleet_config(1, 1));
  router.start();
  JobSpec spec = long_spec();
  spec.tenant = "alice";
  router.submit(spec);
  try {
    router.drain_for(1.0);
    FAIL() << "drain_for must time out with the long job still running";
  } catch (const JobWaitTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alice"), std::string::npos) << what;
    EXPECT_NE(what.find("job"), std::string::npos) << what;
  }
  router.drain();  // and a full drain still completes cleanly
}

}  // namespace
}  // namespace mdm::serve::fleet
