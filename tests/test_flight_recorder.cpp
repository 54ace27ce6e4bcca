/// Crash flight recorder (DESIGN.md §10): ring semantics (wrap, rank
/// labels, trace tagging, recycling at thread exit), JSON dump shape, and
/// the acceptance paths — a
/// killed rank and an injected health violation each leave a dump next to
/// the checkpoints whose last events name the failing step/rank, and the
/// fatal-signal handler writes a dump before the process dies.
///
/// Deliberately NOT in the TSan CI shard (the crash-handler test forks and
/// aborts, which TSan dislikes); the recorder's lock-freedom is exercised
/// under TSan through test_obs/test_parallel_app instead.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/lattice.hpp"
#include "host/fault_injector.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace mdm {
namespace {

namespace fs = std::filesystem;
using obs::FlightEventView;
using obs::FlightKind;
using obs::FlightRecorder;

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::clear();
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("mdm_flight_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Events recorded by this thread/test, newest last.
std::vector<FlightEventView> events_with_label(const char* label) {
  std::vector<FlightEventView> all, out;
  FlightRecorder::snapshot(all);
  for (const auto& e : all)
    if (e.label && std::string(e.label) == label) out.push_back(e);
  return out;
}

TEST_F(FlightRecorderTest, RecordsOperandsRankAndOrder) {
  FlightRecorder::set_thread_rank(5);
  FlightRecorder::record(FlightKind::kStep, "fr_order", 1);
  FlightRecorder::record(FlightKind::kStep, "fr_order", 2);
  FlightRecorder::record(FlightKind::kSend, "fr_order", 3, 42);
  FlightRecorder::set_thread_rank(-1);

  const auto events = events_with_label("fr_order");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[1].a, 2);
  EXPECT_EQ(events[2].a, 3);
  EXPECT_EQ(events[2].b, 42);
  EXPECT_EQ(events[2].kind, FlightKind::kSend);
  for (const auto& e : events) EXPECT_EQ(e.rank, 5);
  // snapshot sorts by timestamp (monotone clock, same thread).
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
}

TEST_F(FlightRecorderTest, RingKeepsTheNewestCapacityEvents) {
  const std::uint64_t before = FlightRecorder::recorded_count();
  constexpr int kTotal = int(FlightRecorder::kRingCapacity) + 100;
  for (int i = 0; i < kTotal; ++i)
    FlightRecorder::record(FlightKind::kStep, "fr_wrap", i);
  EXPECT_EQ(FlightRecorder::recorded_count(), before + kTotal);

  const auto events = events_with_label("fr_wrap");
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
  // The oldest 100 were overwritten; the survivors are the newest, in
  // order.
  EXPECT_EQ(events.front().a, 100);
  EXPECT_EQ(events.back().a, kTotal - 1);
}

TEST_F(FlightRecorderTest, PerThreadRingsMergeInOneSnapshot) {
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t)
    workers.emplace_back([t] {
      FlightRecorder::set_thread_rank(t);
      for (int i = 0; i < 10; ++i)
        FlightRecorder::record(FlightKind::kStep, "fr_threads", i);
    });
  for (auto& w : workers) w.join();

  const auto events = events_with_label("fr_threads");
  ASSERT_EQ(events.size(), 30u);
  bool saw_rank[3] = {};
  for (const auto& e : events)
    if (e.rank >= 0 && e.rank < 3) saw_rank[e.rank] = true;
  EXPECT_TRUE(saw_rank[0] && saw_rank[1] && saw_rank[2]);
}

/// Every exiting thread hands its ring back: sequential short-lived threads
/// share one ring instead of leaking one each and, past the registry cap,
/// silently losing their events.
TEST_F(FlightRecorderTest, ShortLivedThreadsRecycleRings) {
  FlightRecorder::record(FlightKind::kNote, "fr_main");  // own ring first
  const std::size_t rings_before = FlightRecorder::ring_count();
  constexpr int kThreads = 2000;
  for (int t = 0; t < kThreads; ++t)
    std::thread([t] {
      FlightRecorder::record(FlightKind::kStep, "fr_short", t);
    }).join();
  // Peak concurrency is one recording thread beside this one.
  EXPECT_LE(FlightRecorder::ring_count(), rings_before + 1);

  const auto events = events_with_label("fr_short");
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().a, kThreads - 1);  // the last thread's event
}

TEST_F(FlightRecorderTest, DisabledDropsEventsButKeepsRankLabels) {
  FlightRecorder::set_enabled(false);
  FlightRecorder::set_thread_rank(9);  // must stick while disabled
  FlightRecorder::record(FlightKind::kNote, "fr_disabled");
  FlightRecorder::set_enabled(true);
  EXPECT_TRUE(events_with_label("fr_disabled").empty());
  FlightRecorder::record(FlightKind::kNote, "fr_reenabled");
  const auto events = events_with_label("fr_reenabled");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rank, 9);
  FlightRecorder::set_thread_rank(-1);
}

TEST_F(FlightRecorderTest, JsonDumpParsesAndEscapesLabels) {
  FlightRecorder::record_trace(FlightKind::kRecv, 0xabcdef,
                               "fr_json\"quote\\back", 3, 7);
  ASSERT_TRUE(FlightRecorder::write_json_file(path("flight.json")));
  const auto doc = obs::parse_json_file(path("flight.json"));
  bool found = false;
  for (const auto& e : doc.at("flight").as_array()) {
    if (!e.find("label") ||
        e.at("label").as_string() != "fr_json\"quote\\back")
      continue;
    found = true;
    EXPECT_EQ(e.at("kind").as_string(), "recv");
    EXPECT_EQ(e.at("trace").as_string(), "abcdef");
    EXPECT_EQ(e.at("a").as_number(), 3.0);
    EXPECT_EQ(e.at("b").as_number(), 7.0);
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------ parallel-app dump paths

ParticleSystem initial_state(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  assign_maxwell_velocities(sys, 1200.0, seed);
  return sys;
}

host::ParallelAppConfig small_config(const ParticleSystem& sys,
                                     const std::string& checkpoint_dir) {
  host::ParallelAppConfig cfg;
  cfg.real_processes = 2;
  cfg.wn_processes = 1;
  cfg.protocol.nvt_steps = 4;
  cfg.protocol.nve_steps = 0;
  cfg.ewald = host::mdm_parameters(double(sys.size()), sys.box());
  cfg.mdgrape_boards_per_process = 1;
  cfg.wine_boards_per_process = 1;
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.checkpoint_interval = 2;
  return cfg;
}

/// Acceptance: a killed rank leaves flight_failure.json whose last events
/// include the injected failure's step and rank.
TEST_F(FlightRecorderTest, KilledRankDumpNamesFailingStepAndRank) {
  const auto sys = initial_state(2, 11);
  auto cfg = small_config(sys, dir_.string());
  vmpi::FaultInjector injector(1);
  vmpi::FaultRule rule;
  rule.kind = vmpi::FaultRule::Kind::kFailRank;
  rule.rank = 1;
  rule.step = 2;
  injector.add_rule(rule);
  cfg.fault_injector = &injector;

  host::MdmParallelApp app(cfg);
  EXPECT_THROW(app.run(sys), std::runtime_error);

  const std::string dump = path("flight_failure.json");
  ASSERT_TRUE(fs::exists(dump));
  const auto doc = obs::parse_json_file(dump);
  bool found = false;
  for (const auto& e : doc.at("flight").as_array()) {
    if (e.at("kind").as_string() != "rank_fail") continue;
    found = true;
    EXPECT_EQ(e.at("a").as_number(), 2.0);  // failing step
    EXPECT_EQ(e.at("b").as_number(), 1.0);  // failing rank
    EXPECT_EQ(e.at("rank").as_number(), 1.0);
  }
  EXPECT_TRUE(found) << "no rank_fail event in " << dump;
}

/// Each run spawns fresh rank threads; their rings are recycled, so back-to-
/// back runs (a served job stream) do not grow the registry.
TEST_F(FlightRecorderTest, RepeatedAppRunsDoNotGrowRingCount) {
  const auto sys = initial_state(2, 13);
  auto cfg = small_config(sys, "");
  cfg.wn_processes = 2;
  cfg.protocol.nvt_steps = 1;
  cfg.checkpoint_interval = 0;
  host::MdmParallelApp app(cfg);
  app.run(sys);  // warm-up: any lazily started worker threads exist now
  const std::size_t rings = FlightRecorder::ring_count();
  for (int run = 0; run < 20; ++run) {
    FlightRecorder::clear();
    app.run(sys);
  }
  EXPECT_EQ(FlightRecorder::ring_count(), rings);

  // And the last run's rank threads still recorded (none was left without
  // a ring).
  std::vector<FlightEventView> events;
  FlightRecorder::snapshot(events);
  bool saw_rank[3] = {};
  for (const auto& e : events)
    if (e.rank >= 0 && e.rank < 3) saw_rank[e.rank] = true;
  EXPECT_TRUE(saw_rank[0] && saw_rank[1] && saw_rank[2]);
}

/// Acceptance: an injected health violation leaves flight_health.json whose
/// last events include the health sample with the failing step.
TEST_F(FlightRecorderTest, HealthViolationDumpNamesFailingStep) {
  const auto sys = initial_state(2, 12);
  auto cfg = small_config(sys, dir_.string());
  cfg.health.max_temperature_K = 1.0;  // ~1200 K run: trips immediately

  host::MdmParallelApp app(cfg);
  EXPECT_THROW(app.run(sys), SimulationHealthError);

  const std::string dump = path("flight_health.json");
  ASSERT_TRUE(fs::exists(dump));
  const auto doc = obs::parse_json_file(dump);
  bool found = false;
  for (const auto& e : doc.at("flight").as_array()) {
    if (e.at("kind").as_string() != "health") continue;
    found = true;
    EXPECT_EQ(e.at("label").as_string(), "temperature");
    EXPECT_GE(e.at("a").as_number(), 0.0);  // failing step
  }
  EXPECT_TRUE(found) << "no health event in " << dump;
}

// ------------------------------------------------------ fatal-signal path

/// Acceptance: the crash handler dumps the rings with async-signal-safe
/// code before the process dies of the original signal. Forked so the
/// parent survives the SIGABRT.
TEST_F(FlightRecorderTest, CrashHandlerDumpsOnFatalSignal) {
  const std::string dump = path("flight_crash.json");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record context, install the handler, die.
    FlightRecorder::set_thread_rank(7);
    FlightRecorder::record(FlightKind::kNote, "fr_pre_crash", 123);
    FlightRecorder::install_crash_handler(dump);
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);  // handler re-raised the signal

  ASSERT_TRUE(fs::exists(dump));
  const auto doc = obs::parse_json_file(dump);
  EXPECT_EQ(doc.at("signal").as_number(), double(SIGABRT));
  bool found = false;
  for (const auto& e : doc.at("flight").as_array()) {
    if (!e.find("label") || e.at("label").as_string() != "fr_pre_crash")
      continue;
    found = true;
    EXPECT_EQ(e.at("a").as_number(), 123.0);
    EXPECT_EQ(e.at("rank").as_number(), 7.0);
  }
  EXPECT_TRUE(found) << "pre-crash event missing from " << dump;
}

}  // namespace
}  // namespace mdm
