/// \file test_fault_tolerance.cpp
/// Failure model of the virtual fabric (DESIGN.md): rank-failure
/// propagation, recv deadlines, fault injection (message drop/duplicate/
/// delay, rank and board failures) and the host's graceful degradation.
/// The bug class under regression: one throwing rank used to leave every
/// peer blocked in recv/barrier forever, deadlocking the app and CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/lattice.hpp"
#include "host/domain.hpp"
#include "host/fault_injector.hpp"
#include "host/mdm_force_field.hpp"
#include "host/parallel_app.hpp"
#include "host/vmpi.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace mdm {
namespace {

using vmpi::Communicator;
using vmpi::FaultInjector;
using vmpi::FaultRule;
using vmpi::PeerFailedError;
using vmpi::RecvTimeoutError;
using vmpi::World;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter_value(name);
}

/// ------------------------- fabric-level failure --------------------------

TEST(FaultTolerance, RankExceptionPropagatesWithoutHanging) {
  // Pre-fix behaviour: ranks 0, 1 and 3 block forever in recv; World::run
  // joins never return. Post-fix: the failure poisons every mailbox, peers
  // raise PeerFailedError naming rank 2, and run rethrows the original.
  World world(4);
  std::atomic<int> peer_failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  try {
    world.run([&](Communicator& comm) {
      if (comm.rank() == 2) throw std::runtime_error("boom at rank 2");
      try {
        comm.recv<int>(2, 999);  // never sent
      } catch (const PeerFailedError& e) {
        EXPECT_EQ(e.failed_rank(), 2);
        ++peer_failures;
        throw;
      }
    });
    FAIL() << "expected World::run to throw";
  } catch (const PeerFailedError&) {
    FAIL() << "secondary PeerFailedError must not mask the original error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at rank 2");
  }
  EXPECT_EQ(peer_failures.load(), 3);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  // The world is reusable after a failed run.
  EXPECT_EQ(world.failed_rank(), -1);
  world.run([](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_sum_value(1.0), 4.0);
  });
}

TEST(FaultTolerance, WorldBarrierPoisonedByPeerFailure) {
  World world(3);
  std::atomic<int> poisoned{0};
  try {
    world.run([&](Communicator& comm) {
      if (comm.rank() == 0) throw std::logic_error("rank 0 died");
      try {
        comm.barrier();  // can never complete: rank 0 is gone
      } catch (const PeerFailedError& e) {
        EXPECT_EQ(e.failed_rank(), 0);
        ++poisoned;
        throw;
      }
    });
    FAIL() << "expected World::run to throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 died");
  }
  EXPECT_EQ(poisoned.load(), 2);
}

TEST(FaultTolerance, SubgroupCollectivePoisonedByPeerFailure) {
  // Subgroup collectives are built on recv, so poisoning reaches them too.
  World world(4);
  EXPECT_THROW(
      world.run([](Communicator& comm) {
        if (comm.rank() == 3) throw std::runtime_error("outsider died");
        auto sub = comm.subgroup({0, 1, 2});
        // Rank 3 never participates, but ranks 0-2 complete only if the
        // fabric stays healthy; the allreduce itself is fine...
        sub.allreduce_sum_value(1.0);
        // ...while waiting on the dead rank hangs without propagation.
        if (comm.rank() == 0) comm.recv<int>(3, 12345);
      }),
      std::runtime_error);
}

TEST(FaultTolerance, RecvTimeoutDumpsWaitGraph) {
  World world(3);
  world.set_recv_timeout(std::chrono::milliseconds(150));
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 2) return;  // exits immediately
      if (comm.rank() == 1) {
        // Enter the wait later than rank 0 so rank 0's deadline fires
        // first and its diagnostic sees this rank blocked.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        comm.recv<int>(0, 99);
      } else {
        comm.recv<int>(1, 42);  // never sent
      }
    });
    FAIL() << "expected a recv timeout";
  } catch (const RecvTimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=42"), std::string::npos) << what;
    EXPECT_NE(what.find("wait graph"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=99"), std::string::npos) << what;
  }
}

/// ------------------------- message fault injection -----------------------

TEST(FaultTolerance, DroppedMessageIsRetransmitted) {
  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kDropMessage, .tag = 7,
                     .count = 1});
  const auto dropped = counter("vmpi.messages_dropped");
  const auto retried = counter("vmpi.messages_retried");
  World world(2);
  world.set_fault_injector(&injector);
  world.set_send_retry(3, std::chrono::microseconds(50));
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 123);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 123);
    }
  });
  EXPECT_EQ(counter("vmpi.messages_dropped"), dropped + 1);
  EXPECT_EQ(counter("vmpi.messages_retried"), retried + 1);
  EXPECT_EQ(injector.injected_faults(), 1u);
}

TEST(FaultTolerance, UnlimitedDropBecomesPermanentLoss) {
  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kDropMessage, .tag = 7,
                     .count = -1});
  const auto lost = counter("vmpi.messages_lost");
  World world(2);
  world.set_fault_injector(&injector);
  world.set_send_retry(2, std::chrono::microseconds(10));
  world.set_recv_timeout(std::chrono::milliseconds(100));
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.send_value(1, 7, 1);  // every attempt dropped
                 } else {
                   comm.recv_value<int>(0, 7);
                 }
               }),
               RecvTimeoutError);
  EXPECT_EQ(counter("vmpi.messages_lost"), lost + 1);
}

TEST(FaultTolerance, DuplicatedMessageDiscardedBySequenceNumber) {
  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kDuplicateMessage, .tag = 7,
                     .count = 1});
  const auto discarded = counter("vmpi.duplicates_discarded");
  World world(2);
  world.set_fault_injector(&injector);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i <= 3; ++i) comm.send_value(1, 7, i);
    } else {
      for (int i = 1; i <= 3; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 7), i);
    }
  });
  EXPECT_EQ(counter("vmpi.duplicates_discarded"), discarded + 1);
}

TEST(FaultTolerance, DelayedMessageStillDelivered) {
  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kDelayMessage, .tag = 5,
                     .count = 1});
  const auto delayed = counter("vmpi.messages_delayed");
  World world(2);
  world.set_fault_injector(&injector);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 42);
    }
  });
  EXPECT_EQ(counter("vmpi.messages_delayed"), delayed + 1);
}

/// ------------------------- collective tag salting ------------------------

TEST(FaultTolerance, SubgroupCollectivesDoNotCollideWithWorldTraffic) {
  // Regression: subgroup collectives used to share raw kBcastTag with the
  // world mailboxes, so world point-to-point traffic on that tag was
  // swallowed by a later subgroup broadcast. Salting separates the
  // channels.
  constexpr int kBcastTag = 1 << 20;
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, kBcastTag, 111);  // world p2p on the bcast tag
      auto sub = comm.subgroup({0, 1});
      std::vector<int> data{222};
      sub.broadcast(data, 0);
    } else {
      auto sub = comm.subgroup({0, 1});
      std::vector<int> data;
      sub.broadcast(data, 0);  // must see 222, not the p2p 111
      ASSERT_EQ(data.size(), 1u);
      EXPECT_EQ(data[0], 222);
      EXPECT_EQ(comm.recv_value<int>(0, kBcastTag), 111);
    }
  });
}

/// ------------------------- leaked-message accounting ---------------------

TEST(FaultTolerance, LeakedMessagesAreCountedAndWorldStaysReusable) {
  const auto leaked = counter("vmpi.leaked_messages");
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value(1, 77, 5);  // never received
  });
  EXPECT_EQ(counter("vmpi.leaked_messages"), leaked + 1);
  // The undelivered message was drained: the next run starts clean.
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value(1, 77, 6);
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 77), 6);
    }
  });
  EXPECT_EQ(counter("vmpi.leaked_messages"), leaked + 1);
}

/// ------------------------- FaultInjector spec ----------------------------

TEST(FaultInjectorSpec, ParsesClauses) {
  FaultInjector injector;
  injector.parse_spec(
      "drop:tag=7,count=2;failboard:rank=1,board=0,step=3;"
      "failrank:rank=2,step=5");
  EXPECT_EQ(injector.on_message(0, 1, 7), FaultInjector::MessageAction::kDrop);
  EXPECT_EQ(injector.on_message(0, 1, 8),
            FaultInjector::MessageAction::kDeliver);
  EXPECT_EQ(injector.on_message(3, 2, 7), FaultInjector::MessageAction::kDrop);
  EXPECT_EQ(injector.on_message(3, 2, 7),
            FaultInjector::MessageAction::kDeliver);  // count exhausted
  EXPECT_EQ(injector.board_to_fail(0, 3), -1);
  EXPECT_EQ(injector.board_to_fail(1, 2), -1);
  EXPECT_EQ(injector.board_to_fail(1, 3), 0);
  EXPECT_EQ(injector.board_to_fail(1, 3), -1);  // fires once
  EXPECT_FALSE(injector.should_fail_rank(2, 4));
  EXPECT_TRUE(injector.should_fail_rank(2, 5));
  EXPECT_EQ(injector.injected_faults(), 4u);
}

TEST(FaultInjectorSpec, RejectsMalformedSpecs) {
  FaultInjector injector;
  EXPECT_THROW(injector.parse_spec("explode:tag=1"), std::invalid_argument);
  EXPECT_THROW(injector.parse_spec("drop:tag"), std::invalid_argument);
  EXPECT_THROW(injector.parse_spec("drop:tag=x"), std::invalid_argument);
  EXPECT_THROW(injector.parse_spec("drop:bogus=1"), std::invalid_argument);
}

TEST(FaultInjectorSpec, SeededProbabilisticFaultsAreDeterministic) {
  FaultInjector a(42), b(42);
  const FaultRule rule{.kind = FaultRule::Kind::kDropMessage, .tag = 1,
                       .count = -1, .probability = 0.5};
  a.add_rule(rule);
  b.add_rule(rule);
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    const auto action = a.on_message(0, 1, 1);
    EXPECT_EQ(action, b.on_message(0, 1, 1));
    if (action == FaultInjector::MessageAction::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 200);
}

TEST(FaultInjectorSpec, FromEnvReadsKnobs) {
  ::unsetenv("MDM_FAULT_SPEC");
  EXPECT_EQ(FaultInjector::from_env(), nullptr);
  ::setenv("MDM_FAULT_SPEC", "drop:tag=9,count=1", 1);
  ::setenv("MDM_FAULT_SEED", "7", 1);
  auto injector = FaultInjector::from_env();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->on_message(0, 1, 9),
            FaultInjector::MessageAction::kDrop);
  ::unsetenv("MDM_FAULT_SPEC");
  ::unsetenv("MDM_FAULT_SEED");
}

/// ------------------------- host-level fault tolerance --------------------

ParticleSystem initial_state(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  assign_maxwell_velocities(sys, 1200.0, seed);
  return sys;
}

host::ParallelAppConfig app_config(const ParticleSystem& sys, int real,
                                   int wn, int nvt, int nve) {
  host::ParallelAppConfig cfg;
  cfg.real_processes = real;
  cfg.wn_processes = wn;
  cfg.protocol.nvt_steps = nvt;
  cfg.protocol.nve_steps = nve;
  cfg.ewald = host::mdm_parameters(double(sys.size()), sys.box());
  cfg.mdgrape_boards_per_process = 2;
  cfg.wine_boards_per_process = 1;
  return cfg;
}

TEST(FaultTolerance, MigrationAcrossPeriodicBoundaryLandsOnCorrectDomain) {
  // A particle drifting out of the box must, after wrapping, be owned by
  // the domain on the far side — not stay with (or be lost by) its old
  // owner. Exercises the exact wrap+domain_of path migrate() uses.
  const double box = 10.0;
  const auto grid = host::DomainGrid::for_processes(8, box);  // 2 x 2 x 2
  const int high = grid.domain_of({9.9, 1.0, 1.0});
  const int low = grid.domain_of({0.1, 1.0, 1.0});
  ASSERT_NE(high, low);
  // Drift past the +x face: wraps to x ~ 0.1 and lands in the low domain.
  EXPECT_EQ(grid.domain_of(wrap_position({10.1, 1.0, 1.0}, box)), low);
  // Drift past the -x face: wraps to x ~ 9.8 and lands in the high domain.
  EXPECT_EQ(grid.domain_of(wrap_position({-0.2, 1.0, 1.0}, box)), high);
  // domain_of itself must treat unwrapped positions periodically, so the
  // owner is identical whether migrate() wraps before or after lookup.
  EXPECT_EQ(grid.domain_of({10.1, 1.0, 1.0}), low);
  EXPECT_EQ(grid.domain_of({-0.2, 1.0, 1.0}), high);
  EXPECT_EQ(grid.domain_of({9.9, -0.2, 10.3}),
            grid.domain_of(wrap_position({9.9, -0.2, 10.3}, box)));
}

TEST(FaultTolerance, InjectedRankFailurePropagatesOutOfParallelApp) {
  // Acceptance (a): a rank that throws mid-step must surface as an error
  // from the whole app within bounded wall time, not hang 23 peers.
  const auto sys = initial_state(2, 7);
  auto cfg = app_config(sys, 4, 2, 2, 2);
  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kFailRank, .rank = 2,
                     .step = 1});
  cfg.fault_injector = &injector;
  host::MdmParallelApp app(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    app.run(sys);
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault: rank 2"),
              std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60);
}

TEST(FaultTolerance, DroppedMessageRecoversToFaultFreeTrajectory) {
  // Acceptance (b): one dropped halo message is retransmitted and the run
  // finishes bit-identical to the fault-free baseline.
  const auto sys = initial_state(2, 7);
  const auto cfg = app_config(sys, 4, 2, 2, 3);

  host::MdmParallelApp baseline_app(cfg);
  const auto baseline = baseline_app.run(sys);

  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kDropMessage,
                     .tag = 200,  // kHalo
                     .count = 1});
  auto faulty_cfg = cfg;
  faulty_cfg.fault_injector = &injector;
  const auto dropped = counter("vmpi.messages_dropped");
  host::MdmParallelApp faulty_app(faulty_cfg);
  const auto faulty = faulty_app.run(sys);

  EXPECT_EQ(counter("vmpi.messages_dropped"), dropped + 1);
  EXPECT_EQ(injector.injected_faults(), 1u);
  ASSERT_EQ(faulty.positions.size(), baseline.positions.size());
  for (std::size_t i = 0; i < baseline.positions.size(); ++i) {
    EXPECT_EQ(faulty.positions[i].x, baseline.positions[i].x) << i;
    EXPECT_EQ(faulty.positions[i].y, baseline.positions[i].y) << i;
    EXPECT_EQ(faulty.positions[i].z, baseline.positions[i].z) << i;
  }
}

TEST(FaultTolerance, BoardFailureDegradesGracefully) {
  // Acceptance (c): a permanent MDGRAPE-2 board failure redistributes the
  // board's slice across the survivors; the run completes with the same
  // physics and the degradation is visible in the obs counters.
  const auto sys = initial_state(2, 9);
  const auto cfg = app_config(sys, 4, 2, 2, 3);

  host::MdmParallelApp baseline_app(cfg);
  const auto baseline = baseline_app.run(sys);

  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kFailBoard, .rank = 1,
                     .board = 0, .step = 1});
  auto faulty_cfg = cfg;
  faulty_cfg.fault_injector = &injector;
  const auto board_failures = counter("mdgrape2.board_failures");
  const auto app_failures = counter("parallel.board_failures");
  const auto degraded = counter("mdgrape2.degraded_passes");
  host::MdmParallelApp faulty_app(faulty_cfg);
  const auto faulty = faulty_app.run(sys);

  EXPECT_EQ(counter("mdgrape2.board_failures"), board_failures + 1);
  EXPECT_EQ(counter("parallel.board_failures"), app_failures + 1);
  EXPECT_GT(counter("mdgrape2.degraded_passes"), degraded);

  // Same simulated hardware math on the survivors: the trajectory matches
  // and the energy drift stays within the fault-free run's tolerance.
  ASSERT_EQ(faulty.samples.size(), baseline.samples.size());
  const double e0 = baseline.samples.front().total_eV;
  const double baseline_drift =
      std::fabs(baseline.samples.back().total_eV - e0);
  const double faulty_drift =
      std::fabs(faulty.samples.back().total_eV -
                faulty.samples.front().total_eV);
  EXPECT_NEAR(faulty_drift, baseline_drift, 1e-6 * std::fabs(e0) + 1e-12);
  ASSERT_EQ(faulty.positions.size(), baseline.positions.size());
  for (std::size_t i = 0; i < baseline.positions.size(); ++i) {
    EXPECT_NEAR(norm(faulty.positions[i] - baseline.positions[i]), 0.0,
                1e-12)
        << i;
  }
}

TEST(FaultTolerance, BoardFailureIsANoOpOnTheNativeBackend) {
  // Native ranks carry no MDGRAPE-2 boards: an injected board loss is
  // logged and ignored, and the trajectory is the fault-free one.
  const auto sys = initial_state(2, 9);
  auto cfg = app_config(sys, 4, 2, 2, 3);
  cfg.backend = Backend::kNative;
  host::MdmParallelApp baseline_app(cfg);
  const auto baseline = baseline_app.run(sys);

  FaultInjector injector;
  injector.add_rule({.kind = FaultRule::Kind::kFailBoard, .rank = 1,
                     .board = 0, .step = 1});
  auto faulty_cfg = cfg;
  faulty_cfg.fault_injector = &injector;
  const auto board_failures = counter("mdgrape2.board_failures");
  host::MdmParallelApp faulty_app(faulty_cfg);
  const auto faulty = faulty_app.run(sys);
  EXPECT_EQ(counter("mdgrape2.board_failures"), board_failures);
  ASSERT_EQ(faulty.positions.size(), baseline.positions.size());
  for (std::size_t i = 0; i < baseline.positions.size(); ++i) {
    EXPECT_EQ(faulty.positions[i].x, baseline.positions[i].x) << i;
    EXPECT_EQ(faulty.positions[i].y, baseline.positions[i].y) << i;
    EXPECT_EQ(faulty.positions[i].z, baseline.positions[i].z) << i;
  }
}

TEST(FaultTolerance, AllBoardsFailedIsAnErrorNotAHang) {
  const auto sys = initial_state(2, 9);
  auto cfg = app_config(sys, 2, 1, 1, 1);
  FaultInjector injector;
  // One board fault fires per step poll, so stagger the two failures.
  injector.add_rule({.kind = FaultRule::Kind::kFailBoard, .rank = 0,
                     .board = 0, .step = 0});
  injector.add_rule({.kind = FaultRule::Kind::kFailBoard, .rank = 0,
                     .board = 1, .step = 1});
  cfg.fault_injector = &injector;
  host::MdmParallelApp app(cfg);
  EXPECT_THROW(app.run(sys), std::runtime_error);
}

}  // namespace
}  // namespace mdm
