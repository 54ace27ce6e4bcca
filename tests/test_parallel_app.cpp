#include "host/parallel_app.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/lattice.hpp"
#include "host/mdm_force_field.hpp"
#include "host/wine2_mpi.hpp"
#include "obs/flight_recorder.hpp"
#include "util/random.hpp"

namespace mdm::host {
namespace {

ParticleSystem initial_state(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  assign_maxwell_velocities(sys, 1200.0, seed);
  return sys;
}

ParallelAppConfig app_config(const ParticleSystem& sys, int real, int wn,
                             int nvt, int nve) {
  ParallelAppConfig cfg;
  cfg.real_processes = real;
  cfg.wn_processes = wn;
  cfg.protocol.nvt_steps = nvt;
  cfg.protocol.nve_steps = nve;
  cfg.ewald = mdm_parameters(double(sys.size()), sys.box());
  cfg.mdgrape_boards_per_process = 1;
  cfg.wine_boards_per_process = 1;
  return cfg;
}

/// Serial reference: the single-process MDM orchestration with the same
/// simulated hardware and protocol.
std::vector<Sample> serial_reference(ParticleSystem sys,
                                     const ParallelAppConfig& cfg) {
  MdmForceFieldConfig ff;
  ff.ewald = cfg.ewald;
  ff.mdgrape = {.clusters = 1, .boards_per_cluster = 1};
  ff.wine = {.clusters = 1, .boards_per_cluster = 1, .chips_per_board = 2};
  MdmForceField mdm(ff, sys.box());
  Simulation sim(sys, mdm, cfg.protocol);
  sim.run();
  return sim.samples();
}

TEST(Wine2MpiLibrary, MatchesSerialLibraryAcrossRanks) {
  // The 8-process WINE-2 decomposition must reproduce the single-process
  // result: structure factors are linear in particles.
  const auto sys = initial_state(2, 5);
  const auto params = mdm_parameters(double(sys.size()), sys.box());
  const KVectorTable kvectors(sys.box(), params.alpha, params.lk_cut);

  // Serial result.
  wine2::Wine2System serial({.clusters = 1, .boards_per_cluster = 1,
                             .chips_per_board = 2});
  std::vector<double> charges(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) charges[i] = sys.charge(i);
  serial.load_waves(kvectors);
  serial.set_particles(sys.positions(), charges, sys.box());
  const auto sf = serial.run_dft();
  std::vector<Vec3> serial_forces(sys.size(), Vec3{});
  serial.run_idft(sf, serial_forces);
  const double serial_energy = serial.reciprocal_energy(sf);

  // 4-rank parallel library; rank w owns particles with i % 4 == w.
  constexpr int W = 4;
  std::vector<Vec3> parallel_forces(sys.size(), Vec3{});
  std::vector<double> energies(W, 0.0);
  vmpi::World world(W);
  std::mutex mutex;
  world.run([&](vmpi::Communicator& comm) {
    std::vector<int> ranks(W);
    for (int i = 0; i < W; ++i) ranks[i] = i;
    auto group = comm.subgroup(ranks);

    std::vector<Vec3> local_pos;
    std::vector<double> local_q;
    std::vector<std::size_t> local_ids;
    for (std::size_t i = comm.rank(); i < sys.size(); i += W) {
      local_pos.push_back(sys.positions()[i]);
      local_q.push_back(charges[i]);
      local_ids.push_back(i);
    }

    Wine2MpiLibrary lib;
    lib.wine2_set_MPI_community(&group);
    lib.wine2_allocate_board(1);
    lib.wine2_initialize_board();
    lib.wine2_set_nn(local_pos.size());
    std::vector<Vec3> local_forces(local_pos.size(), Vec3{});
    const double e = lib.calculate_force_and_pot_wavepart_nooffset(
        local_pos, local_q, sys.box(), kvectors, local_forces);
    lib.wine2_free_board();

    std::lock_guard lock(mutex);
    energies[comm.rank()] = e;
    for (std::size_t k = 0; k < local_ids.size(); ++k)
      parallel_forces[local_ids[k]] = local_forces[k];
  });

  double fscale = 0.0;
  for (const auto& f : serial_forces) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i) {
    // Same fixed-point hardware; differences only from DFT accumulation
    // grouping across ranks.
    EXPECT_NEAR(norm(parallel_forces[i] - serial_forces[i]), 0.0,
                1e-5 * fscale)
        << i;
  }
  for (const double e : energies)
    EXPECT_NEAR(e, serial_energy, 1e-9 * std::fabs(serial_energy));
}

TEST(MdmParallelApp, MatchesSerialTrajectory) {
  const auto sys = initial_state(2, 7);
  const auto cfg = app_config(sys, 4, 2, 3, 5);

  MdmParallelApp app(cfg);
  const auto parallel = app.run(sys);
  const auto serial = serial_reference(sys, cfg);

  ASSERT_EQ(parallel.samples.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(parallel.samples[k].step, serial[k].step);
    // Same simulated hardware; tiny divergence from accumulation order
    // grows along the trajectory.
    EXPECT_NEAR(parallel.samples[k].temperature_K,
                serial[k].temperature_K,
                1e-3 * serial[k].temperature_K + 1e-6)
        << k;
    EXPECT_NEAR(parallel.samples[k].total_eV, serial[k].total_eV,
                2e-4 * std::fabs(serial[k].total_eV))
        << k;
  }
}

TEST(MdmParallelApp, PaperProcessLayoutRuns) {
  // The paper's 16 + 8 layout, scaled-down workload.
  const auto sys = initial_state(2, 9);
  const auto cfg = app_config(sys, 16, 8, 1, 2);
  MdmParallelApp app(cfg);
  const auto result = app.run(sys);
  EXPECT_EQ(result.samples.size(), 4u);
  EXPECT_EQ(result.positions.size(), sys.size());
  // Energy stays sane over a few steps.
  EXPECT_NEAR(result.samples.back().total_eV, result.samples.front().total_eV,
              1e-2 * std::fabs(result.samples.front().total_eV));
}

TEST(MdmParallelApp, MigrationConservesParticles) {
  // A hot run (particles cross domain boundaries) must neither lose nor
  // duplicate particles.
  auto sys = initial_state(2, 11);
  assign_maxwell_velocities(sys, 2400.0, 11);
  const auto cfg = app_config(sys, 8, 2, 6, 6);
  MdmParallelApp app(cfg);
  const auto result = app.run(sys);
  ASSERT_EQ(result.positions.size(), sys.size());
  // Every slot written (ids form a permutation): a missing particle would
  // leave a zero-velocity hole at 2400 K, which is statistically impossible.
  int stationary = 0;
  for (const auto& v : result.velocities)
    if (norm2(v) == 0.0) ++stationary;
  EXPECT_EQ(stationary, 0);
}

TEST(MdmParallelApp, NvtPhaseHoldsTemperature) {
  const auto sys = initial_state(2, 13);
  const auto cfg = app_config(sys, 4, 2, 5, 0);
  MdmParallelApp app(cfg);
  const auto result = app.run(sys);
  EXPECT_NEAR(result.samples.back().temperature_K, 1200.0, 1e-6);
}

/// The real ranks post their k-space batches before the halo exchange, so
/// the wavenumber ranks compute while the real-space pass runs (paper §4).
/// Per-thread event order is deterministic: in every force evaluation of
/// every real rank, both kToWine (300) sends precede the kHalo (200) send.
TEST(MdmParallelApp, ShipsPositionsToWavenumberRanksBeforeHalo) {
  constexpr int kHalo = 200;
  constexpr int kToWine = 300;
  const auto sys = initial_state(2, 17);
  for (const auto solver : {KspaceSolver::kStructureFactor, KspaceSolver::kPme}) {
    SCOPED_TRACE(to_string(solver));
    auto cfg = app_config(sys, 2, 2, 1, 2);
    cfg.kspace_solver = solver;
    cfg.pme.grid = 16;
    obs::FlightRecorder::clear();
    MdmParallelApp app(cfg);
    app.run(sys);

    std::vector<obs::FlightEventView> events;
    obs::FlightRecorder::snapshot(events);
    for (int rank = 0; rank < cfg.real_processes; ++rank) {
      std::vector<std::int64_t> tags;
      for (const auto& e : events)
        if (e.rank == rank && e.kind == obs::FlightKind::kSend &&
            (e.b == kHalo || e.b == kToWine))
          tags.push_back(e.b);
      // Priming pass + 3 steps, each: one batch per wavenumber rank, then
      // one halo message to the other real rank.
      std::vector<std::int64_t> expected;
      for (int eval = 0; eval < 4; ++eval)
        expected.insert(expected.end(), {kToWine, kToWine, kHalo});
      EXPECT_EQ(tags, expected) << "real rank " << rank;
    }
  }
}

TEST(MdmParallelApp, RejectsBadConfig) {
  ParallelAppConfig cfg;
  cfg.real_processes = 0;
  EXPECT_THROW(MdmParallelApp{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mdm::host
