#include "mdgrape2/system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/lattice.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/flops.hpp"
#include "mdgrape2/api.hpp"
#include "host/mdm_force_field.hpp"
#include "util/lane_isa.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mdm::mdgrape2 {
namespace {

ParticleSystem melt_like_crystal(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  Random rng(seed);
  for (auto& r : sys.positions())
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  sys.wrap_positions();
  return sys;
}

TEST(Mdgrape2System, Topology) {
  Mdgrape2System machine({.clusters = 16, .boards_per_cluster = 2});
  EXPECT_EQ(machine.board_count(), 32);
  EXPECT_EQ(machine.chip_count(), 64);  // the paper's current machine
  EXPECT_THROW(Mdgrape2System({.clusters = 0}), std::invalid_argument);
  EXPECT_THROW(Mdgrape2System({.clusters = 1, .boards_per_cluster = 1,
                               .cell_margin = 0.5}),
               std::invalid_argument);
}

TEST(Mdgrape2System, CoulombRealForcesMatchSoftwareReference) {
  const auto sys = melt_like_crystal(3, 11);
  const double box = sys.box();
  const double alpha = 8.0;  // r_cut = s1 L / alpha <= L/3 (>= 3 cells/side)
  const double r_cut = 2.636 * box / alpha;
  const double beta = alpha / box;

  Mdgrape2System machine({.clusters = 2, .boards_per_cluster = 2});
  machine.load_particles(sys, r_cut);
  const double charges[2] = {+1.0, -1.0};
  const auto pass = make_coulomb_real_pass(beta, r_cut, charges);
  std::vector<Vec3> hw(sys.size(), Vec3{});
  machine.run_force_pass(pass, hw);

  // Software reference of the same truncated sum.
  EwaldCoulomb ewald({alpha, r_cut, 4.0}, box);
  std::vector<Vec3> ref(sys.size(), Vec3{});
  ewald.add_real_space(sys, ref);

  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_NEAR(norm(hw[i] - ref[i]), 0.0, 2e-6 * fscale) << i;
  }
}

TEST(Mdgrape2System, TosiFumiPassesMatchSoftwareReference) {
  const auto sys = melt_like_crystal(2, 5);
  const double r_cut = 4.0;  // 3 cells per side on the n=2 box

  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 2});
  machine.load_particles(sys, r_cut);
  std::vector<Vec3> hw(sys.size(), Vec3{});
  for (const auto& pass :
       make_tosi_fumi_passes(TosiFumiParameters::nacl(), r_cut))
    machine.run_force_pass(pass, hw);

  TosiFumiShortRange sr(TosiFumiParameters::nacl(), r_cut);
  std::vector<Vec3> ref(sys.size(), Vec3{});
  evaluate_forces(sr, sys, ref);

  double fscale = 0.0;
  for (const auto& f : ref) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_NEAR(norm(hw[i] - ref[i]), 0.0, 3e-6 * fscale) << i;
  }
}

TEST(Mdgrape2System, PotentialPassMatchesReferenceSum) {
  const auto sys = melt_like_crystal(2, 8);
  const double box = sys.box();
  const double alpha = 5.4;
  const double r_cut = box / 3.2;
  const double beta = alpha / box;

  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1});
  machine.load_particles(sys, r_cut);
  const double charges[2] = {+1.0, -1.0};
  const auto pass = make_coulomb_real_potential_pass(beta, r_cut, charges);
  std::vector<double> per_particle(sys.size(), 0.0);
  machine.run_potential_pass(pass, per_particle);
  // Hardware counts each pair from both sides: E = sum_i pot_i / 2.
  double total = 0.0;
  for (double p : per_particle) total += p;
  total *= 0.5;

  EwaldCoulomb ewald({alpha, r_cut, 4.0}, box);
  std::vector<Vec3> scratch(sys.size());
  const double ref = ewald.add_real_space(sys, scratch).potential;
  EXPECT_NEAR(total, ref, 1e-5 * std::fabs(ref));
}

TEST(Mdgrape2System, PairOperationCountMatchesNintG) {
  // The board evaluates all pairs of the 27-cell scan: ~N * N_int_g of
  // eq. 6 (exactly sum of 27-cell occupancies; statistically 27 r^3 rho N).
  const auto sys = melt_like_crystal(3, 2);
  const double r_cut = 5.5;
  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 2});
  machine.load_particles(sys, r_cut);
  const double charges[2] = {+1.0, -1.0};
  const auto pass =
      make_coulomb_real_pass(3.0 / sys.box(), r_cut, charges);
  std::vector<Vec3> forces(sys.size(), Vec3{});
  const auto stats = machine.run_force_pass(pass, forces);

  // Cell side is >= r_cut, so the scan covers at least (27 r^3 rho) N pairs,
  // and at most (27 * margin^3 + slack) r^3 rho N.
  const double predicted =
      n_int_g(double(sys.size()), sys.box(), machine.cells_per_side() > 0
                  ? sys.box() / machine.cells_per_side()
                  : r_cut) *
      double(sys.size());
  EXPECT_NEAR(double(stats.pair_operations), predicted, 0.02 * predicted);
  EXPECT_GE(stats.max_board_pairs, stats.pair_operations / 2 / 2);
}

TEST(Mdgrape2System, UsefulPairsMatchTwiceNint) {
  // The within-cutoff subset of the 27-cell scan is 2 N_int per particle
  // (full sphere, both directions); the evaluated/useful ratio is the
  // paper's "about 13 times" inflation (eq. 6 discussion).
  const auto sys = melt_like_crystal(3, 7);
  const double r_cut = 5.5;
  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 2});
  machine.load_particles(sys, r_cut);
  const double charges[2] = {+1.0, -1.0};
  const auto pass = make_coulomb_real_pass(3.0 / sys.box(), r_cut, charges);
  std::vector<Vec3> forces(sys.size(), Vec3{});
  const auto stats = machine.run_force_pass(pass, forces);

  const double expected_useful =
      2.0 * n_int(double(sys.size()), sys.box(), r_cut) * double(sys.size());
  EXPECT_NEAR(double(stats.useful_pairs), expected_useful,
              0.05 * expected_useful);
  const double waste =
      double(stats.pair_operations) / double(stats.useful_pairs);
  EXPECT_GT(waste, 5.0);   // "about 13 times" before the N3L factor
  EXPECT_LT(waste, 16.0);
}

TEST(Mdgrape2System, ForcesIndependentOfBoardCount) {
  const auto sys = melt_like_crystal(2, 3);
  const double r_cut = 4.0;
  const double charges[2] = {+1.0, -1.0};
  const auto pass = make_coulomb_real_pass(0.4, r_cut, charges);

  std::vector<std::vector<Vec3>> results;
  for (int boards : {1, 3, 8}) {
    Mdgrape2System machine({.clusters = boards, .boards_per_cluster = 1});
    machine.load_particles(sys, r_cut);
    std::vector<Vec3> forces(sys.size(), Vec3{});
    machine.run_force_pass(pass, forces);
    results.push_back(std::move(forces));
  }
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]);
    EXPECT_EQ(results[0][i], results[2][i]);
  }
}

TEST(Mdgrape2System, ForcesIndependentOfCellMargin) {
  // The cell size only changes how many beyond-cutoff pairs the table
  // zeroes out - physics must not change (up to accumulation-order noise).
  const auto sys = melt_like_crystal(4, 9);
  const double r_cut = sys.box() / 5.0;
  const double charges[2] = {+1.0, -1.0};
  const auto pass =
      make_coulomb_real_pass(3.0 / sys.box(), r_cut, charges);

  std::vector<std::vector<Vec3>> results;
  for (double margin : {1.0, 1.3}) {
    Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1,
                            .cell_margin = margin});
    machine.load_particles(sys, r_cut);
    std::vector<Vec3> forces(sys.size(), Vec3{});
    machine.run_force_pass(pass, forces);
    results.push_back(std::move(forces));
  }
  double fscale = 1e-12;
  for (const auto& f : results[0]) fscale = std::max(fscale, norm(f));
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_LT(norm(results[0][i] - results[1][i]), 1e-10 * fscale) << i;
}

/// Runs `passes` in one fused run_passes call and one pass at a time on two
/// identical machines (force passes into one array, potential passes into
/// another, as MdmForceField does) and requires the same bytes, per-pass
/// stats and pair counters from both.
void expect_fused_equals_sequential(const ParticleSystem& sys, double r_cut,
                                    const std::vector<ForcePass>& passes,
                                    unsigned pool_size,
                                    int failed_board = -1) {
  ThreadPool pool(pool_size);
  Mdgrape2System fused({.clusters = 2, .boards_per_cluster = 2});
  Mdgrape2System one({.clusters = 2, .boards_per_cluster = 2});
  for (Mdgrape2System* m : {&fused, &one}) {
    m->set_thread_pool(&pool);
    if (failed_board >= 0) m->fail_board(failed_board);
    m->load_particles(sys, r_cut);
  }
  const std::size_t n = sys.size();
  std::vector<Vec3> forces_fused(n), forces_one(n);
  std::vector<double> pot_fused(n), pot_one(n);
  std::vector<PassTarget> targets;
  for (const auto& pass : passes) {
    if (pass.potential_mode)
      targets.push_back({&pass, {}, pot_fused});
    else
      targets.push_back({&pass, forces_fused, {}});
  }
  const auto stats = fused.run_passes(targets);
  ASSERT_EQ(stats.size(), passes.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassStats s = passes[p].potential_mode
                            ? one.run_potential_pass(passes[p], pot_one)
                            : one.run_force_pass(passes[p], forces_one);
    EXPECT_EQ(stats[p].pair_operations, s.pair_operations) << p;
    EXPECT_EQ(stats[p].useful_pairs, s.useful_pairs) << p;
    EXPECT_EQ(stats[p].max_board_pairs, s.max_board_pairs) << p;
  }
  EXPECT_EQ(std::memcmp(forces_fused.data(), forces_one.data(),
                        n * sizeof(Vec3)),
            0);
  EXPECT_EQ(std::memcmp(pot_fused.data(), pot_one.data(), n * sizeof(double)),
            0);
  EXPECT_EQ(fused.pair_operations(), one.pair_operations());
  EXPECT_EQ(fused.useful_pair_operations(), one.useful_pair_operations());
}

std::vector<ForcePass> nacl_passes(const ParticleSystem& sys,
                                   const EwaldParameters& params) {
  const double beta = params.alpha / sys.box();
  const double charges[2] = {+1.0, -1.0};
  std::vector<ForcePass> passes;
  passes.push_back(make_coulomb_real_pass(beta, params.r_cut, charges));
  for (auto& p : make_tosi_fumi_passes(TosiFumiParameters::nacl(),
                                       params.r_cut))
    passes.push_back(std::move(p));
  passes.push_back(
      make_coulomb_real_potential_pass(beta, params.r_cut, charges));
  for (auto& p : make_tosi_fumi_potential_passes(TosiFumiParameters::nacl(),
                                                 params.r_cut))
    passes.push_back(std::move(p));
  return passes;
}

TEST(Mdgrape2System, FusedPassesEqualSequentialOnEveryIsaAndPool) {
  const auto sys = melt_like_crystal(4, 41);
  const auto params = host::mdm_parameters(double(sys.size()), sys.box());
  const auto passes = nacl_passes(sys, params);
  for (const LaneIsa isa : cpu_lane_isas()) {
    pin_emulator_lane_isa(isa);
    for (const unsigned pool : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(lane_isa_name(isa)) + " pool " +
                   std::to_string(pool));
      expect_fused_equals_sequential(sys, params.r_cut, passes, pool);
    }
  }
  unpin_emulator_lane_isa();
}

TEST(Mdgrape2System, FusedPassesEqualSequentialOnOddPasses) {
  const auto sys = melt_like_crystal(3, 42);
  const auto params = host::mdm_parameters(double(sys.size()), sys.box());
  auto passes = nacl_passes(sys, params);
  // Per-particle charges in the datapath.
  passes[0].use_particle_charge = true;
  // A potential pass whose a <= 0 entries make every r > 0 useful: its
  // keep set is unbounded.
  auto unbounded = passes[5];
  unbounded.coefficients.a[0][1] = 0.0;
  unbounded.coefficients.a[1][0] = -1.0;
  passes.push_back(unbounded);
  // The unbounded pass keeps every pair: at 3 cells per side each i scans
  // all N j's, and every unlike pair (r > 0, a <= 0) is useful.
  {
    Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1});
    machine.load_particles(sys, params.r_cut);
    ASSERT_EQ(machine.cells_per_side(), 3);
    std::vector<double> pot(sys.size());
    const std::uint64_t unlike = sys.size() * sys.size() / 2;
    EXPECT_GT(machine.run_potential_pass(unbounded, pot).useful_pairs, unlike);
  }
  // Passes whose table edge falls on the float neighbours of one real
  // pair's x = a r^2 (first particle against its nearest image). The a is
  // picked so that x_max / a rounded to the nearest float is not above r^2:
  // a keep bound without its upward rounding would drop the pair.
  const double box = sys.box();
  const auto c0 = to_cyclic(sys.positions()[0], box);
  float r2 = 1e30f;
  for (std::size_t k = 1; k < sys.size(); ++k) {
    const Vec3 d = cyclic_delta(c0, to_cyclic(sys.positions()[k], box), box);
    // The datapath's float r^2, each operation rounded explicitly (a
    // product of floats is exact in double), so no build contracts it.
    const auto sq = [](double v) {
      const double f = static_cast<float>(v);
      return static_cast<double>(static_cast<float>(f * f));
    };
    const float r2_k = static_cast<float>(
        static_cast<float>(sq(d.x) + sq(d.y)) + sq(d.z));
    if (r2_k > 0.0f) r2 = std::min(r2, r2_k);
  }
  float a = 0.0f;
  for (int k = 0; k < 100000 && a == 0.0f; ++k) {
    const float trial = static_cast<float>(1.999 / r2 * (1.0 + k * 0x1p-21));
    const float x = trial * r2;
    const double above = std::nextafter(x, 1e30f);
    if (static_cast<float>(above / trial) <= r2) a = trial;
  }
  ASSERT_GT(a, 0.0f);
  const float x = a * r2;
  std::vector<std::uint64_t> edge_useful;
  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1});
  machine.load_particles(sys, params.r_cut);
  for (const float x_max : {std::nextafter(x, 0.0f), x,
                            std::nextafter(x, 1e30f)}) {
    for (const bool potential : {false, true}) {
      ForcePass edge;
      edge.table = SegmentedTable::fit(
          potential ? g_born_mayer_potential : g_born_mayer_force,
          {.x_min = 0.01 * x_max, .x_max = x_max});
      edge.coefficients.species_count = 2;
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
          edge.coefficients.a[i][j] = a;
          edge.coefficients.b[i][j] = 1.0;
        }
      edge.potential_mode = potential;
      std::vector<Vec3> f(sys.size());
      std::vector<double> pot(sys.size());
      edge_useful.push_back(potential
                                ? machine.run_potential_pass(edge, pot)
                                      .useful_pairs
                                : machine.run_force_pass(edge, f).useful_pairs);
      passes.push_back(std::move(edge));
    }
  }
  // The pair (both ways) is inside the domain only when x_max is above x.
  EXPECT_EQ(edge_useful[2], edge_useful[0]);
  EXPECT_GE(edge_useful[4], edge_useful[2] + 2);
  EXPECT_GE(edge_useful[5], edge_useful[3] + 2);
  for (const unsigned pool : {1u, 3u}) {
    expect_fused_equals_sequential(sys, params.r_cut, passes, pool);
    expect_fused_equals_sequential(sys, params.r_cut, passes, pool,
                                   /*failed_board=*/1);
  }
}

TEST(Mdgrape2System, RejectsMisuse) {
  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1});
  std::vector<Vec3> forces(8);
  const double charges[1] = {1.0};
  const auto pass = make_coulomb_real_pass(0.3, 5.0, charges);
  EXPECT_THROW(machine.run_force_pass(pass, forces), std::logic_error);

  const auto sys = make_nacl_crystal(2);
  machine.load_particles(sys, 4.0);
  std::vector<Vec3> wrong(3);
  EXPECT_THROW(machine.run_force_pass(pass, wrong), std::invalid_argument);
  const auto pot_pass =
      make_coulomb_real_potential_pass(0.3, 5.0, charges);
  EXPECT_THROW(machine.run_force_pass(pot_pass, forces),
               std::invalid_argument);
}

TEST(MR1Api, TableThreeWorkflow) {
  // The call sequence of sec. 4 / Table 3.
  const auto sys = melt_like_crystal(2, 21);
  const double r_cut = 4.0;
  const double beta = 0.45;

  MR1Library lib;
  lib.MR1allocateboard(4);
  lib.MR1init();
  EXPECT_TRUE(lib.initialized());
  EXPECT_EQ(lib.system()->board_count(), 4);

  const double charges[2] = {+1.0, -1.0};
  lib.MR1SetTable(make_coulomb_real_pass(beta, r_cut, charges));
  std::vector<Vec3> forces(sys.size(), Vec3{});
  const auto stats = lib.MR1calcvdw_block2(sys, r_cut, forces);
  EXPECT_GT(stats.pair_operations, 0u);

  // Must match the plain system path.
  Mdgrape2System machine({.clusters = 2, .boards_per_cluster = 2});
  machine.load_particles(sys, r_cut);
  std::vector<Vec3> ref(sys.size(), Vec3{});
  machine.run_force_pass(make_coulomb_real_pass(beta, r_cut, charges), ref);
  for (std::size_t i = 0; i < sys.size(); ++i)
    EXPECT_EQ(forces[i], ref[i]);

  lib.MR1free();
  EXPECT_FALSE(lib.initialized());
  EXPECT_THROW(lib.MR1calcvdw_block2(sys, r_cut, forces), std::logic_error);
}

TEST(MR1Api, CallOrderEnforced) {
  MR1Library lib;
  EXPECT_THROW(lib.MR1allocateboard(0), std::invalid_argument);
  const auto sys = make_nacl_crystal(2);
  std::vector<Vec3> forces(sys.size());
  EXPECT_THROW(lib.MR1calcvdw_block2(sys, 4.0, forces), std::logic_error);
  lib.MR1init();
  EXPECT_THROW(lib.MR1init(), std::logic_error);
  EXPECT_THROW(lib.MR1calcvdw_block2(sys, 4.0, forces), std::logic_error);
}

TEST(Mdgrape2System, RejectsTooFewCellsPerSide) {
  // The 27-cell scan needs at least a 3-wide grid, like the real board.
  const auto sys = make_nacl_crystal(2);  // box = 12.78 A
  Mdgrape2System machine({.clusters = 1, .boards_per_cluster = 1});
  EXPECT_THROW(machine.load_particles(sys, 6.0), std::invalid_argument);
  EXPECT_NO_THROW(machine.load_particles(sys, 4.0));
}

TEST(Chip, NeighborListRamMode) {
  // The neighbor-list RAM (unused in the paper's run) must agree with an
  // explicit stream of the same particles.
  const double box = 20.0;
  const double charges[1] = {1.0};
  const auto pass = make_coulomb_real_pass(0.3, 8.0, charges);
  Chip chip;
  chip.load_pass(pass);

  Random rng(4);
  std::vector<StoredParticle> all;
  for (int k = 0; k < 30; ++k)
    all.push_back({to_cyclic({rng.uniform(0, box), rng.uniform(0, box),
                              rng.uniform(0, box)},
                             box),
                   0});
  std::vector<StoredParticle> i_batch{all[0], all[1]};
  std::vector<std::vector<std::uint32_t>> lists{{2, 3, 4, 5},
                                                {6, 7, 8, 9, 10}};
  chip.load_neighbor_lists(lists);
  std::vector<Vec3> nl_forces(2, Vec3{});
  chip.calc_forces_with_neighbor_lists(i_batch, all, box, nl_forces);

  std::vector<Vec3> ref(2, Vec3{});
  std::vector<StoredParticle> s0{all[2], all[3], all[4], all[5]};
  std::vector<StoredParticle> s1{all[6], all[7], all[8], all[9], all[10]};
  chip.calc_forces({&i_batch[0], 1}, s0, box, {&ref[0], 1});
  chip.calc_forces({&i_batch[1], 1}, s1, box, {&ref[1], 1});
  EXPECT_EQ(nl_forces[0], ref[0]);
  EXPECT_EQ(nl_forces[1], ref[1]);
}

TEST(Board, CapacityLimitEnforced) {
  Board board;
  CellList cells(100.0, 10.0);
  std::vector<StoredParticle> too_many(kBoardParticleCapacity + 1);
  // Build a matching (empty-ish) cell list; capacity check fires first.
  std::vector<Vec3> dummy;
  cells.build(dummy);
  EXPECT_THROW(board.load_particles(too_many, cells),
               std::length_error);
}

}  // namespace
}  // namespace mdm::mdgrape2
