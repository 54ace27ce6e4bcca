/// Golden bit-identity hashes of the MDGRAPE-2 and WINE-2 emulators.
///
/// The emulators model fixed hardware: its formats, rounding points, tables,
/// summation order and op counters. Any speed work on them must leave every
/// bit of every force, potential, structure factor and counter unchanged.
/// These tests pin FNV-1a hashes of those outputs on seeded inputs, at pool
/// sizes 1, 2 and 4 (the pooled passes are bit-identical to the serial
/// ones) and with every lane-kernel ISA variant the CPU runs, so a change
/// that moves a single bit fails here. The emulator libraries build with
/// -ffp-contract=off, and so do the libraries around them, so the hashes
/// hold on portable and -march=native builds alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/lattice.hpp"
#include "core/simulation.hpp"
#include "ewald/kvectors.hpp"
#include "host/mdm_force_field.hpp"
#include "mdgrape2/gtables.hpp"
#include "mdgrape2/system.hpp"
#include "tree/barnes_hut.hpp"
#include "util/lane_isa.hpp"
#include "util/fixed_point.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "wine2/pipeline.hpp"
#include "wine2/system.hpp"

namespace mdm {
namespace {

/// FNV-1a over the object representation of each value (so +0 and -0, or
/// any two NaN payloads, hash differently).
class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
  }
  void add(const Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  template <typename Range>
  void add_all(const Range& values) {
    for (const auto& v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

ParticleSystem melt(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  Random rng(seed);
  for (auto& r : sys.positions())
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  sys.wrap_positions();
  return sys;
}

#define EXPECT_HASH(hash, golden) \
  EXPECT_EQ(hash, golden##ull) << "0x" << std::hex << (hash)

/// Runs each test with the emulators pinned to one lane-kernel ISA variant
/// (skipped where the CPU lacks it): every variant must give the same bits.
template <typename Param>
class PinnedIsa : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto isas = cpu_lane_isas();
    if (std::find(isas.begin(), isas.end(), isa()) == isas.end())
      GTEST_SKIP() << lane_isa_name(isa()) << " is not supported by this CPU";
    pin_emulator_lane_isa(isa());
  }
  void TearDown() override { unpin_emulator_lane_isa(); }
  LaneIsa isa() const {
    if constexpr (std::is_same_v<Param, LaneIsa>)
      return this->GetParam();
    else
      return std::get<1>(this->GetParam());
  }
};

const auto kAllIsas = ::testing::Values(LaneIsa::kBaseline, LaneIsa::kAvx2,
                                        LaneIsa::kAvx512);

std::string isa_label(LaneIsa isa) {
  std::string name = lane_isa_name(isa);
  std::replace(name.begin(), name.end(), ',', '_');
  return name;
}

/// Pool size x lane-kernel ISA.
class EmulatorGolden : public PinnedIsa<std::tuple<unsigned, LaneIsa>> {
 protected:
  unsigned pool_size() const { return std::get<0>(GetParam()); }
};

TEST_P(EmulatorGolden, MdmForceFieldForcesPotentialAndNve) {
  // The paper's full machine (32 MDGRAPE-2 boards, 2,240 WINE-2 chips) at
  // N = 512, as the machine-emulated benchmark runs it.
  auto sys = melt(4, 1801);
  host::MdmForceFieldConfig cfg;
  cfg.ewald = host::mdm_parameters(double(sys.size()), sys.box());
  host::MdmForceField field(cfg, sys.box());
  ThreadPool pool(pool_size());
  field.set_thread_pool(&pool);

  std::vector<Vec3> forces(sys.size());
  const ForceResult result = evaluate_forces(field, sys, forces);
  Fnv1a f;
  f.add_all(forces);
  f.add(result.potential);
  const auto& pot = field.last_potential();
  for (const double e : {pot.real_space, pot.wavenumber, pot.self_energy,
                         pot.background, pot.short_range})
    f.add(e);
  EXPECT_HASH(f.value(), 0x3defbbbaa3675742);
  EXPECT_EQ(field.mdgrape_pair_operations(), 2097152u);
  EXPECT_EQ(field.wine_wave_particle_operations(), 457728u);

  assign_maxwell_velocities(sys, 1200.0, 1802);
  SimulationConfig protocol;
  protocol.nvt_steps = 0;
  protocol.nve_steps = 10;
  Simulation sim(sys, field, protocol);
  sim.run_nve(10);
  Fnv1a t;
  t.add_all(sys.positions());
  t.add_all(sys.velocities());
  t.add(field.last_potential().total());
  EXPECT_HASH(t.value(), 0xe4e8bc0664d2079d);
  EXPECT_EQ(field.mdgrape_pair_operations(), 25165824u);
  EXPECT_EQ(field.wine_wave_particle_operations(), 5492736u);
}

TEST_P(EmulatorGolden, Wine2StructureFactorsAndIdftOnTwoChips) {
  // Two chips = 16 pipelines for ~450 waves, so every pipeline holds many
  // waves and the pipeline -> chip -> machine summation tree is exercised.
  const auto sys = melt(4, 1803);
  const auto params = host::mdm_parameters(double(sys.size()), sys.box());
  const KVectorTable kvectors(sys.box(), params.alpha, params.lk_cut);
  std::vector<double> charges(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) charges[i] = sys.charge(i);

  wine2::Wine2System wine(
      {.clusters = 1, .boards_per_cluster = 1, .chips_per_board = 2});
  ThreadPool pool(pool_size());
  wine.set_thread_pool(&pool);
  wine.load_waves(kvectors);
  wine.set_particles(sys.positions(), charges, sys.box());

  const StructureFactors sf = wine.run_dft();
  Fnv1a s;
  s.add_all(sf.s);
  s.add_all(sf.c);
  EXPECT_HASH(s.value(), 0x87124b8e85588ed1);

  std::vector<Vec3> forces(sys.size());
  wine.run_idft(sf, forces);
  Fnv1a f;
  f.add_all(forces);
  f.add(wine.reciprocal_energy(sf));
  EXPECT_HASH(f.value(), 0x10748e4b5d95fe20);
  EXPECT_EQ(wine.wave_particle_ops(), 457728u);
  EXPECT_EQ(wine.saturation_count(), 0u);

  // The IDFT leaves the machine ready for the next DFT.
  const StructureFactors again = wine.run_dft();
  EXPECT_EQ(again.s, sf.s);
  EXPECT_EQ(again.c, sf.c);
}

TEST_P(EmulatorGolden, Mdgrape2PotentialAndParticleChargePasses) {
  const auto sys = melt(4, 1804);
  const auto params = host::mdm_parameters(double(sys.size()), sys.box());
  const double beta = params.alpha / sys.box();
  const double species_q[2] = {+1.0, -1.0};

  mdgrape2::Mdgrape2System machine({.clusters = 2, .boards_per_cluster = 2});
  ThreadPool pool(pool_size());
  machine.set_thread_pool(&pool);
  machine.load_particles(sys, params.r_cut);

  std::vector<double> potentials(sys.size());
  const auto pot_stats = machine.run_potential_pass(
      mdgrape2::make_coulomb_real_potential_pass(beta, params.r_cut,
                                                 species_q),
      potentials);
  Fnv1a p;
  p.add_all(potentials);
  EXPECT_HASH(p.value(), 0x1a67e237bed57586);
  EXPECT_EQ(pot_stats.pair_operations, 262144u);
  EXPECT_EQ(pot_stats.useful_pairs, 41028u);
  EXPECT_EQ(pot_stats.max_board_pairs, 65536u);

  auto charge_pass =
      mdgrape2::make_coulomb_real_pass(beta, params.r_cut, species_q);
  charge_pass.use_particle_charge = true;
  std::vector<Vec3> forces(sys.size());
  const auto force_stats = machine.run_force_pass(charge_pass, forces);
  Fnv1a f;
  f.add_all(forces);
  EXPECT_HASH(f.value(), 0x3294f03ef33d7903);
  EXPECT_EQ(force_stats.pair_operations, 262144u);
  EXPECT_EQ(force_stats.useful_pairs, 41028u);
  EXPECT_EQ(machine.pair_operations(), 524288u);
  EXPECT_EQ(machine.useful_pair_operations(), 82056u);
}

INSTANTIATE_TEST_SUITE_P(
    PoolsAndIsas, EmulatorGolden,
    ::testing::Combine(::testing::Values(1u, 2u, 4u), kAllIsas),
    [](const auto& test) {
      return "pool" + std::to_string(std::get<0>(test.param)) + "_" +
             isa_label(std::get<1>(test.param));
    });

class EmulatorGoldenUnit : public PinnedIsa<LaneIsa> {};

TEST_P(EmulatorGoldenUnit, TreeMonopolesThroughParticleCharges) {
  // The tree code streams pseudo-particles whose charges differ, so this
  // is the pass where use_particle_charge scales the datapath.
  const auto sys = melt(3, 1805);
  std::vector<double> charges(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) charges[i] = sys.charge(i);
  tree::BarnesHutCoulomb bh(0.5);
  mdgrape2::Chip chip;
  std::vector<Vec3> forces(sys.size());
  const auto stats =
      bh.compute_on_mdgrape(sys.positions(), charges, chip, forces);
  Fnv1a f;
  f.add_all(forces);
  EXPECT_HASH(f.value(), 0xf0683a26705e25a0);
  EXPECT_EQ(stats.interactions, 44363u);
  EXPECT_EQ(chip.pair_operations(), 44363u);
  EXPECT_EQ(chip.useful_pair_operations(), 44363u);
}

TEST_P(EmulatorGoldenUnit, SaturatingProductsOnOneWinePipeline) {
  // Charges and coefficients outside the driver's [-1, 1] normalization
  // push the products past Q(2, f), so the saturating clamp and its
  // counter are pinned too (the machine-level runs never saturate).
  const wine2::WineFormats fmt = wine2::WineFormats::paper();
  wine2::TrigUnit trig(fmt);
  wine2::Pipeline pipe(fmt, trig);
  Random rng(1806);
  std::vector<wine2::WaveSlot> waves(12);
  for (auto& w : waves) {
    for (int& n : w.n) n = static_cast<int>(rng.uniform_below(13)) - 6;
    w.a_norm = rng.uniform(0.5, 1.5);
    w.s_norm = rng.uniform(-1.9, 1.9);
    w.c_norm = rng.uniform(-1.9, 1.9);
  }
  pipe.load_waves(waves);
  std::vector<wine2::WineParticle> particles(64);
  for (auto& p : particles) {
    for (auto& phase : p.phase)
      phase = rng.uniform_below(std::uint64_t{1} << fmt.phase_bits);
    p.charge_norm = rng.uniform(-3.0, 3.0);
  }

  const auto acc = pipe.run_dft(particles);
  Fnv1a d;
  for (const auto& a : acc) {
    d.add(a.s_plus_c);
    d.add(a.s_minus_c);
  }
  EXPECT_HASH(d.value(), 0x1b7757e72cb7c375);
  Fnv1a f;
  for (const auto& p : particles) f.add(pipe.run_idft_particle(p));
  EXPECT_HASH(f.value(), 0x1c088c557ea1fc73);
  EXPECT_EQ(pipe.saturation_count(), 271u);
}

/// The WINE-2 pipeline spelled out one register at a time with the
/// reference quantize() (Fixed::from_double) in place of the lanes'
/// branch-free rounding.
class ScalarWinePipeline {
 public:
  explicit ScalarWinePipeline(const wine2::WineFormats& f)
      : f_(f),
        trig_{.int_bits = 2, .frac_bits = f.trig_frac_bits},
        prod_{.int_bits = 2, .frac_bits = f.product_frac_bits} {
    const std::size_t entries = std::size_t{1} << f.table_bits;
    for (std::size_t k = 0; k <= entries; ++k)
      table_.push_back(quantize(
          std::sin(2.0 * std::numbers::pi * static_cast<double>(k) /
                   static_cast<double>(entries)),
          trig_));
  }

  wine2::DftAccumulator dft(const wine2::WaveSlot& w,
                     const std::vector<wine2::WineParticle>& ps) {
    wine2::DftAccumulator acc;
    for (const auto& p : ps) {
      const std::uint64_t ph = phase(w, p);
      const double qs = product(p.charge_norm * lookup(ph));
      const double qc = product(p.charge_norm * lookup(ph + quarter()));
      acc.s_plus_c += qs + qc;
      acc.s_minus_c += qs - qc;
    }
    return acc;
  }

  Vec3 idft(const std::vector<wine2::WaveSlot>& waves,
            const wine2::WineParticle& p) {
    Vec3 f;
    for (const auto& w : waves) {
      const std::uint64_t ph = phase(w, p);
      const double cs = product(w.c_norm * lookup(ph));
      const double sc = product(w.s_norm * lookup(ph + quarter()));
      const double t = product(w.a_norm * (cs - sc));
      f += t * Vec3{double(w.n[0]), double(w.n[1]), double(w.n[2])};
    }
    return f;
  }

  std::uint64_t saturations = 0;

 private:
  std::uint64_t mask() const { return (std::uint64_t{1} << f_.phase_bits) - 1; }
  std::uint64_t quarter() const {
    return std::uint64_t{1} << (f_.phase_bits - 2);
  }
  std::uint64_t phase(const wine2::WaveSlot& w,
                      const wine2::WineParticle& p) const {
    std::uint64_t acc = 0;
    for (int axis = 0; axis < 3; ++axis)
      acc += static_cast<std::uint64_t>(w.n[axis]) * p.phase[axis];
    return acc & mask();
  }
  double lookup(std::uint64_t phase) const {
    phase &= mask();
    const int shift = f_.phase_bits - f_.table_bits;
    const std::uint64_t idx = phase >> shift;
    const std::uint64_t rem = phase & ((std::uint64_t{1} << shift) - 1);
    const double w =
        quantize(static_cast<double>(rem) * std::ldexp(1.0, -shift), prod_);
    const double t0 = table_[idx];
    return quantize(t0 + w * (table_[idx + 1] - t0), trig_);
  }
  double product(double v) {
    saturations += v > prod_.max_value() || v < prod_.min_value();
    return quantize(v, prod_);
  }

  wine2::WineFormats f_;
  QFormat trig_, prod_;
  std::vector<double> table_;
};

TEST_P(EmulatorGoldenUnit, WineLanesMatchAScalarQuantizeReference) {
  // The paper's formats take the shifter rounding; 53- and 54-bit trig and
  // product words overflow it and take the exact wide path. Coefficients
  // and charges past [-1, 1] make products saturate.
  wine2::WineFormats wide;
  wide.trig_frac_bits = 51;
  wide.product_frac_bits = 52;
  for (const wine2::WineFormats& fmt : {wine2::WineFormats::paper(), wide}) {
    SCOPED_TRACE(fmt.product_frac_bits);
    const wine2::TrigUnit trig(fmt);
    EXPECT_EQ(trig.shifter_rounds(), fmt.product_frac_bits < 51);
    wine2::Pipeline pipe(fmt, trig);
    ScalarWinePipeline ref(fmt);
    Random rng(1807);
    // 13 slots: one full vector of lanes plus a padded one.
    std::vector<wine2::WaveSlot> waves(13);
    for (auto& w : waves) {
      for (int& n : w.n) n = static_cast<int>(rng.uniform_below(13)) - 6;
      w.a_norm = rng.uniform(0.5, 1.5);
      w.s_norm = rng.uniform(-1.9, 1.9);
      w.c_norm = rng.uniform(-1.9, 1.9);
    }
    pipe.load_waves(waves);
    std::vector<wine2::WineParticle> particles(37);
    for (auto& p : particles) {
      for (auto& phase : p.phase)
        phase = rng.uniform_below(std::uint64_t{1} << fmt.phase_bits);
      p.charge_norm = rng.uniform(-3.0, 3.0);
    }

    const auto acc = pipe.run_dft(particles);
    ASSERT_EQ(acc.size(), waves.size());
    for (std::size_t w = 0; w < waves.size(); ++w) {
      const wine2::DftAccumulator want = ref.dft(waves[w], particles);
      EXPECT_EQ(std::memcmp(&acc[w], &want, sizeof want), 0) << "slot " << w;
    }
    EXPECT_EQ(pipe.saturation_count(), ref.saturations);
    for (std::size_t i = 0; i < particles.size(); ++i) {
      const Vec3 got = pipe.run_idft_particle(particles[i]);
      const Vec3 want = ref.idft(waves, particles[i]);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof want), 0) << "particle " << i;
    }
    EXPECT_EQ(pipe.saturation_count(), ref.saturations);
    EXPECT_GT(ref.saturations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, EmulatorGoldenUnit, kAllIsas,
                         [](const auto& test) { return isa_label(test.param); });

}  // namespace
}  // namespace mdm
