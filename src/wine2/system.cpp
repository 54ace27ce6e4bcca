#include "wine2/system.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "util/fixed_point.hpp"
#include "util/units.hpp"

namespace mdm::wine2 {
namespace {

/// Smallest power of two >= v (v > 0), the driver's block exponent.
double power_of_two_scale(double v) {
  if (!(v > 0.0)) return 1.0;
  return std::ldexp(1.0, std::ilogb(v) + 1);
}

/// Quantize a value to `bits` mantissa bits within its own binade (the
/// per-wave block exponent used for the a_n coefficients, which span many
/// orders of magnitude across the k-table).
double quantize_mantissa(double v, int bits) {
  if (v == 0.0) return 0.0;
  const int e = std::ilogb(v);
  const double scale = std::ldexp(1.0, bits - e);
  return std::nearbyint(v * scale) / scale;
}

}  // namespace

Wine2System::Wine2System(SystemConfig config) : config_(config) {
  if (config_.clusters < 1 || config_.boards_per_cluster < 1 ||
      config_.chips_per_board < 1)
    throw std::invalid_argument("Wine2System: bad topology");
  if (!config_.formats.valid())
    throw std::invalid_argument("Wine2System: bad formats");
  trig_ = std::make_unique<TrigUnit>(config_.formats);
  chip_count_ = config_.clusters * config_.boards_per_cluster *
                config_.chips_per_board;
}

void Wine2System::load_waves(const KVectorTable& table) {
  kvectors_ = &table;
  // Normalize a_n into (0, 1] with one block exponent.
  double a_max = 0.0;
  for (const auto& kv : table.vectors()) a_max = std::max(a_max, kv.a);
  a_scale_ = power_of_two_scale(a_max);

  // Deal table indices round-robin over chips (chip c holds m = c mod
  // chips), and each chip's j-th slot to pipeline j mod 8. The dealt order
  // is chip by chip, each chip pipeline by pipeline; the occupied chips and
  // pipelines are prefixes.
  const auto n_chips = static_cast<std::size_t>(chip_count_);
  const std::size_t stride = n_chips * kPipelinesPerChip;
  wave_order_.clear();
  tree_.pipe_end.clear();
  tree_.chip_end.clear();
  for (std::size_t c = 0; c < std::min(n_chips, table.size()); ++c) {
    for (std::size_t p = 0; p < kPipelinesPerChip; ++p) {
      const std::size_t before = wave_order_.size();
      for (std::size_t m = c + p * n_chips; m < table.size(); m += stride)
        wave_order_.push_back(m);
      if (wave_order_.size() > before)
        tree_.pipe_end.push_back(
            static_cast<std::uint32_t>(wave_order_.size()));
    }
    tree_.chip_end.push_back(
        static_cast<std::uint32_t>(tree_.pipe_end.size()));
  }

  // Load the slots: wave triples and a_n (S_n/C_n arrive with the IDFT).
  std::vector<WaveSlot> slots(wave_order_.size());
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    const auto& kv = table.vectors()[wave_order_[slot]];
    slots[slot].n[0] = static_cast<int>(kv.n.x);
    slots[slot].n[1] = static_cast<int>(kv.n.y);
    slots[slot].n[2] = static_cast<int>(kv.n.z);
    slots[slot].a_norm =
        quantize_mantissa(kv.a / a_scale_, config_.formats.coeff_frac_bits);
  }
  rows_.assign(slots);
}

void Wine2System::set_particles(std::span<const Vec3> positions,
                                std::span<const double> charges, double box) {
  if (positions.size() != charges.size())
    throw std::invalid_argument("Wine2System: position/charge size mismatch");
  obs::ScopedPhase host_phase(obs::Phase::kHost);
  MDM_TRACE_SCOPE("wine2.set_particles");
  if (positions.size() > kBoardParticleCapacity)
    throw std::length_error(
        "Wine2System: particle memory capacity exceeded (16 MB SDRAM/board)");
  box_ = box;
  double q_max = 0.0;
  for (const double q : charges) q_max = std::max(q_max, std::fabs(q));
  charge_scale_ = power_of_two_scale(q_max);
  particles_.resize(positions.size());
  charges_.assign(charges.begin(), charges.end());
  for (std::size_t i = 0; i < positions.size(); ++i)
    particles_[i] = make_wine_particle(positions[i], box, charges[i],
                                       charge_scale_, config_.formats);
}

const StructureFactors& Wine2System::run_dft() {
  if (!kvectors_) throw std::logic_error("Wine2System: waves not loaded");
  if (particles_.empty())
    throw std::logic_error("Wine2System: particles not loaded");
  obs::ScopedPhase wave_phase(obs::Phase::kWavenumber);
  MDM_TRACE_SCOPE("wine2.dft");
  const std::uint64_t sat_before = saturation_count();

  // Each vector of kWaveLanes slots owns a disjoint range of the shared
  // accumulator array, so vectors run concurrently and the result is
  // bit-identical to the serial scan. The array is member scratch reused
  // across steps.
  const std::size_t slots = rows_.size;
  dft_acc_.resize(slots);
  pool_for_items(pool_, (slots + kWaveLanes - 1) / kWaveLanes,
                 [&](unsigned, std::size_t begin, std::size_t end) {
                   const std::size_t b = begin * kWaveLanes;
                   saturations_.fetch_add(
                       dft_lanes(*trig_, rows_, b,
                                 std::min(end * kWaveLanes, slots), particles_,
                                 dft_acc_.data() + b),
                       std::memory_order_relaxed);
                 });
  ops_ += static_cast<std::uint64_t>(slots) * particles_.size();

  sf_.s.resize(kvectors_->size());
  sf_.c.resize(kvectors_->size());
  for (std::size_t slot = 0; slot < wave_order_.size(); ++slot) {
    const std::size_t m = wave_order_[slot];
    const DftAccumulator& acc = dft_acc_[slot];
    // Host reconstructs S and C from S+C and S-C (sec. 3.4.4).
    sf_.s[m] = 0.5 * (acc.s_plus_c + acc.s_minus_c) * charge_scale_;
    sf_.c[m] = 0.5 * (acc.s_plus_c - acc.s_minus_c) * charge_scale_;
  }
  auto& reg = obs::Registry::global();
  static obs::Counter& dft_ops = reg.counter("wine2.dft_ops");
  static obs::Counter& saturations = reg.counter("wine2.saturations");
  dft_ops.add(wave_order_.size() * particles_.size());
  saturations.add(saturation_count() - sat_before);
  return sf_;
}

void Wine2System::run_idft(const StructureFactors& sf,
                           std::span<Vec3> forces) {
  if (!kvectors_) throw std::logic_error("Wine2System: waves not loaded");
  if (forces.size() != particles_.size())
    throw std::invalid_argument("Wine2System: force array size mismatch");
  if (sf.s.size() != kvectors_->size())
    throw std::invalid_argument("Wine2System: structure factor mismatch");
  obs::ScopedPhase wave_phase(obs::Phase::kWavenumber);
  MDM_TRACE_SCOPE("wine2.idft");
  const std::uint64_t sat_before = saturation_count();

  // Block-normalize the structure factors into the resident slots.
  double sc_max = 0.0;
  for (std::size_t m = 0; m < sf.s.size(); ++m)
    sc_max = std::max({sc_max, std::fabs(sf.s[m]), std::fabs(sf.c[m])});
  const double sc_scale = power_of_two_scale(sc_max);
  const Quantizer coeff(
      QFormat{.int_bits = 2, .frac_bits = config_.formats.coeff_frac_bits});
  for (std::size_t slot = 0; slot < wave_order_.size(); ++slot) {
    const std::size_t m = wave_order_[slot];
    rows_.s[slot] = coeff(sf.s[m] / sc_scale);
    rows_.c[slot] = coeff(sf.c[m] / sc_scale);
  }

  // F_i = (4 k_e q_i / L^4) * a_scale * sc_scale * sum over the machine.
  // Each vector of kWaveLanes particles owns its force slots, so vectors
  // fan out over the pool bit-identically to the serial scan.
  const double pref =
      4.0 * units::kCoulomb / (box_ * box_ * box_ * box_) * a_scale_ *
      sc_scale;
  const std::size_t n = particles_.size();
  auto run_vectors = [&](unsigned, std::size_t begin, std::size_t end) {
    std::uint64_t saturated = 0;
    for (std::size_t v = begin; v < end; ++v) {
      const std::size_t i0 = v * kWaveLanes;
      const std::size_t len = std::min(kWaveLanes, n - i0);
      Vec3 partial[kWaveLanes];
      saturated += idft_lanes(*trig_, rows_, tree_,
                              std::span(particles_).subspan(i0, len), partial);
      for (std::size_t k = 0; k < len; ++k)
        forces[i0 + k] += (pref * charges_[i0 + k]) * partial[k];
    }
    saturations_.fetch_add(saturated, std::memory_order_relaxed);
  };
  pool_for_items(pool_, (n + kWaveLanes - 1) / kWaveLanes, run_vectors);
  ops_ += static_cast<std::uint64_t>(rows_.size) * n;

  auto& reg = obs::Registry::global();
  static obs::Counter& idft_ops = reg.counter("wine2.idft_ops");
  static obs::Counter& saturations = reg.counter("wine2.saturations");
  idft_ops.add(wave_order_.size() * particles_.size());
  saturations.add(saturation_count() - sat_before);
}

double Wine2System::reciprocal_energy(const StructureFactors& sf) const {
  if (!kvectors_) throw std::logic_error("Wine2System: waves not loaded");
  double e = 0.0;
  for (std::size_t m = 0; m < kvectors_->size(); ++m) {
    e += kvectors_->vectors()[m].a *
         (sf.s[m] * sf.s[m] + sf.c[m] * sf.c[m]);
  }
  return units::kCoulomb / (std::numbers::pi * box_ * box_ * box_) * e;
}

std::uint64_t Wine2System::wave_particle_ops() const { return ops_; }

std::uint64_t Wine2System::saturation_count() const {
  return saturations_.load(std::memory_order_relaxed);
}

void Wine2System::reset_counters() {
  ops_ = 0;
  saturations_.store(0, std::memory_order_relaxed);
}

}  // namespace mdm::wine2
