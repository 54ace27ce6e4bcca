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

Chip::Chip(const WineFormats& formats, const TrigUnit& trig) {
  pipelines_.reserve(kPipelines);
  for (int p = 0; p < kPipelines; ++p) pipelines_.emplace_back(formats, trig);
}

void Chip::load_waves(std::span<const WaveSlot> waves) {
  std::vector<std::vector<WaveSlot>> per_pipeline(kPipelines);
  for (std::size_t j = 0; j < waves.size(); ++j)
    per_pipeline[j % kPipelines].push_back(waves[j]);
  for (int p = 0; p < kPipelines; ++p)
    pipelines_[p].load_waves(std::move(per_pipeline[p]));
  occupied_ = static_cast<int>(
      std::min<std::size_t>(waves.size(), kPipelines));
}

std::size_t Chip::wave_count() const {
  std::size_t n = 0;
  for (const auto& p : pipelines_) n += p.wave_count();
  return n;
}

void Chip::run_dft_into(std::span<const WineParticle> particles,
                        std::span<DftAccumulator> out) {
  if (out.size() != wave_count())
    throw std::invalid_argument("Chip: DFT output size mismatch");
  std::size_t offset = 0;
  for (auto& p : pipelines_) {
    p.run_dft_into(particles, out.subspan(offset, p.wave_count()));
    offset += p.wave_count();
  }
}

void Chip::count_idft_pass(std::size_t particles) {
  for (auto& p : pipelines_) p.count_idft_pass(particles);
}

std::uint64_t Chip::wave_particle_ops() const {
  std::uint64_t n = 0;
  for (const auto& p : pipelines_) n += p.wave_particle_ops();
  return n;
}

std::uint64_t Chip::saturation_count() const {
  std::uint64_t n = 0;
  for (const auto& p : pipelines_) n += p.saturation_count();
  return n;
}

void Chip::reset_counters() {
  for (auto& p : pipelines_) p.reset_counter();
}

Wine2System::Wine2System(SystemConfig config) : config_(config) {
  if (config_.clusters < 1 || config_.boards_per_cluster < 1 ||
      config_.chips_per_board < 1)
    throw std::invalid_argument("Wine2System: bad topology");
  if (!config_.formats.valid())
    throw std::invalid_argument("Wine2System: bad formats");
  trig_ = std::make_unique<TrigUnit>(config_.formats);
  const int n_chips = config_.clusters * config_.boards_per_cluster *
                      config_.chips_per_board;
  chips_.reserve(n_chips);
  for (int c = 0; c < n_chips; ++c)
    chips_.emplace_back(config_.formats, *trig_);
}

void Wine2System::load_waves(const KVectorTable& table) {
  kvectors_ = &table;
  // Normalize a_n into (0, 1] with one block exponent.
  double a_max = 0.0;
  for (const auto& kv : table.vectors()) a_max = std::max(a_max, kv.a);
  a_scale_ = power_of_two_scale(a_max);

  // Deal table indices round-robin over chips; remember the order each chip
  // will report its accumulators in (pipeline-major).
  const std::size_t n_chips = chips_.size();
  wave_order_.clear();
  std::vector<std::vector<std::size_t>> chip_input(n_chips);
  for (std::size_t m = 0; m < table.size(); ++m)
    chip_input[m % n_chips].push_back(m);
  for (std::size_t c = 0; c < n_chips; ++c) {
    // Chip deals its slots round-robin over 8 pipelines; the output order is
    // pipeline 0's slots, then pipeline 1's, ...
    for (int p = 0; p < Chip::kPipelines; ++p)
      for (std::size_t j = p; j < chip_input[c].size();
           j += Chip::kPipelines)
        wave_order_.push_back(chip_input[c][j]);
  }

  occupied_chips_ = std::min(n_chips, table.size());
  chip_offsets_.assign(n_chips + 1, 0);
  for (std::size_t c = 0; c < n_chips; ++c)
    chip_offsets_[c + 1] = chip_offsets_[c] + chip_input[c].size();

  // Load the slots: wave triples and a_n (S_n/C_n arrive with the IDFT).
  for (std::size_t c = 0; c < n_chips; ++c) {
    std::vector<WaveSlot> slots;
    slots.reserve(chip_input[c].size());
    for (const auto m : chip_input[c]) {
      const auto& kv = table.vectors()[m];
      WaveSlot slot;
      slot.n[0] = static_cast<int>(kv.n.x);
      slot.n[1] = static_cast<int>(kv.n.y);
      slot.n[2] = static_cast<int>(kv.n.z);
      slot.a_norm = quantize_mantissa(kv.a / a_scale_,
                                      config_.formats.coeff_frac_bits);
      slots.push_back(slot);
    }
    chips_[c].load_waves(slots);
  }
  resident_.clear();
  for (std::size_t c = 0; c < occupied_chips_; ++c)
    for (int p = 0; p < Chip::kPipelines; ++p)
      for (auto& slot : chips_[c].pipeline(p).resident_waves())
        resident_.push_back(&slot);
}

void Wine2System::set_particles(std::span<const Vec3> positions,
                                std::span<const double> charges, double box) {
  if (positions.size() != charges.size())
    throw std::invalid_argument("Wine2System: position/charge size mismatch");
  obs::ScopedPhase host_phase(obs::Phase::kHost);
  MDM_TRACE_SCOPE("wine2.set_particles");
  const std::size_t boards = static_cast<std::size_t>(config_.clusters) *
                             config_.boards_per_cluster;
  (void)boards;
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

  // Each chip owns a disjoint range of the shared accumulator array, so
  // chips run concurrently and the result is bit-identical to the serial
  // scan. The array is member scratch reused across steps.
  dft_acc_.resize(wave_order_.size());
  auto run_chips = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c)
      chips_[c].run_dft_into(
          particles_, std::span(dft_acc_).subspan(
                          chip_offsets_[c], chip_offsets_[c + 1] -
                                                chip_offsets_[c]));
  };
  if (pool_ && pool_->size() > 1) {
    pool_for(
        *pool_, occupied_chips_,
        [&](unsigned, std::size_t begin, std::size_t end) {
          run_chips(begin, end);
        },
        /*min_parallel=*/0);
  } else {
    run_chips(0, occupied_chips_);
  }

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
    resident_[slot]->s_norm = coeff(sf.s[m] / sc_scale);
    resident_[slot]->c_norm = coeff(sf.c[m] / sc_scale);
  }

  // F_i = (4 k_e q_i / L^4) * a_scale * sc_scale * sum over the machine.
  // Particles own disjoint force slots, so the loop fans out over the pool
  // bit-identically to the serial scan (pipelines count saturations in
  // relaxed atomics; their totals are interleaving-independent).
  const double pref =
      4.0 * units::kCoulomb / (box_ * box_ * box_ * box_) * a_scale_ *
      sc_scale;
  auto idft_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Vec3 partial;
      for (std::size_t c = 0; c < occupied_chips_; ++c)
        partial += chips_[c].run_idft_particle(particles_[i]);
      forces[i] += (pref * charges_[i]) * partial;
    }
  };
  if (pool_ && pool_->size() > 1) {
    pool_for(*pool_, particles_.size(),
             [&](unsigned, std::size_t begin, std::size_t end) {
               idft_range(begin, end);
             });
  } else {
    idft_range(0, particles_.size());
  }
  for (std::size_t c = 0; c < occupied_chips_; ++c)
    chips_[c].count_idft_pass(particles_.size());

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

std::uint64_t Wine2System::wave_particle_ops() const {
  std::uint64_t n = 0;
  for (const auto& chip : chips_) n += chip.wave_particle_ops();
  return n;
}

std::uint64_t Wine2System::saturation_count() const {
  std::uint64_t n = 0;
  for (const auto& chip : chips_) n += chip.saturation_count();
  return n;
}

void Wine2System::reset_counters() {
  for (auto& chip : chips_) chip.reset_counters();
}

}  // namespace mdm::wine2
