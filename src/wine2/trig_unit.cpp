#include "wine2/trig_unit.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mdm::wine2 {

TrigUnit::TrigUnit(const WineFormats& formats)
    : trig_(QFormat{.int_bits = 2, .frac_bits = formats.trig_frac_bits}),
      product_(QFormat{.int_bits = 2, .frac_bits = formats.product_frac_bits}) {
  if (!formats.valid()) throw std::invalid_argument("TrigUnit: bad formats");
  const std::size_t entries = std::size_t{1} << formats.table_bits;
  table_.resize(entries + 1);
  for (std::size_t k = 0; k <= entries; ++k) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(entries);
    table_[k] = trig_(std::sin(angle));
  }
  index_shift_ = formats.phase_bits - formats.table_bits;
  phase_mask_ = (std::uint64_t{1} << formats.phase_bits) - 1;
  rem_mask_ = (std::uint64_t{1} << index_shift_) - 1;
  quarter_ = std::uint64_t{1} << (formats.phase_bits - 2);
  rem_scale_ = std::ldexp(1.0, -index_shift_);
  shifter_ = trig_.shifter_rounds() && product_.shifter_rounds();
}

std::uint64_t coordinate_phase(double x, double box, int phase_bits) {
  const double frac = x / box;
  const double scaled = frac * std::ldexp(1.0, phase_bits);
  const auto raw = static_cast<std::int64_t>(std::nearbyint(scaled));
  const std::uint64_t mask = (std::uint64_t{1} << phase_bits) - 1;
  return static_cast<std::uint64_t>(raw) & mask;
}

}  // namespace mdm::wine2
