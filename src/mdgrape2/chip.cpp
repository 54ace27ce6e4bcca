#include "mdgrape2/chip.hpp"

#include <stdexcept>

namespace mdm::mdgrape2 {

void Chip::load_pass(const ForcePass& pass) {
  if (pass.coefficients.species_count < 1 ||
      pass.coefficients.species_count > kMaxAtomTypes)
    throw std::invalid_argument("Chip: coefficient RAM supports 1..32 types");
  pass_ = &pass;
  for (auto& p : pipelines_) p.load(pass_);
}

void Chip::load_pass(ForcePass&& pass) {
  auto owned = std::make_unique<const ForcePass>(std::move(pass));
  load_pass(*owned);
  owned_pass_ = std::move(owned);
}

void Chip::calc_forces(std::span<const StoredParticle> i_batch,
                       std::span<const StoredParticle> j_stream, double box,
                       std::span<Vec3> forces) {
  if (!pass_loaded()) throw std::logic_error("Chip: no pass loaded");
  if (forces.size() != i_batch.size())
    throw std::invalid_argument("Chip: force array size mismatch");
  for (std::size_t k = 0; k < i_batch.size(); ++k)
    count(pipelines_[k % kPipelines].accumulate_force(i_batch[k], j_stream,
                                                      box, forces[k]));
}

void Chip::load_neighbor_lists(
    std::vector<std::vector<std::uint32_t>> lists) {
  neighbor_lists_ = std::move(lists);
}

void Chip::calc_forces_with_neighbor_lists(
    std::span<const StoredParticle> i_batch,
    std::span<const StoredParticle> j_particles, double box,
    std::span<Vec3> forces) {
  if (!pass_loaded()) throw std::logic_error("Chip: no pass loaded");
  if (neighbor_lists_.size() != i_batch.size())
    throw std::invalid_argument(
        "Chip: neighbor-list RAM does not match i-batch");
  if (forces.size() != i_batch.size())
    throw std::invalid_argument("Chip: force array size mismatch");
  std::vector<StoredParticle> stream;
  for (std::size_t k = 0; k < i_batch.size(); ++k) {
    stream.clear();
    for (const auto idx : neighbor_lists_[k]) {
      if (idx >= j_particles.size())
        throw std::out_of_range("Chip: neighbor index out of range");
      stream.push_back(j_particles[idx]);
    }
    count(pipelines_[k % kPipelines].accumulate_force(i_batch[k], stream,
                                                      box, forces[k]));
  }
}

void Chip::reset_counters() {
  pair_operations_ = 0;
  useful_pairs_ = 0;
}

}  // namespace mdm::mdgrape2
