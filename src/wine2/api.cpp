#include "wine2/api.hpp"

#include <stdexcept>

namespace mdm::wine2 {

void Wine2Library::wine2_allocate_board(int n_boards) {
  if (n_boards < 1)
    throw std::invalid_argument("wine2_allocate_board: n < 1");
  if (system_)
    throw std::logic_error("wine2_allocate_board: boards already acquired");
  requested_boards_ = n_boards;
}

void Wine2Library::wine2_initialize_board(WineFormats formats) {
  if (system_)
    throw std::logic_error("wine2_initialize_board: already initialized");
  SystemConfig config;
  // Boards come seven to a cluster; partial clusters are modelled as
  // single-board clusters.
  if (requested_boards_ % 7 == 0) {
    config.clusters = requested_boards_ / 7;
    config.boards_per_cluster = 7;
  } else {
    config.clusters = requested_boards_;
    config.boards_per_cluster = 1;
  }
  config.formats = formats;
  system_ = std::make_unique<Wine2System>(config);
}

void Wine2Library::wine2_set_nn(std::size_t n_particles) {
  expected_particles_ = n_particles;
}

double Wine2Library::calculate_force_and_pot_wavepart_nooffset(
    std::span<const Vec3> positions, std::span<const double> charges,
    double box, const KVectorTable& kvectors, std::span<Vec3> forces) {
  if (!system_)
    throw std::logic_error(
        "calculate_force_and_pot_wavepart_nooffset: initialize boards first");
  if (expected_particles_ != 0 && positions.size() != expected_particles_)
    throw std::invalid_argument(
        "calculate_force_and_pot_wavepart_nooffset: particle count does not "
        "match wine2_set_nn");
  system_->load_waves(kvectors);
  system_->set_particles(positions, charges, box);
  const auto& sf = system_->run_dft();
  system_->run_idft(sf, forces);
  return system_->reciprocal_energy(sf);
}

void Wine2Library::wine2_free_board() { system_.reset(); }

}  // namespace mdm::wine2
