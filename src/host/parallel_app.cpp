#include "host/parallel_app.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numbers>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/health.hpp"
#include "host/distributed_pme.hpp"
#include "host/fault_injector.hpp"
#include "host/vmpi.hpp"
#include "host/wine2_mpi.hpp"
#include "mdgrape2/gtables.hpp"
#include "native/kspace.hpp"
#include "native/real_kernel.hpp"
#include "native/soa.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/step_breakdown.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/units.hpp"

namespace mdm::host {
namespace {

/// Message tags (sec. 4 communication patterns). Must avoid the collective
/// ranges of vmpi and the 7001+ tags of the WINE-2 MPI library.
enum Tag : int {
  kScatter = 100,
  kHalo = 200,
  kToWine = 300,
  kFromWine = 400,
  kWineEnergy = 450,
  kMigrate = 500,
  kGatherFinal = 600,
  kCkptGather = 700,
  kCkptAck = 701,
};

/// One particle as it travels between processes.
struct PRec {
  std::uint32_t id = 0;
  std::int32_t type = 0;
  Vec3 pos{};
  Vec3 vel{};
  Vec3 force{};
};
static_assert(std::is_trivially_copyable_v<PRec>);

/// Compact record shipped to the wavenumber processes.
struct WnRec {
  std::uint32_t id = 0;
  std::int32_t type = 0;
  Vec3 pos{};
};
static_assert(std::is_trivially_copyable_v<WnRec>);

struct IdForce {
  std::uint32_t id = 0;
  Vec3 force{};
};
static_assert(std::is_trivially_copyable_v<IdForce>);

/// Immutable data shared by all ranks (read-only after construction).
struct Shared {
  ParallelAppConfig config;
  double box = 0.0;
  std::size_t n_particles = 0;
  std::vector<Species> species;
  std::vector<double> species_charge;  ///< charge per species (type)
  std::vector<PRec> initial;  // full initial state
  double self_energy = 0.0;
  double background_energy = 0.0;
  int total_steps = 0;
  vmpi::FaultInjector* injector = nullptr;  ///< not owned; may be null

  // Checkpoint/restart wiring (DESIGN.md §8). `initial` and `start_step`
  // are rewritten between recovery attempts; threads are joined in between,
  // so the mutation is race-free.
  int start_step = 0;                      ///< resume after this step
  CheckpointManager* checkpoint = nullptr; ///< not owned; may be null
  int checkpoint_interval = 0;             ///< steps between checkpoints
};

/// Injected rank failure: the rank throws at its fault step, exactly like a
/// crashed MPI process; vmpi propagates it to every peer.
void maybe_fail_rank(const Shared& shared, int rank, int step) {
  if (shared.injector && shared.injector->should_fail_rank(rank, step)) {
    obs::FlightRecorder::record(obs::FlightKind::kRankFail, "injected", step,
                                rank);
    throw std::runtime_error("injected fault: rank " + std::to_string(rank) +
                             " failed at step " + std::to_string(step));
  }
}

/// Cooperative cancel, polled by every real rank at each step boundary. The
/// first rank to observe the flag unwinds (poisoning the fabric wakes any
/// blocked peer); World::run rethrows the ParallelCancelled.
void maybe_cancel(const Shared& shared, int rank, int step) {
  if (shared.config.cancel &&
      shared.config.cancel->load(std::memory_order_relaxed)) {
    obs::FlightRecorder::record(obs::FlightKind::kNote, "cancelled", step,
                                rank);
    throw ParallelCancelled("parallel app cancelled at step " +
                            std::to_string(step));
  }
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::Trace::now_ns() - start_ns) * 1e-6;
}

/// Flight-recorder dump next to the checkpoints (DESIGN.md §10): the last
/// ~512 events per thread — steps, sends/recvs, health samples, checkpoint
/// generations — for the postmortem of a failed run. Requires a checkpoint
/// directory ("alongside the latest checkpoint"); without one the events
/// stay in memory.
void dump_flight(const ParallelAppConfig& config, const char* reason) {
  if (!obs::FlightRecorder::enabled() || config.checkpoint_dir.empty())
    return;
  const std::string path =
      config.checkpoint_dir + "/flight_" + reason + ".json";
  if (obs::FlightRecorder::write_json_file(path)) {
    MDM_LOG_WARN("parallel: flight recorder dumped to %s (%llu events "
                 "recorded)",
                 path.c_str(),
                 static_cast<unsigned long long>(
                     obs::FlightRecorder::recorded_count()));
  }
}

/// ---------------- wavenumber process ------------------------------------

/// Wavenumber-rank side of the position/force exchange, shared by the three
/// solver loops (WINE-2 library, native SF, distributed PME): one (possibly
/// empty) batch in from every real rank per round, and the computed forces
/// bucketed back to their owners. The buffers persist across rounds.
class WnExchange {
 public:
  WnExchange(const Shared& shared, vmpi::Communicator& comm)
      : wn_comm(comm.subgroup(wn_ranks(shared))),
        shared_(shared),
        comm_(comm),
        outgoing_(shared.config.real_processes) {}

  /// Receive this round's particles: fills positions/types/charges and
  /// zeroes `forces` to match.
  void receive() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wn_recv");
    local_.clear();
    owner_.clear();
    for (int r = 0; r < shared_.config.real_processes; ++r) {
      for (const auto& rec : comm_.recv<WnRec>(r, kToWine)) {
        local_.push_back(rec);
        owner_.push_back(r);
      }
    }
    const std::size_t n = local_.size();
    positions.resize(n);
    types.resize(n);
    charges.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      positions[i] = local_[i].pos;
      types[i] = local_[i].type;
      charges[i] = shared_.species_charge[local_[i].type];
    }
    forces.assign(n, Vec3{});
  }

  /// Return `forces` to the owning real ranks; the group root also sends
  /// the reciprocal energy to real rank 0 (other ranks' value is ignored).
  void send_forces(double energy) {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wn_send");
    for (auto& out : outgoing_) out.clear();
    for (std::size_t i = 0; i < local_.size(); ++i)
      outgoing_[owner_[i]].push_back({local_[i].id, forces[i]});
    for (std::size_t r = 0; r < outgoing_.size(); ++r)
      comm_.send(static_cast<int>(r), kFromWine, outgoing_[r]);
    if (wn_comm.rank() == 0) comm_.send_value(0, kWineEnergy, energy);
  }

  vmpi::Communicator wn_comm;  ///< the wavenumber group
  std::vector<Vec3> positions;
  std::vector<int> types;
  std::vector<double> charges;
  std::vector<Vec3> forces;

 private:
  static std::vector<int> wn_ranks(const Shared& shared) {
    std::vector<int> ranks(shared.config.wn_processes);
    std::iota(ranks.begin(), ranks.end(), shared.config.real_processes);
    return ranks;
  }

  const Shared& shared_;
  vmpi::Communicator& comm_;
  std::vector<WnRec> local_;
  std::vector<int> owner_;  ///< real rank per local particle
  std::vector<std::vector<IdForce>> outgoing_;
};

/// Native-backend wavenumber process (DESIGN.md §11): the same rank topology
/// and message flow as the WINE-2 path, but the structure factors come from
/// the vectorized NativeKspace DFT on the local particle slice and are
/// summed across the wavenumber group with an explicit allreduce (the WINE-2
/// MPI library does the equivalent reduction internally).
void wavenumber_main_native(const Shared& shared, vmpi::Communicator& comm) {
  WnExchange ex(shared, comm);
  const KVectorTable kvectors(shared.box, shared.config.ewald.alpha,
                              shared.config.ewald.lk_cut);
  native::NativeKspace kspace(kvectors);

  // Structure-factor allreduce tags: above the WINE-2 library's 7001+ range.
  constexpr int kSfSinTag = 7101;
  constexpr int kSfCosTag = 7103;

  native::SoaParticles soa;
  StructureFactors sf;

  for (int round = shared.start_step; round <= shared.total_steps; ++round) {
    obs::TraceSpan round_span("wn.round");
    maybe_fail_rank(shared, comm.rank(), round);
    ex.receive();
    soa.sync(shared.box, ex.positions, ex.types, shared.species_charge);

    kspace.dft(soa, sf);
    {
      obs::ScopedPhase comm_phase(obs::Phase::kComm);
      MDM_TRACE_SCOPE("parallel.sf_allreduce");
      ex.wn_comm.allreduce_sum(sf.s, kSfSinTag);
      ex.wn_comm.allreduce_sum(sf.c, kSfCosTag);
    }
    kspace.idft(soa, sf, ex.forces);
    ex.send_forces(ex.wn_comm.rank() == 0
                       ? kspace.energy_virial(sf).potential
                       : 0.0);
  }
}

/// Distributed-PME wavenumber process (DESIGN.md §12): same rank topology
/// and message flow as the structure-factor paths, but the reciprocal sum
/// runs on the slab-decomposed mesh engine. Real ranks route each particle
/// to the owner of its base spreading plane (PmeSlabLayout::route), not by
/// id, so every rank spreads only onto its own slab plus its ghost planes.
void wavenumber_main_pme(const Shared& shared, vmpi::Communicator& comm) {
  WnExchange ex(shared, comm);
  const PmeParameters pme =
      validated_pme(resolved_pme(shared.config), shared.box);
  DistributedPmeRank engine(pme, shared.box, ex.wn_comm);

  for (int round = shared.start_step; round <= shared.total_steps; ++round) {
    obs::TraceSpan round_span("wn.round");
    ex.receive();
    // Fault poll after the recv, not at the top of the round: an injected
    // death here models a k-space rank dying mid-FFT — its peers are
    // already inside the collective mesh transform and surface
    // PeerFailedError from the transpose/ghost-plane exchanges.
    maybe_fail_rank(shared, comm.rank(), round);
    ex.send_forces(engine.step(ex.positions, ex.charges, ex.forces));
  }
}

void wavenumber_main(const Shared& shared, vmpi::Communicator& comm) {
  if (shared.config.kspace_solver == KspaceSolver::kPme)
    return wavenumber_main_pme(shared, comm);
  if (shared.config.backend == Backend::kNative)
    return wavenumber_main_native(shared, comm);
  WnExchange ex(shared, comm);
  Wine2MpiLibrary lib;
  lib.wine2_set_MPI_community(&ex.wn_comm);
  lib.wine2_allocate_board(shared.config.wine_boards_per_process);
  lib.wine2_initialize_board(shared.config.wine_formats);

  const KVectorTable kvectors(shared.box, shared.config.ewald.alpha,
                              shared.config.ewald.lk_cut);

  // One round per force evaluation: the resume (or initial) priming pass
  // plus one per remaining step. Round k serves the force evaluation of
  // step k.
  for (int round = shared.start_step; round <= shared.total_steps; ++round) {
    // Coarse per-rank span (always compiled, unlike MDM_TRACE_SCOPE): the
    // merged job trace shows every rank's round cadence in Release too.
    obs::TraceSpan round_span("wn.round");
    maybe_fail_rank(shared, comm.rank(), round);
    ex.receive();
    ex.send_forces(lib.calculate_force_and_pot_wavepart_nooffset(
        ex.positions, ex.charges, shared.box, kvectors, ex.forces));
  }
  lib.wine2_free_board();
}

/// ---------------- real-space process -------------------------------------

class RealProcess {
 public:
  RealProcess(const Shared& shared, vmpi::Communicator& comm)
      : shared_(shared),
        comm_(comm),
        grid_(shared.config.domain_nx > 0
                  ? DomainGrid(shared.config.domain_nx,
                               shared.config.domain_ny,
                               shared.config.domain_nz, shared.box)
                  : DomainGrid::for_processes(shared.config.real_processes,
                                              shared.box)) {
    if (shared_.config.kspace_solver == KspaceSolver::kPme) {
      const PmeParameters pme = resolved_pme(shared_.config);
      pme_layout_ = PmeSlabLayout::create(pme.grid, pme.order,
                                          shared_.config.wn_processes);
      use_pme_ = true;
    }
    const double beta = shared_.config.ewald.alpha / shared_.box;
    if (shared_.config.backend == Backend::kNative) {
      native::NativeRealKernel::Config rc;
      rc.box = shared_.box;
      rc.beta = beta;
      rc.r_cut = shared_.config.ewald.r_cut;
      rc.include_tosi_fumi = shared_.config.include_tosi_fumi;
      rc.tosi_fumi = shared_.config.tosi_fumi;
      native_kernel_ = std::make_unique<native::NativeRealKernel>(rc);
      return;
    }
    mdgrape_.emplace(mdgrape2::SystemConfig{
        .clusters = shared_.config.mdgrape_boards_per_process,
        .boards_per_cluster = 1});
    local_.emplace(shared_.box);
    for (const auto& s : shared_.species) local_->add_species(s);
    force_passes_.push_back(mdgrape2::make_coulomb_real_pass(
        beta, shared_.config.ewald.r_cut, shared_.species_charge));
    potential_passes_.push_back(mdgrape2::make_coulomb_real_potential_pass(
        beta, shared_.config.ewald.r_cut, shared_.species_charge));
    if (shared_.config.include_tosi_fumi) {
      for (auto& p : mdgrape2::make_tosi_fumi_passes(
               shared_.config.tosi_fumi, shared_.config.ewald.r_cut))
        force_passes_.push_back(std::move(p));
      for (auto& p : mdgrape2::make_tosi_fumi_potential_passes(
               shared_.config.tosi_fumi, shared_.config.ewald.r_cut))
        potential_passes_.push_back(std::move(p));
    }
  }

  void main() {
    const int start = shared_.start_step;
    obs::FlightRecorder::record(obs::FlightKind::kPhase, "scatter", start);
    scatter_initial();
    apply_injected_faults(start);
    compute_forces();
    // Collective: every real rank joins the reductions. After a restore
    // the samples continue from start + 1.
    if (start == 0) record_sample(0);
    const auto& cfg = shared_.config.protocol;
    for (int step = start + 1; step <= shared_.total_steps; ++step) {
      // Coarse per-rank span (always compiled, unlike MDM_TRACE_SCOPE): the
      // merged job trace shows every rank's step cadence in Release too.
      obs::TraceSpan step_span("rank.step");
      obs::FlightRecorder::record(obs::FlightKind::kStep, nullptr, step);
      maybe_cancel(shared_, rank(), step);
      apply_injected_faults(step);
      half_kick();
      drift();
      migrate();
      compute_forces();
      half_kick();
      if (step <= cfg.nvt_steps && step % cfg.rescale_interval == 0)
        thermostat();
      check_health(step);
      if (step % cfg.sample_interval == 0) record_sample(step);
      maybe_checkpoint(step);
    }
    obs::FlightRecorder::record(obs::FlightKind::kPhase, "gather",
                                shared_.total_steps);
    gather_final();
  }

  std::vector<Sample> samples;           // rank 0 only
  std::vector<Vec3> final_positions;     // rank 0 only
  std::vector<Vec3> final_velocities;    // rank 0 only

 private:
  int rank() const { return comm_.rank(); }
  int real_count() const { return shared_.config.real_processes; }
  int wn_count() const { return shared_.config.wn_processes; }

  double mass_of(const PRec& p) const {
    return shared_.species[p.type].mass;
  }

  /// Poll the fault injector at the top of each step: an injected rank
  /// failure throws (and poisons the fabric); an injected board failure
  /// degrades this rank's MDGRAPE-2 cluster onto its surviving boards.
  void apply_injected_faults(int step) {
    auto* injector = shared_.injector;
    if (!injector) return;
    maybe_fail_rank(shared_, rank(), step);
    const int board = injector->board_to_fail(rank(), step);
    if (board < 0) return;
    if (!mdgrape_) {
      MDM_LOG_WARN(
          "parallel: rank %d has no MDGRAPE-2 boards on the native backend; "
          "ignoring the injected loss of board %d at step %d",
          rank(), board, step);
      return;
    }
    if (board >= mdgrape_->board_count() || mdgrape_->board_failed(board))
      return;
    MDM_LOG_WARN(
        "parallel: rank %d loses MDGRAPE-2 board %d at step %d; degrading "
        "to %d boards",
        rank(), board, step, mdgrape_->alive_board_count() - 1);
    mdgrape_->fail_board(board);
    static obs::Counter& failures =
        obs::Registry::global().counter("parallel.board_failures");
    failures.add(1);
  }

  void scatter_initial() {
    if (rank() == 0) {
      std::vector<std::vector<PRec>> buckets(real_count());
      for (const auto& p : shared_.initial)
        buckets[grid_.domain_of(p.pos)].push_back(p);
      my_ = std::move(buckets[0]);
      for (int r = 1; r < real_count(); ++r)
        comm_.send(r, kScatter, buckets[r]);
    } else {
      my_ = comm_.recv<PRec>(0, kScatter);
    }
    rebuild_id_index();
  }

  /// Rebuild the id -> my_ slot map; owned particle ids are a subset of the
  /// dense global 0..N-1 ids, so a flat vector beats a hash map. Must run
  /// after every ownership change (scatter, migration).
  void rebuild_id_index() {
    id_slot_.assign(shared_.n_particles, -1);
    for (std::size_t i = 0; i < my_.size(); ++i)
      id_slot_[my_[i].id] = static_cast<std::int32_t>(i);
  }

  /// Halo exchange: ship to each other real rank the particles within r_cut
  /// of that rank's domain cuboid; receive the same from everyone.
  std::vector<PRec> exchange_halos() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.halo_exchange");
    const std::uint64_t t0 = obs::Trace::now_ns();
    const double r_cut = shared_.config.ewald.r_cut;
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      std::vector<PRec> out;
      for (const auto& p : my_)
        if (grid_.distance_to_domain(p.pos, d) < r_cut) out.push_back(p);
      comm_.send(d, kHalo, out);
    }
    std::vector<PRec> halo;
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      const auto part = comm_.recv<PRec>(d, kHalo);
      halo.insert(halo.end(), part.begin(), part.end());
    }
    halo_ms_ += ms_since(t0);
    return halo;
  }

  /// One force evaluation with the two machine groups overlapped, as
  /// MDGRAPE-2 and WINE-2 computed concurrently on the MDM (paper §4): the
  /// positions go to the wavenumber ranks first, the halo exchange and the
  /// real-space pass run while those ranks compute, and the returned k-space
  /// forces are added afterwards. Bit-identical to shipping after the real
  /// pass: the wavenumber ranks receive the same batches in the same order,
  /// and each owned force is still the real-space force first, then `+=`
  /// the returned k-space forces in return order. wine_ms_ is the real
  /// rank's k-space time: packing and sending plus the exposed wait.
  void compute_forces() {
    std::uint64_t t_wine = obs::Trace::now_ns();
    send_to_wine();
    wine_ms_ += ms_since(t_wine);

    const auto halo = exchange_halos();
    const std::uint64_t t_force = obs::Trace::now_ns();
    if (native_kernel_) {
      compute_real_native(halo);
    } else {
      compute_real_emulated(halo);
    }
    mdgrape_ms_ += ms_since(t_force);

    t_wine = obs::Trace::now_ns();
    receive_from_wine();
    wine_ms_ += ms_since(t_wine);
  }

  /// Ship the owned positions to the wavenumber ranks. The structure-factor
  /// paths partition by particle id; PME routes by mesh geometry: the
  /// wavenumber rank owning the particle's base spreading plane gets it
  /// (same floor(wrap(z)/L*K) as the spline kernel, so routing and
  /// spreading cannot disagree).
  void send_to_wine() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wine_send");
    for (auto& batch : to_wine_) batch.clear();
    for (const auto& p : my_) {
      const int w = use_pme_ ? pme_layout_.route(p.pos.z, shared_.box)
                             : static_cast<int>(p.id % wn_count());
      to_wine_[w].push_back({p.id, p.type, p.pos});
    }
    for (int w = 0; w < wn_count(); ++w)
      comm_.send(real_count() + w, kToWine, to_wine_[w]);
  }

  /// Add the k-space forces to the real-space forces of the owned
  /// particles; rank 0 also receives the reciprocal energy.
  void receive_from_wine() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.wine_recv");
    for (int w = 0; w < wn_count(); ++w) {
      for (const auto& idf :
           comm_.recv<IdForce>(real_count() + w, kFromWine)) {
        const std::int32_t slot =
            idf.id < id_slot_.size() ? id_slot_[idf.id] : -1;
        if (slot < 0)
          throw std::runtime_error("parallel app: wavenumber force for a "
                                   "particle this rank does not own");
        my_[static_cast<std::size_t>(slot)].force += idf.force;
      }
    }
    if (rank() == 0)
      wn_energy_ = comm_.recv_value<double>(real_count(), kWineEnergy);
  }

  /// Emulator real-space pass: owned + halo through the MDGRAPE-2 boards,
  /// every force and potential pass in one sweep into the rank's buffers.
  void compute_real_emulated(const std::vector<PRec>& halo) {
    // Local particle image: owned first, then halo (MDGRAPE-2 j-set).
    local_->clear_particles();
    for (const auto& p : my_) local_->add_particle(p.type, p.pos);
    for (const auto& p : halo) local_->add_particle(p.type, p.pos);
    force_buf_.assign(local_->size(), Vec3{});
    pot_buf_.assign(local_->size(), 0.0);
    if (local_->size() > 0) {
      mdgrape_->load_particles(*local_, shared_.config.ewald.r_cut);
      targets_.clear();
      for (const auto& pass : force_passes_)
        targets_.push_back({&pass, force_buf_, {}});
      for (const auto& pass : potential_passes_)
        targets_.push_back({&pass, {}, pot_buf_});
      mdgrape_->run_passes(targets_);
    }
    // Real-space + short-range potential of the owned particles (pair
    // energies are seen from both sides, hence the factor 1/2).
    local_potential_ = 0.0;
    for (std::size_t i = 0; i < my_.size(); ++i) {
      my_[i].force = force_buf_[i];
      local_potential_ += 0.5 * pot_buf_[i];
    }
  }

  /// Native real-space pass (DESIGN.md §11): one fused one-sided sweep over
  /// owned + halo gives forces AND potential; like the emulator potential
  /// pass it sees every owned pair from both sides, hence the factor 1/2.
  void compute_real_native(const std::vector<PRec>& halo) {
    pos_buf_.resize(my_.size() + halo.size());
    type_buf_.resize(my_.size() + halo.size());
    for (std::size_t i = 0; i < my_.size(); ++i) {
      pos_buf_[i] = my_[i].pos;
      type_buf_[i] = my_[i].type;
    }
    for (std::size_t i = 0; i < halo.size(); ++i) {
      pos_buf_[my_.size() + i] = halo[i].pos;
      type_buf_[my_.size() + i] = halo[i].type;
    }
    soa_.sync(shared_.box, pos_buf_, type_buf_, shared_.species_charge);

    force_buf_.assign(soa_.size(), Vec3{});
    local_potential_ = 0.0;
    if (soa_.size() > 0) {
      const ForceResult result =
          native_kernel_->one_sided(soa_, my_.size(), force_buf_);
      local_potential_ = 0.5 * result.potential;
    }
    for (std::size_t i = 0; i < my_.size(); ++i)
      my_[i].force = force_buf_[i];
  }

  void half_kick() {
    const double dt = shared_.config.protocol.dt_fs;
    for (auto& p : my_) {
      const double c = 0.5 * dt * units::kAccelUnit / mass_of(p);
      p.vel += c * p.force;
    }
  }

  void drift() {
    const double dt = shared_.config.protocol.dt_fs;
    for (auto& p : my_) {
      p.pos += dt * p.vel;
      p.pos = wrap_position(p.pos, shared_.box);
    }
  }

  void migrate() {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.migrate");
    const std::uint64_t t0 = obs::Trace::now_ns();
    std::vector<std::vector<PRec>> buckets(real_count());
    for (const auto& p : my_) buckets[grid_.domain_of(p.pos)].push_back(p);
    my_ = std::move(buckets[rank()]);
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      comm_.send(d, kMigrate, buckets[d]);
    }
    for (int d = 0; d < real_count(); ++d) {
      if (d == rank()) continue;
      const auto part = comm_.recv<PRec>(d, kMigrate);
      my_.insert(my_.end(), part.begin(), part.end());
    }
    // Deterministic ownership order regardless of arrival order.
    std::sort(my_.begin(), my_.end(),
              [](const PRec& a, const PRec& b) { return a.id < b.id; });
    rebuild_id_index();
    migrate_ms_ += ms_since(t0);
  }

  /// Global kinetic energy (eV) via allreduce over the real group.
  double global_kinetic() {
    double twice_ke = 0.0;
    for (const auto& p : my_) twice_ke += mass_of(p) * norm2(p.vel);
    twice_ke = real_allreduce(twice_ke);
    return 0.5 * twice_ke / units::kAccelUnit;
  }

  double global_temperature() {
    const double dof =
        3.0 * static_cast<double>(shared_.n_particles) -
        (shared_.n_particles > 1 ? 3.0 : 0.0);
    return 2.0 * global_kinetic() / (dof * units::kBoltzmann);
  }

  void thermostat() {
    const double t = global_temperature();
    if (t <= 0.0) return;
    const double scale =
        std::sqrt(shared_.config.protocol.temperature_K / t);
    for (auto& p : my_) p.vel *= scale;
  }

  /// Sum-allreduce one double over the real-process group (point-to-point;
  /// tags distinct from the collective helpers).
  double real_allreduce(double v) {
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    if (rank() == 0) {
      for (int r = 1; r < real_count(); ++r)
        v += comm_.recv_value<double>(r, 9001);
      for (int r = 1; r < real_count(); ++r) comm_.send_value(r, 9002, v);
      return v;
    }
    comm_.send_value(0, 9001, v);
    return comm_.recv_value<double>(0, 9002);
  }

  void record_sample(int step) {
    const double kinetic = global_kinetic();
    const double potential_rs = real_allreduce(local_potential_);
    if (rank() != 0) return;
    Sample s;
    s.step = step;
    s.time_ps = step * shared_.config.protocol.dt_fs * 1e-3;
    const double dof =
        3.0 * static_cast<double>(shared_.n_particles) -
        (shared_.n_particles > 1 ? 3.0 : 0.0);
    s.temperature_K = 2.0 * kinetic / (dof * units::kBoltzmann);
    s.kinetic_eV = kinetic;
    s.potential_eV = potential_rs + wn_energy_ + shared_.self_energy +
                     shared_.background_energy;
    s.total_eV = s.kinetic_eV + s.potential_eV;
    samples.push_back(s);
    // Global watchdog checks run on rank 0, which alone sees the reduced
    // quantities; a violation poisons the fabric like any rank failure and
    // surfaces from World::run as SimulationHealthError.
    health_.check_temperature(s.temperature_K, step);
    if (step >= shared_.config.protocol.nvt_steps)
      health_.observe_energy(s.total_eV, step);
  }

  /// Rank-local NaN/Inf scan of the owned particles (reported by global
  /// particle id).
  void check_health(int step) {
    if (!shared_.config.health.check_finite) return;
    for (const auto& p : my_) {
      health_.check_finite_one(p.pos, "position", step, p.id);
      health_.check_finite_one(p.vel, "velocity", step, p.id);
      health_.check_finite_one(p.force, "force", step, p.id);
    }
  }

  /// Every checkpoint_interval steps the real group funnels its particles
  /// to rank 0, which writes one rotating crash-consistent generation.
  void maybe_checkpoint(int step) {
    auto* mgr = shared_.checkpoint;
    if (!mgr || shared_.checkpoint_interval <= 0 ||
        step % shared_.checkpoint_interval != 0)
      return;
    obs::ScopedPhase comm_phase(obs::Phase::kComm);
    MDM_TRACE_SCOPE("parallel.checkpoint");
    // The ack makes the checkpoint an epoch barrier: no real rank enters
    // step+1 until the generation is durably on disk. Without it a rank
    // dying at step+1 can poison the fabric while rank 0 is still writing,
    // leaving nothing to recover from.
    if (rank() != 0) {
      comm_.send(0, kCkptGather, my_);
      comm_.recv_value<int>(0, kCkptAck);
      return;
    }
    std::vector<PRec> all = my_;
    for (int r = 1; r < real_count(); ++r) {
      const auto part = comm_.recv<PRec>(r, kCkptGather);
      all.insert(all.end(), part.begin(), part.end());
    }
    CheckpointState state;
    state.step = static_cast<std::uint64_t>(step);
    state.time_ps = step * shared_.config.protocol.dt_fs * 1e-3;
    state.box = shared_.box;
    state.species = shared_.species;
    state.types.assign(shared_.n_particles, 0);
    state.positions.assign(shared_.n_particles, Vec3{});
    state.velocities.assign(shared_.n_particles, Vec3{});
    for (const auto& p : all) {
      state.types[p.id] = p.type;
      state.positions[p.id] = p.pos;
      state.velocities[p.id] = p.vel;
    }
    mgr->write(state);
    for (int r = 1; r < real_count(); ++r) comm_.send_value(r, kCkptAck, step);
  }

  /// Publish this rank's accumulated phase timings as gauges so a run can
  /// inspect per-rank load balance (Table-1's "communication" row is the
  /// spread between these).
  void flush_rank_metrics() {
    auto& reg = obs::Registry::global();
    const std::string prefix = "parallel.rank" + std::to_string(rank()) + ".";
    reg.gauge(prefix + "halo_ms").set(halo_ms_);
    reg.gauge(prefix + "mdgrape_ms").set(mdgrape_ms_);
    reg.gauge(prefix + "wine_ms").set(wine_ms_);
    reg.gauge(prefix + "migrate_ms").set(migrate_ms_);
  }

  void gather_final() {
    flush_rank_metrics();
    // Gather over the real-process subgroup only (the wavenumber ranks have
    // already finished their rounds).
    std::vector<int> real_ranks(real_count());
    for (int r = 0; r < real_count(); ++r) real_ranks[r] = r;
    auto real_comm = comm_.subgroup(real_ranks);
    const auto all = real_comm.gather(my_, 0, kGatherFinal);
    if (rank() != 0) return;
    final_positions.assign(shared_.n_particles, Vec3{});
    final_velocities.assign(shared_.n_particles, Vec3{});
    for (const auto& p : all) {
      final_positions[p.id] = p.pos;
      final_velocities[p.id] = p.vel;
    }
  }

  const Shared& shared_;
  vmpi::Communicator& comm_;
  DomainGrid grid_;
  PmeSlabLayout pme_layout_{};  ///< kPme only: wavenumber routing map
  bool use_pme_ = false;
  std::optional<mdgrape2::Mdgrape2System> mdgrape_;  ///< emulator backend
  std::vector<mdgrape2::ForcePass> force_passes_;
  std::vector<mdgrape2::ForcePass> potential_passes_;
  std::optional<ParticleSystem> local_;  ///< emulator j-set, reused
  std::vector<mdgrape2::PassTarget> targets_;
  std::vector<double> pot_buf_;
  // Native backend (DESIGN.md §11): fused one-sided kernel plus reusable
  // SoA mirror and scratch, so the steady state stays allocation-free.
  std::unique_ptr<native::NativeRealKernel> native_kernel_;
  native::SoaParticles soa_;
  std::vector<Vec3> pos_buf_;
  std::vector<int> type_buf_;
  std::vector<Vec3> force_buf_;
  std::vector<PRec> my_;
  std::vector<std::vector<WnRec>> to_wine_ =
      std::vector<std::vector<WnRec>>(shared_.config.wn_processes);
  HealthMonitor health_{shared_.config.health};
  std::vector<std::int32_t> id_slot_;  ///< id -> index in my_ (-1 not owned)
  double local_potential_ = 0.0;
  double wn_energy_ = 0.0;  // rank 0 only

  // Per-rank accumulated phase timings (flushed at the end of the run).
  double halo_ms_ = 0.0;
  double mdgrape_ms_ = 0.0;
  double wine_ms_ = 0.0;
  double migrate_ms_ = 0.0;
};

}  // namespace

PmeParameters resolved_pme(const ParallelAppConfig& config) {
  PmeParameters pme = config.pme;
  if (pme.alpha <= 0.0) pme.alpha = config.ewald.alpha;
  if (pme.r_cut <= 0.0) pme.r_cut = config.ewald.r_cut;
  return pme;
}

const char* to_string(KspaceSolver solver) {
  return solver == KspaceSolver::kPme ? "pme" : "structure-factor";
}

KspaceSolver kspace_solver_from_string(const std::string& name) {
  if (name == "sf" || name == "structure-factor" || name == "ewald")
    return KspaceSolver::kStructureFactor;
  if (name == "pme") return KspaceSolver::kPme;
  throw std::invalid_argument(
      "kspace_solver_from_string: unknown solver '" + name +
      "' (expected sf, structure-factor, ewald or pme)");
}

MdmParallelApp::MdmParallelApp(ParallelAppConfig config) : config_(config) {
  if (config_.real_processes < 1)
    throw std::invalid_argument(
        "MdmParallelApp: real_processes must be >= 1 (got " +
        std::to_string(config_.real_processes) + ")");
  if (config_.wn_processes < 1)
    throw std::invalid_argument(
        "MdmParallelApp: wn_processes must be >= 1 (got " +
        std::to_string(config_.wn_processes) + ")");
  if (config_.domain_nx != 0 || config_.domain_ny != 0 ||
      config_.domain_nz != 0) {
    const std::string grid_str = std::to_string(config_.domain_nx) + "x" +
                                 std::to_string(config_.domain_ny) + "x" +
                                 std::to_string(config_.domain_nz);
    if (config_.domain_nx < 1 || config_.domain_ny < 1 ||
        config_.domain_nz < 1)
      throw std::invalid_argument(
          "MdmParallelApp: explicit domain grid must be >= 1 in every axis "
          "(got " + grid_str + ")");
    const int domains =
        config_.domain_nx * config_.domain_ny * config_.domain_nz;
    if (domains != config_.real_processes)
      throw std::invalid_argument(
          "MdmParallelApp: domain grid " + grid_str + " = " +
          std::to_string(domains) + " domains does not match "
          "real_processes = " + std::to_string(config_.real_processes));
  }
  if (config_.kspace_solver == KspaceSolver::kPme) {
    // Box-independent mesh checks fail here, at configuration time; the
    // box-dependent ones (r_cut <= L/2) rerun in run() via validated_pme.
    const PmeParameters pme = resolved_pme(config_);
    if (!is_power_of_two(static_cast<std::size_t>(pme.grid)))
      throw std::invalid_argument(
          "MdmParallelApp: PME grid must be a power of two (got " +
          std::to_string(pme.grid) + ")");
    if (pme.order < 3 || pme.order > 10)
      throw std::invalid_argument(
          "MdmParallelApp: PME order must be in [3, 10] (got " +
          std::to_string(pme.order) + ")");
    if (pme.grid < 2 * pme.order)
      throw std::invalid_argument(
          "MdmParallelApp: PME grid " + std::to_string(pme.grid) +
          " too small for order " + std::to_string(pme.order));
    PmeSlabLayout::create(pme.grid, pme.order, config_.wn_processes);
  }
}

ParallelRunResult MdmParallelApp::run(const ParticleSystem& initial) {
  Shared shared;
  shared.config = config_;
  shared.box = initial.box();
  shared.n_particles = initial.size();
  for (int t = 0; t < initial.species_count(); ++t) {
    shared.species.push_back(initial.species(t));
    shared.species_charge.push_back(initial.species(t).charge);
  }
  shared.initial.resize(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    shared.initial[i] = {static_cast<std::uint32_t>(i),
                         initial.type(i), initial.positions()[i],
                         initial.velocities()[i], Vec3{}};
  }
  const double beta = config_.ewald.alpha / shared.box;
  shared.self_energy = -units::kCoulomb * beta /
                       std::sqrt(std::numbers::pi) *
                       initial.total_charge_squared();
  const double q = initial.total_charge();
  shared.background_energy =
      -units::kCoulomb * std::numbers::pi /
      (2.0 * beta * beta * shared.box * shared.box * shared.box) * q * q;
  shared.total_steps =
      config_.protocol.nvt_steps + config_.protocol.nve_steps;
  // Fail fast on box-dependent PME misconfiguration (r_cut vs L/2) before
  // any rank thread launches.
  if (config_.kspace_solver == KspaceSolver::kPme)
    validated_pme(resolved_pme(config_), shared.box);

  // Fault-tolerance wiring: explicit injector wins; otherwise the
  // MDM_FAULT_SPEC/MDM_FAULT_SEED environment knobs apply. Dropped
  // messages are retransmitted with bounded backoff so a transient fabric
  // fault costs latency, not the run.
  std::unique_ptr<vmpi::FaultInjector> env_injector;
  shared.injector = config_.fault_injector;
  if (!shared.injector) {
    env_injector = vmpi::FaultInjector::from_env();
    shared.injector = env_injector.get();
  }

  // Checkpoint/restart wiring (DESIGN.md §8): rank 0 writes a rotating
  // generation every checkpoint_interval steps; on a rank failure the app
  // restores the latest CRC-valid generation, rebuilds the domain
  // decomposition over the restored configuration and resumes.
  std::unique_ptr<CheckpointManager> ckpt_mgr;
  if (!config_.checkpoint_dir.empty())
    ckpt_mgr = std::make_unique<CheckpointManager>(config_.checkpoint_dir,
                                                   config_.checkpoint_keep);
  shared.checkpoint = ckpt_mgr.get();
  shared.checkpoint_interval = config_.checkpoint_interval;

  const auto apply_state = [&shared](const CheckpointState& state) {
    if (state.size() != shared.n_particles)
      throw CheckpointError(
          "checkpoint particle count mismatch: file holds " +
          std::to_string(state.size()) + ", run holds " +
          std::to_string(shared.n_particles));
    if (state.box != shared.box)
      throw CheckpointError("checkpoint box mismatch");
    shared.start_step = static_cast<int>(state.step);
    for (std::size_t i = 0; i < shared.n_particles; ++i) {
      auto& p = shared.initial[i];
      if (!state.types.empty()) p.type = state.types[i];
      p.pos = state.positions[i];
      p.vel = state.velocities[i];
      p.force = Vec3{};
    }
  };
  if (!config_.restore_path.empty())
    apply_state(read_checkpoint_file(config_.restore_path));

  ParallelRunResult result;
  vmpi::World world(config_.real_processes + config_.wn_processes);
  if (shared.injector) world.set_fault_injector(shared.injector);
  world.set_send_retry(
      config_.send_max_retries,
      std::chrono::microseconds(
          static_cast<long>(config_.send_backoff_us)));
  if (config_.recv_timeout_ms > 0)
    world.set_recv_timeout(std::chrono::milliseconds(
        static_cast<long>(config_.recv_timeout_ms)));
  std::mutex result_mutex;

  // One trace per run: adopt the caller's ambient context (a serve job's
  // trace) or mint a fresh one; every epoch — the initial attempt and each
  // auto-recovery — gets its own span under that trace, and vmpi propagates
  // the context into every rank thread.
  const obs::TraceContext run_ctx = obs::TraceContext::current_or_mint();
  obs::TraceContextScope run_scope(run_ctx);

  for (;;) {
    obs::TraceContextScope epoch_scope(
        obs::TraceContext{run_ctx.trace_id, obs::TraceContext::next_span_id()});
    obs::TraceSpan epoch_span("parallel.epoch");
    try {
      world.run([&](vmpi::Communicator& comm) {
        if (comm.rank() < config_.real_processes) {
          RealProcess proc(shared, comm);
          proc.main();
          if (comm.rank() == 0) {
            std::lock_guard lock(result_mutex);
            result.samples = std::move(proc.samples);
            result.positions = std::move(proc.final_positions);
            result.velocities = std::move(proc.final_velocities);
          }
        } else {
          wavenumber_main(shared, comm);
        }
      });
      return result;
    } catch (const ParallelCancelled&) {
      // A cancel is a request, not a failure: no recovery, no dump.
      throw;
    } catch (const SimulationHealthError& e) {
      dump_flight(config_, "health");
      // Deterministic numerical garbage: resuming would reproduce it, so
      // optionally roll the result back to the last good checkpoint and
      // halt cleanly instead of rethrowing.
      if (config_.rollback_on_health_error && shared.checkpoint) {
        if (auto state = shared.checkpoint->restore_latest()) {
          MDM_LOG_WARN(
              "parallel: health violation (%s); rolling back to checkpoint "
              "at step %llu and halting",
              e.what(), static_cast<unsigned long long>(state->step));
          result.halted_on_health = true;
          result.health_message = e.what();
          result.restored_from_step = state->step;
          result.samples.clear();
          result.positions = std::move(state->positions);
          result.velocities = std::move(state->velocities);
          return result;
        }
      }
      throw;
    } catch (const std::exception& e) {
      dump_flight(config_, "failure");
      if (!config_.auto_recover || !shared.checkpoint ||
          result.recoveries >= config_.max_recoveries)
        throw;
      const auto state = shared.checkpoint->restore_latest();
      if (!state) throw;  // nothing durable to resume from
      apply_state(*state);
      ++result.recoveries;
      result.restored_from_step = state->step;
      static obs::Counter& recoveries =
          obs::Registry::global().counter("parallel.recoveries");
      recoveries.add(1);
      MDM_LOG_WARN(
          "parallel: run failed (%s); recovered from checkpoint at step "
          "%llu, resuming (%d/%d)",
          e.what(), static_cast<unsigned long long>(state->step),
          result.recoveries, config_.max_recoveries);
    }
  }
}

}  // namespace mdm::host
