#pragma once

/// \file parallel_app.hpp
/// The paper's MD program (sec. 4): an MPI application with 16 real-space
/// processes and 8 wavenumber processes.
///
///  * Each real-space process owns one spatial domain. Per step it ships
///    its positions to the wavenumber processes, performs the halo exchange
///    ("each process should know positions of neighboring particles before
///    calling MR1calcvdw_block2, that is what you have to manage with MPI
///    routines") and drives its MDGRAPE-2 boards for the real-space
///    Coulomb + Tosi-Fumi passes while the wavenumber side computes, then
///    adds the returned forces, integrates and migrates the particles that
///    left its domain.
///  * Each wavenumber process holds ~N/8 particles and calls the
///    MPI-parallel WINE-2 library (Wine2MpiLibrary), which allreduces the
///    structure factors internally.
///
/// The whole application runs on the virtual MPI world (threads); with the
/// hardware simulators underneath this is the full MDM software stack.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/health.hpp"
#include "core/particle_system.hpp"
#include "core/simulation.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/pme.hpp"
#include "host/domain.hpp"
#include "mdgrape2/system.hpp"
#include "wine2/formats.hpp"

namespace mdm::vmpi {
class FaultInjector;
}

namespace mdm::host {

/// Raised out of MdmParallelApp::run when the caller's cancel flag was
/// observed at a step boundary. Never triggers auto-recovery: a cancel is a
/// request, not a failure.
class ParallelCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// K-space solver run by the wavenumber processes (DESIGN.md §12).
/// kStructureFactor is the paper's WINE-2 / native-DFT path; kPme runs the
/// slab-decomposed particle-mesh engine (host/distributed_pme) on the same
/// rank topology — it is backend-independent (the emulator and native
/// backends differ only in the real-space part).
enum class KspaceSolver {
  kStructureFactor,
  kPme,
};

const char* to_string(KspaceSolver solver);
/// Parse "sf" / "structure-factor" / "ewald" or "pme" (case-sensitive);
/// throws std::invalid_argument naming the bad value. "auto" is NOT handled
/// here — the CLIs resolve it through perf::recommended_app_solver first.
KspaceSolver kspace_solver_from_string(const std::string& name);

struct ParallelAppConfig {
  int real_processes = 16;  ///< paper: 16 domains
  int wn_processes = 8;     ///< paper: 8 wavenumber processes

  /// Explicit real-space domain grid (nx * ny * nz must equal
  /// real_processes); all zero selects the near-cubic auto factorization.
  /// Validated at construction with named configuration errors.
  int domain_nx = 0;
  int domain_ny = 0;
  int domain_nz = 0;

  /// Which reciprocal-space sum the wavenumber group computes.
  KspaceSolver kspace_solver = KspaceSolver::kStructureFactor;
  /// PME mesh parameters (kspace_solver == kPme). alpha / r_cut <= 0
  /// inherit the Ewald values, so a caller usually only sets grid/order.
  /// The mesh must slab-decompose over wn_processes (grid % W == 0).
  PmeParameters pme{};

  SimulationConfig protocol{};
  EwaldParameters ewald{};
  bool include_tosi_fumi = true;
  TosiFumiParameters tosi_fumi = TosiFumiParameters::nacl();
  int mdgrape_boards_per_process = 2;  ///< one cluster per process
  int wine_boards_per_process = 7;     ///< one cluster per process
  wine2::WineFormats wine_formats = wine2::WineFormats::paper();

  /// Force-evaluation backend (DESIGN.md §11). kEmulator drives the
  /// MDGRAPE-2/WINE-2 pipelines; kNative runs the vectorized host kernels
  /// on the same rank topology (one-sided real sweeps over owned + halo,
  /// structure-factor allreduce over the wavenumber group).
  Backend backend = Backend::kEmulator;

  // Fault-tolerance knobs (DESIGN.md "Failure model of the virtual
  // fabric"). When fault_injector is null, MDM_FAULT_SPEC/MDM_FAULT_SEED
  // are consulted instead.
  vmpi::FaultInjector* fault_injector = nullptr;  ///< not owned
  int send_max_retries = 3;      ///< retransmissions for dropped messages
  double send_backoff_us = 50;   ///< initial retransmission backoff
  double recv_timeout_ms = 0;    ///< recv deadline; 0 = wait forever

  // Checkpoint/restart + numerical health (DESIGN.md §8). Rank 0 gathers
  // the full configuration every checkpoint_interval steps and writes a
  // rotating crash-consistent checkpoint; with auto_recover set, a rank
  // failure mid-run restores the latest valid generation, rebuilds the
  // domain decomposition and resumes bit-identically.
  std::string checkpoint_dir;  ///< empty = checkpointing disabled
  int checkpoint_interval = 0; ///< steps between checkpoints (0 = off)
  int checkpoint_keep = 3;     ///< generations kept on disk
  std::string restore_path;    ///< start from this checkpoint file
  bool auto_recover = false;   ///< restore + resume after a rank failure
  int max_recoveries = 1;      ///< in-run recovery budget
  HealthConfig health{};       ///< per-step numerical-health watchdog
  /// On a watchdog violation, restore the last checkpoint into the result
  /// and halt cleanly instead of rethrowing (halted_on_health is set).
  bool rollback_on_health_error = false;

  /// Cooperative cancel flag (not owned; may be null), checked by every
  /// real rank at each step boundary. When observed, the run unwinds with
  /// ParallelCancelled — the serve runner maps it to kCancelled.
  const std::atomic<bool>* cancel = nullptr;
};

struct ParallelRunResult {
  std::vector<Sample> samples;
  /// Final positions/velocities indexed by original particle id.
  std::vector<Vec3> positions;
  std::vector<Vec3> velocities;

  // Checkpoint/restart bookkeeping (DESIGN.md §8).
  int recoveries = 0;  ///< successful in-run restores after rank failures
  std::uint64_t restored_from_step = 0;  ///< last restore point (0 = none)
  bool halted_on_health = false;  ///< watchdog rolled the run back + halted
  std::string health_message;     ///< watchdog error text when halted
};

class MdmParallelApp {
 public:
  explicit MdmParallelApp(ParallelAppConfig config);

  /// Run the NVT+NVE protocol on a copy of `initial`. Blocking; spawns
  /// real_processes + wn_processes ranks on the virtual MPI world.
  ParallelRunResult run(const ParticleSystem& initial);

  const ParallelAppConfig& config() const { return config_; }

 private:
  ParallelAppConfig config_;
};

/// PME parameters with the alpha / r_cut <= 0 placeholders replaced by the
/// config's Ewald values. Shared by the app, the serve layer and the CLIs
/// so every entry point resolves identically.
PmeParameters resolved_pme(const ParallelAppConfig& config);

}  // namespace mdm::host
