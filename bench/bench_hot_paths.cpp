/// \file bench_hot_paths.cpp
/// Serial vs thread-pool cost of the hot per-step kernels — Ewald real
/// space, Tosi-Fumi short range, the MDGRAPE-2 force pass and a whole
/// MdmForceField step (both emulators) — plus a steady-state
/// heap-allocation count per step. The parallel engines are
/// bit-reproducible at any pool size, so only time and allocations vary.
///
/// A global counting operator new measures the steady state: after one
/// warm-up evaluation (which grows the scratch arenas) every kernel should
/// make zero heap allocations per step.
///
///   ./bench_hot_paths [--cells 6] [--reps 5] [--pools 1,2,4]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/lattice.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "host/mdm_force_field.hpp"
#include "mdgrape2/gtables.hpp"
#include "mdgrape2/system.hpp"
#include "obs/bench_report.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator: every operator new bumps one relaxed atomic so
// a measured region can report how many heap allocations it made (worker
// -thread allocations included).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace mdm;

struct Sample {
  double s_per_eval = 0.0;
  double allocs_per_eval = 0.0;
};

/// One warm-up call grows the scratch arenas and touches lazy statics; the
/// timed/counted region after it is the steady state.
template <typename Step>
Sample measure(int reps, Step&& step) {
  step();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  Timer timer;
  for (int rep = 0; rep < reps; ++rep) step();
  Sample out;
  out.s_per_eval = timer.seconds() / reps;
  out.allocs_per_eval =
      double(g_allocations.load(std::memory_order_relaxed) - before) / reps;
  return out;
}

ParticleSystem melt(int n_cells, std::uint64_t seed) {
  auto sys = make_nacl_crystal(n_cells);
  Random rng(seed);
  for (auto& r : sys.positions())
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  sys.wrap_positions();
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  apply_observability_cli(cli);
  const int cells = static_cast<int>(cli.get_int("cells", 6));
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const auto pool_sizes = cli.get_int_list("pools", {1, 2, 4});

  const auto sys = melt(cells, 1234);
  const double box = sys.box();
  const auto params = software_parameters(double(sys.size()), box);
  std::vector<Vec3> forces(sys.size());

  // MDGRAPE-2 needs box >= 3 r_cut for the cell-index method; derive its
  // cutoff from a fixed alpha as the host force field does.
  const double mg_alpha = 8.0;
  const double mg_r_cut = 2.636 * box / mg_alpha;
  const double mg_beta = mg_alpha / box;
  const double species_charges[2] = {+1.0, -1.0};
  const auto mg_pass =
      mdgrape2::make_coulomb_real_pass(mg_beta, mg_r_cut, species_charges);

  struct Row {
    std::string kernel;
    std::string config;
    Sample sample;
  };
  std::vector<Row> rows;
  obs::BenchReport report("hot_paths");

  // Each config owns fresh engine instances so the serial baseline never
  // shares scratch with a pooled run.
  auto run_config = [&](const std::string& config, ThreadPool* pool) {
    {
      EwaldCoulomb ewald(params, box);
      if (pool) ewald.set_thread_pool(pool);
      rows.push_back({"ewald_real", config, measure(reps, [&] {
                        std::fill(forces.begin(), forces.end(), Vec3{});
                        ewald.add_real_space(sys, forces);
                      })});
    }
    {
      TosiFumiShortRange tf(TosiFumiParameters::nacl(), params.r_cut);
      if (pool) tf.set_thread_pool(pool);
      rows.push_back({"tosi_fumi", config, measure(reps, [&] {
                        std::fill(forces.begin(), forces.end(), Vec3{});
                        tf.add_forces(sys, forces);
                      })});
    }
    {
      mdgrape2::Mdgrape2System mg({.clusters = 2, .boards_per_cluster = 2});
      if (pool) mg.set_thread_pool(pool);
      mg.load_particles(sys, mg_r_cut);
      rows.push_back({"mdgrape2_force", config, measure(reps, [&] {
                        std::fill(forces.begin(), forces.end(), Vec3{});
                        mg.run_force_pass(mg_pass, forces);
                      })});
    }
    {
      // The paper's full machine (32 MDGRAPE-2 boards, 2,240 WINE-2 chips):
      // particle upload, every real-space pass and the DFT/IDFT.
      host::MdmForceFieldConfig mc;
      mc.ewald = host::mdm_parameters(double(sys.size()), box);
      host::MdmForceField mdm(mc, box);
      mdm.set_thread_pool(pool);
      rows.push_back({"mdm_force_field", config, measure(reps, [&] {
                        std::fill(forces.begin(), forces.end(), Vec3{});
                        mdm.add_forces(sys, forces);
                      })});
    }
  };

  run_config("serial", nullptr);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const auto threads : pool_sizes) {
    if (threads < 1) continue;
    pools.push_back(std::make_unique<ThreadPool>(unsigned(threads)));
    run_config("pool" + std::to_string(threads), pools.back().get());
  }

  auto serial_time = [&](const std::string& kernel) {
    for (const auto& row : rows)
      if (row.kernel == kernel && row.config == "serial")
        return row.sample.s_per_eval;
    return 0.0;
  };

  AsciiTable table("Hot-path kernels: serial vs thread pool (N = " +
                   std::to_string(sys.size()) + ")");
  table.set_header({"kernel", "config", "s/eval", "speedup", "allocs/step"});
  for (const auto& row : rows) {
    const double base = serial_time(row.kernel);
    const double speedup =
        row.sample.s_per_eval > 0.0 ? base / row.sample.s_per_eval : 0.0;
    table.add_row({row.kernel, row.config, format_fixed(row.sample.s_per_eval, 5),
                   format_fixed(speedup, 2),
                   format_fixed(row.sample.allocs_per_eval, 1)});
    const std::string prefix = row.kernel + "." + row.config;
    report.add(prefix + ".s_per_eval", row.sample.s_per_eval, "s");
    report.add(prefix + ".speedup_vs_serial", speedup, "x");
    report.add(prefix + ".steady_allocs_per_step", row.sample.allocs_per_eval,
               "count");
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "steady state: every kernel reuses member scratch, so allocs/step "
      "should be 0 in every config; wall-clock speedups need real cores "
      "(this host: %u).\n",
      std::thread::hardware_concurrency());

  report.write();

  // Fail loudly if a kernel regresses to per-step allocation.
  bool clean = true;
  for (const auto& row : rows)
    if (row.sample.allocs_per_eval > 0.0) {
      std::printf("REGRESSION: %s/%s allocates %.1f times per step\n",
                  row.kernel.c_str(), row.config.c_str(),
                  row.sample.allocs_per_eval);
      clean = false;
    }
  return clean ? 0 : 1;
}
