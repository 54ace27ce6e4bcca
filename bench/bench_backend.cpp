/// \file bench_backend.cpp
/// Native SIMD backend vs the hardware emulators (DESIGN.md §11) on the
/// standard NaCl melt: single-thread wall clock of the real-space and
/// wavenumber kernels, full-force-field parity against the double-precision
/// reference and the emulators, steady-state allocation counts, and the
/// derived per-pair / per-wave costs that seed perf::BackendCostModel.
///
/// Exits non-zero if the native real-space kernel is not at least 3x faster
/// than the MDGRAPE-2 emulation single-thread, or if a native kernel
/// allocates in the steady state — in cell mode, in the one-sided rank
/// sweep, in the N^2 pair-list mode across list rebuilds, or in k-space.
/// This is the backend's performance contract.
///
///   ./bench_backend [--cells 4] [--reps 5]

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <new>
#include <string>
#include <vector>

#include "core/lattice.hpp"
#include "core/tosi_fumi.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "ewald/flops.hpp"
#include "host/mdm_force_field.hpp"
#include "mdgrape2/gtables.hpp"
#include "mdgrape2/system.hpp"
#include "native/kspace.hpp"
#include "native/native_force_field.hpp"
#include "native/real_kernel.hpp"
#include "native/soa.hpp"
#include "obs/bench_report.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "wine2/system.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator (same idiom as bench_hot_paths): the steady
// -state region of each kernel must not touch the heap.
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

template <typename Step>
Sample measure(int reps, Step&& step) {
  // Two warm-up calls: the first grows scratch arenas and builds the cell
  // list, the second takes the lazy-rebuild skip path once (its skip
  // counter is a lazily created static).
  step();
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

double rms_rel_error(std::span<const Vec3> test, std::span<const Vec3> ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += norm2(test[i] - ref[i]);
    den += norm2(ref[i]);
  }
  return std::sqrt(num / den);
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  apply_observability_cli(cli);
  const int cells = static_cast<int>(cli.get_int("cells", 4));
  const int reps = static_cast<int>(cli.get_int("reps", 5));

  const auto sys = melt(cells, 1234);
  const double box = sys.box();
  const double n = double(sys.size());
  // The machine preset: its higher alpha keeps r_cut <= L/3 so both the
  // MDGRAPE cell scan and the native CellList run in cell (not N^2) mode —
  // the apples-to-apples cell-based comparison.
  const auto params = host::mdm_parameters(n, box);
  const double beta = params.alpha / box;
  std::vector<double> charges(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) charges[i] = sys.charge(i);
  const double species_charges[2] = {+1.0, -1.0};
  std::vector<Vec3> forces(sys.size());

  obs::BenchReport report("backend");
  AsciiTable table("Native backend vs emulators (N = " +
                   std::to_string(sys.size()) + ", single thread)");
  table.set_header({"kernel", "emulator s", "native s", "speedup",
                    "native allocs"});
  bool contract_ok = true;
  const auto kernel_config = [&](const EwaldParameters& p) {
    native::NativeRealKernel::Config rc;
    rc.box = box;
    rc.beta = p.alpha / box;
    rc.r_cut = p.r_cut;
    rc.include_tosi_fumi = true;
    rc.tosi_fumi = TosiFumiParameters::nacl();
    return rc;
  };

  // ---- real space: MDGRAPE-2 emulation vs the fused native sweep ---------
  double real_speedup = 0.0;
  std::uint64_t native_pairs = 0;
  {
    mdgrape2::Mdgrape2System mg({.clusters = 2, .boards_per_cluster = 1});
    const auto coulomb_pass =
        mdgrape2::make_coulomb_real_pass(beta, params.r_cut, species_charges);
    auto tf_passes = mdgrape2::make_tosi_fumi_passes(
        TosiFumiParameters::nacl(), params.r_cut);
    mg.load_particles(sys, params.r_cut);
    const Sample emu = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      mg.load_particles(sys, params.r_cut);
      mg.run_force_pass(coulomb_pass, forces);
      for (const auto& pass : tf_passes) mg.run_force_pass(pass, forces);
    });

    native::SoaParticles soa;
    native::NativeRealKernel kernel(kernel_config(params));
    const Sample nat = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      soa.sync(sys);
      kernel.sweep(soa, forces);
    });
    native_pairs = kernel.last_pairs();

    real_speedup = emu.s_per_eval / nat.s_per_eval;
    table.add_row({"real_space", format_fixed(emu.s_per_eval, 5),
                   format_fixed(nat.s_per_eval, 5),
                   format_fixed(real_speedup, 2),
                   format_fixed(nat.allocs_per_eval, 1)});
    report.add("real.emulator_s_per_eval", emu.s_per_eval, "s");
    report.add("real.native_s_per_eval", nat.s_per_eval, "s");
    report.add("real.native_speedup", real_speedup, "x");
    report.add("real.native_pairs", double(native_pairs), "pairs");
    report.add("real.native_steady_allocs", nat.allocs_per_eval, "count");
    if (nat.allocs_per_eval > 0.0) contract_ok = false;

    // Per-pair costs for perf::BackendCostModel: the emulator pays per
    // candidate of the 27-cell scan (N n_int_g), the native kernel per
    // Newton pair actually evaluated.
    const auto flops = ewald_step_flops(n, box, params);
    report.add("real.emulator_ns_per_pair",
               emu.s_per_eval * 1e9 / (n * flops.n_int_g), "ns");
    report.add("real.native_ns_per_pair",
               nat.s_per_eval * 1e9 / double(native_pairs), "ns");
  }

  // ---- real space, one-sided: the parallel ranks' sweep ----------------
  // Forces on the first n/2 ions from all n, as a rank evaluates its owned
  // particles against owned + halo; costs are per in-cutoff pair.
  {
    native::SoaParticles soa;
    native::NativeRealKernel kernel(kernel_config(params));
    const Sample nat = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      soa.sync(sys);
      kernel.one_sided(soa, sys.size() / 2, forces);
    });
    table.add_row({"real_one_sided", "-", format_fixed(nat.s_per_eval, 5),
                   "-", format_fixed(nat.allocs_per_eval, 1)});
    report.add("real_one_sided.native_s_per_eval", nat.s_per_eval, "s");
    report.add("real_one_sided.native_pairs", double(kernel.last_pairs()),
               "pairs");
    report.add("real_one_sided.native_ns_per_pair",
               nat.s_per_eval * 1e9 / double(kernel.last_pairs()), "ns");
    report.add("real_one_sided.native_steady_allocs", nat.allocs_per_eval,
               "count");
    if (nat.allocs_per_eval > 0.0) contract_ok = false;
  }

  // ---- real space, N^2 mode: the skin-padded pair list ------------------
  // software_parameters leaves the grid under 3 cells per side, so sweep()
  // walks its pair list. The reps alternate between the melt and a copy
  // with one ion moved by more than half the skin, so every sweep —
  // the timed ones included — rebuilds the list.
  {
    const auto sw = software_parameters(n, box);
    auto moved = sys;
    moved.positions()[0].x += 0.6 * native::NativeRealKernel::kListSkin;
    moved.wrap_positions();
    native::SoaParticles soa;
    native::NativeRealKernel kernel(kernel_config(sw));
    int sweeps = 0;
    const Sample nat = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      soa.sync(sweeps++ % 2 ? moved : sys);
      kernel.sweep(soa, forces);
    });
    table.add_row({"real_space_n2", "-", format_fixed(nat.s_per_eval, 5), "-",
                   format_fixed(nat.allocs_per_eval, 1)});
    report.add("real_n2.native_s_per_eval", nat.s_per_eval, "s");
    report.add("real_n2.native_pairs", double(kernel.last_pairs()), "pairs");
    report.add("real_n2.candidates", double(kernel.last_candidates()),
               "pairs");
    report.add("real_n2.list_builds", double(kernel.list_builds()), "count");
    report.add("real_n2.native_ns_per_pair",
               nat.s_per_eval * 1e9 / double(kernel.last_pairs()), "ns");
    report.add("real_n2.native_steady_allocs", nat.allocs_per_eval, "count");
    if (nat.allocs_per_eval > 0.0) contract_ok = false;
    if (!kernel.cells().use_n2_fallback(sw.r_cut) ||
        kernel.list_builds() != static_cast<std::uint64_t>(sweeps)) {
      std::printf("bench_backend: the N^2 case did not rebuild its pair "
                  "list on every sweep\n");
      contract_ok = false;
    }
  }

  // ---- wavenumber: WINE-2 emulation vs the blocked recurrence kernels ----
  double wave_speedup = 0.0;
  {
    const KVectorTable kvectors(box, params.alpha, params.lk_cut);
    wine2::Wine2System wine(
        {.clusters = 1, .boards_per_cluster = 1, .chips_per_board = 2});
    wine.load_waves(kvectors);
    const Sample emu = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      wine.set_particles(sys.positions(), charges, box);
      const auto sf = wine.run_dft();
      wine.run_idft(sf, forces);
    });

    native::SoaParticles soa;
    native::NativeKspace kspace(kvectors);
    StructureFactors sf;
    const Sample nat = measure(reps, [&] {
      std::fill(forces.begin(), forces.end(), Vec3{});
      soa.sync(sys);
      kspace.dft(soa, sf);
      kspace.idft(soa, sf, forces);
    });

    wave_speedup = emu.s_per_eval / nat.s_per_eval;
    table.add_row({"wavenumber", format_fixed(emu.s_per_eval, 5),
                   format_fixed(nat.s_per_eval, 5),
                   format_fixed(wave_speedup, 2),
                   format_fixed(nat.allocs_per_eval, 1)});
    report.add("wave.emulator_s_per_eval", emu.s_per_eval, "s");
    report.add("wave.native_s_per_eval", nat.s_per_eval, "s");
    report.add("wave.native_speedup", wave_speedup, "x");
    report.add("wave.k_vectors", double(kspace.k_count()), "count");
    report.add("wave.native_steady_allocs", nat.allocs_per_eval, "count");
    if (nat.allocs_per_eval > 0.0) contract_ok = false;
    report.add("wave.emulator_ns_per_wave",
               emu.s_per_eval * 1e9 / (n * double(kspace.k_count())), "ns");
    report.add("wave.native_ns_per_wave",
               nat.s_per_eval * 1e9 / (n * double(kspace.k_count())), "ns");
  }

  // ---- full force field + parity (the accuracy contract) -----------------
  {
    host::MdmForceFieldConfig mdm_config;
    mdm_config.ewald = params;
    host::MdmForceField emulator(mdm_config, box);
    std::vector<Vec3> emu_forces(sys.size());
    const Sample emu = measure(reps, [&] {
      std::fill(emu_forces.begin(), emu_forces.end(), Vec3{});
      evaluate_forces(emulator, sys, emu_forces);
    });

    native::NativeForceFieldConfig nc;
    nc.ewald = params;
    native::NativeForceField nat_field(nc, box);
    std::vector<Vec3> nat_forces(sys.size());
    const Sample nat = measure(reps, [&] {
      std::fill(nat_forces.begin(), nat_forces.end(), Vec3{});
      evaluate_forces(nat_field, sys, nat_forces);
    });

    // Double-precision reference for the parity metrics.
    CompositeForceField reference;
    reference.add(std::make_unique<EwaldCoulomb>(params, box));
    reference.add(std::make_unique<TosiFumiShortRange>(
        TosiFumiParameters::nacl(), params.r_cut));
    std::vector<Vec3> ref_forces(sys.size());
    evaluate_forces(reference, sys, ref_forces);

    const double field_speedup = emu.s_per_eval / nat.s_per_eval;
    table.add_row({"force_field", format_fixed(emu.s_per_eval, 5),
                   format_fixed(nat.s_per_eval, 5),
                   format_fixed(field_speedup, 2),
                   format_fixed(nat.allocs_per_eval, 1)});
    report.add("field.emulator_s_per_eval", emu.s_per_eval, "s");
    report.add("field.native_s_per_eval", nat.s_per_eval, "s");
    report.add("field.native_speedup", field_speedup, "x");
    report.add("field.native_vs_reference_rms",
               rms_rel_error(nat_forces, ref_forces), "rel");
    report.add("field.native_vs_emulator_rms",
               rms_rel_error(nat_forces, emu_forces), "rel");
    report.add("field.emulator_vs_reference_rms",
               rms_rel_error(emu_forces, ref_forces), "rel");
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("native pair evaluation: %s variant\n",
              native::pair_eval_variants().back().isa);
  report.write();

  if (real_speedup < 3.0) {
    std::printf("REGRESSION: native real-space speedup %.2fx < 3x contract\n",
                real_speedup);
    contract_ok = false;
  }
  if (!contract_ok)
    std::printf("bench_backend: performance contract FAILED\n");
  else
    std::printf("bench_backend: native %.1fx (real) / %.1fx (wavenumber) "
                "single-thread, zero steady-state allocations\n",
                real_speedup, wave_speedup);
  return contract_ok ? 0 : 1;
}
