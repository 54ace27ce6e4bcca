/// \file bench_ablation_cellindex.cpp
/// Ablation of the MDGRAPE-2 cell-index overheads (secs. 2.2 and 6.1).
/// The hardware evaluates N_int_g = 27 r_cut^3 rho pairs per particle -
/// "about 13 times" the N_int a conventional computer needs - for two
/// separable reasons:
///
///   (a) no cutoff test: the 27-cell scan covers 27 r^3 vs the sphere's
///       4pi/3 r^3 -> factor 27 / (4pi/3) ~ 6.45;
///   (b) no Newton's third law -> factor 2.
///
/// Sec. 6.1: "We already have a project to decrease this difference with
/// small hardware modification." This bench measures (a) directly from the
/// simulator's useful-pair counters, sweeps the cell-margin knob, and
/// models what each hypothetical modification would buy the future machine.
/// A last table sets the native backend's skin-padded pair list (N^2 mode,
/// N = 4096) and its filtered cell-mode sweep beside the 27-cell scan, all
/// against the conventional optimum N N_int of eq. 5.
///
///   ./bench_ablation_cellindex [--cells 4]

#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>

#include "core/lattice.hpp"
#include "ewald/flops.hpp"
#include "host/mdm_force_field.hpp"
#include "mdgrape2/system.hpp"
#include "native/real_kernel.hpp"
#include "native/soa.hpp"
#include "obs/bench_report.hpp"
#include "perf/table4.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace mdm;
  const CommandLine cli(argc, argv);
  const int cells = static_cast<int>(cli.get_int("cells", 4));

  const auto melt = [](int cells_per_side) {
    auto sys = make_nacl_crystal(cells_per_side);
    Random rng(6);
    for (auto& r : sys.positions())
      r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                rng.uniform(-0.3, 0.3)};
    sys.wrap_positions();
    return sys;
  };
  const auto system = melt(cells);
  // A shorter-than-mandatory cutoff (r_cut = L/5) leaves room for the
  // cell-margin sweep (cell side up to 1.5 r_cut still fits >= 3 cells).
  const EwaldAccuracy accuracy;
  const double alpha = 5.0 * accuracy.s1;
  const auto params = clamp_to_box(
      parameters_from_alpha(alpha, system.box(), accuracy), system.box());
  const double charges[2] = {+1.0, -1.0};
  const double beta = params.alpha / system.box();
  const auto pass =
      mdgrape2::make_coulomb_real_pass(beta, params.r_cut, charges);

  std::printf("Cell-index overhead ablation (N = %zu, r_cut = %.2f A)\n\n",
              system.size(), params.r_cut);

  obs::BenchReport report("ablation_cellindex");

  // --- measured: evaluated vs useful pairs vs cell margin ---------------
  AsciiTable sweep("Measured pair counts vs cell-size margin "
                   "(cell side = margin * r_cut)");
  sweep.set_header({"margin", "evaluated/particle", "useful/particle",
                    "waste factor", "27(m r)^3 rho model"});
  const double grape_n_int =
      n_int(double(system.size()), system.box(), params.r_cut);
  double grape_per_i = 0.0, grape_model = 0.0;  // margin 1.0
  for (double margin : {1.0, 1.1, 1.25, 1.5}) {
    mdgrape2::Mdgrape2System machine(
        {.clusters = 1, .boards_per_cluster = 2, .cell_margin = margin});
    // Margins > 1 shrink the grid; skip configurations below 3 cells/side.
    try {
      machine.load_particles(system, params.r_cut);
    } catch (const std::invalid_argument&) {
      sweep.add_row({format_fixed(margin, 2), "-", "-", "-",
                     "grid < 3 cells"});
      continue;
    }
    std::vector<Vec3> forces(system.size(), Vec3{});
    const auto stats = machine.run_force_pass(pass, forces);
    const double per_i =
        double(stats.pair_operations) / double(system.size());
    const double useful_i =
        double(stats.useful_pairs) / double(system.size());
    const double cell_side = system.box() / machine.cells_per_side();
    const double model = 27.0 * cell_side * cell_side * cell_side *
                         system.number_density();
    sweep.add_row({format_fixed(margin, 2), format_fixed(per_i, 1),
                   format_fixed(useful_i, 1),
                   format_fixed(per_i / useful_i, 2),
                   format_fixed(model, 1)});
    const std::string prefix = "m" + format_fixed(margin, 2) + ".";
    report.add(prefix + "evaluated_per_particle", per_i, "pairs");
    report.add(prefix + "useful_per_particle", useful_i, "pairs");
    report.add(prefix + "waste_factor", per_i / useful_i, "x");
    if (margin == 1.0) {
      grape_per_i = per_i;
      grape_model = model;
    }
  }
  std::printf("%s\n", sweep.str().c_str());

  const double geometric = 27.0 / (4.0 * std::numbers::pi / 3.0);
  report.add("geometric_waste_factor", geometric, "x");
  std::printf("geometric waste factor 27/(4pi/3) = %.2f; adding the missing "
              "Newton's-third-law factor 2 gives the paper's N_int_g/N_int "
              "= %.1f (\"about 13 times larger\").\n\n",
              geometric, 2.0 * geometric);

  // --- measured: the native pair list against the same optimum ----------
  // software_parameters at N = 4096 leaves the native kernel's grid under
  // 3 cells per side, so its sweep evaluates the skin-padded Newton pair
  // list: each pair within r_cut + skin once. Against N N_int that is about
  // ((r_cut + skin) / r_cut)^3; the 27-cell scan pays N_int_g / N_int.
  {
    const auto big = melt(8);
    const double n = double(big.size());
    const auto sw = software_parameters(n, big.box());
    native::NativeRealKernel::Config rc;
    rc.box = big.box();
    rc.beta = sw.alpha / big.box();
    rc.r_cut = sw.r_cut;
    native::NativeRealKernel kernel(rc);
    native::SoaParticles soa;
    soa.sync(big);
    std::vector<Vec3> forces(big.size(), Vec3{});
    kernel.sweep(soa, forces);
    const double native_n_int = n_int(n, big.box(), sw.r_cut);
    const double native_per_i = double(kernel.last_candidates()) / n;
    const double skin_model =
        std::pow(1.0 + native::NativeRealKernel::kListSkin / sw.r_cut, 3);

    // The native cell-mode sweep on the same melt at r_cut = L/5 (5 cells
    // per side): its filter hands the force expression only the pairs
    // inside r_cut, each once, so the model is the optimum itself.
    native::NativeRealKernel::Config cc = rc;
    cc.r_cut = big.box() / 5.0;
    native::NativeRealKernel cell_kernel(cc);
    cell_kernel.sweep(soa, forces);
    const double cell_n_int = n_int(n, big.box(), cc.r_cut);
    const double cell_per_i = double(cell_kernel.last_candidates()) / n;

    AsciiTable vs("Evaluated pair operations vs the conventional optimum "
                  "N N_int (eq. 5)");
    vs.set_header({"counting", "N", "evaluated/particle", "N_int",
                   "measured/optimal", "model"});
    vs.add_row({"MDGRAPE-2 27-cell scan (margin 1.00)",
                std::to_string(system.size()), format_fixed(grape_per_i, 1),
                format_fixed(grape_n_int, 1),
                format_fixed(grape_per_i / grape_n_int, 2),
                format_fixed(grape_model / grape_n_int, 2)});
    std::string label = "native pair list (r_cut + ";
    label += format_fixed(native::NativeRealKernel::kListSkin, 1);
    label += " A skin)";
    vs.add_row({label, std::to_string(big.size()),
                format_fixed(native_per_i, 1),
                format_fixed(native_n_int, 1),
                format_fixed(native_per_i / native_n_int, 2),
                format_fixed(skin_model, 2)});
    vs.add_row({"native cell-mode filter (r_cut = L/5)",
                std::to_string(big.size()), format_fixed(cell_per_i, 1),
                format_fixed(cell_n_int, 1),
                format_fixed(cell_per_i / cell_n_int, 2), "1.00"});
    std::printf("%s\n", vs.str().c_str());
    const double cell_useful_i = double(cell_kernel.last_pairs()) / n;
    std::printf("The cell-mode filter evaluates %.1f pairs per particle, "
                "%.1f of them inside r_cut (%.3f); its distance from 1 "
                "against N_int is the melt's g(r), not waste.\n\n",
                cell_per_i, cell_useful_i, cell_per_i / cell_useful_i);
    report.add("grape.ops_over_optimal", grape_per_i / grape_n_int, "x");
    report.add("native.candidates_per_particle", native_per_i, "pairs");
    report.add("native.useful_per_particle", double(kernel.last_pairs()) / n,
               "pairs");
    report.add("native.ops_over_optimal", native_per_i / native_n_int, "x");
    report.add("native_cell.candidates_per_particle", cell_per_i, "pairs");
    report.add("native_cell.useful_per_particle", cell_useful_i, "pairs");
    report.add("native_cell.ops_over_optimal", cell_per_i / cell_n_int, "x");
    report.add("native_cell.ops_over_useful", cell_per_i / cell_useful_i,
               "x");
  }

  // --- modeled: what each hardware modification buys ---------------------
  using namespace mdm::perf;
  const PaperWorkload w;
  const auto future = MachineModel::mdm_future();
  AsciiTable what_if("Sec. 6.1 what-if: future MDM with cell-index "
                     "modifications (paper workload)");
  what_if.set_header({"real-space counting", "pairs/particle", "alpha*",
                      "predicted s/step", "effective Tflops"});
  struct Scenario {
    const char* name;
    const char* key;     // metric prefix for the bench report
    double pair_factor;  // evaluated pairs per particle, in units of N_int
  };
  const double min_flops =
      ewald_step_flops(w.n_particles, w.box,
                       parameters_from_alpha(balanced_alpha(w.n_particles),
                                             w.box))
          .total_host();
  for (const auto& sc :
       {Scenario{"current hardware (N_int_g)", "current", 2.0 * geometric},
        Scenario{"+ cutoff skip (2 N_int)", "cutoff_skip", 2.0},
        Scenario{"+ Newton's 3rd law (N_int)", "newton3", 1.0}}) {
    // Real-space time = 59 N N_int(alpha) * pair_factor / S_real, so the
    // modification is equivalent to a pair_factor-times-faster unit running
    // conventional counting - which also shifts the optimal alpha down.
    const double opt_alpha = machine_optimal_alpha(
        w.n_particles, future.mdgrape_sustained_flops() / sc.pair_factor,
        future.wine_sustained_flops(), {}, /*grape_counting=*/false);
    const auto p = parameters_from_alpha(opt_alpha, w.box);
    const auto flops = ewald_step_flops(w.n_particles, w.box, p);
    const double real_flops = flops.real_host * sc.pair_factor;
    const double t_real = real_flops / future.mdgrape_sustained_flops();
    const double t_wn = flops.wavenumber / future.wine_sustained_flops();
    const double t_step = std::max(t_real, t_wn) + 0.2;  // host/comm floor
    what_if.add_row({std::string(sc.name),
                     format_fixed(sc.pair_factor * flops.n_int, 0),
                     format_fixed(opt_alpha, 1), format_fixed(t_step, 2),
                     format_fixed(min_flops / t_step / 1e12, 1)});
    const std::string prefix = std::string("whatif.") + sc.key + ".";
    report.add(prefix + "s_per_step", t_step, "s_model");
    report.add(prefix + "effective_tflops", min_flops / t_step / 1e12,
               "Tflops_model");
  }
  std::printf("%s\n", what_if.str().c_str());
  std::printf("Removing the waste closes most of the gap between the "
              "future machine's 48.7 Tflops calculation speed and its 13.1 "
              "Tflops effective speed (sec. 6.1's stated goal).\n");
  report.write();
  return 0;
}
