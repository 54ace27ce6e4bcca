/// \file bench_micro.cpp
/// Google-benchmark micro suite: throughput of the kernels every higher
/// layer is built on - the Ewald pair kernel, the structure-factor
/// recurrence, cell-list construction, the PME mesh and its distributed
/// rank step (per stage), both hardware pipelines, the trig unit and the
/// fixed-point primitives.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <string>

#include "obs/bench_report.hpp"

#include "core/cell_list.hpp"
#include "core/lattice.hpp"
#include "ewald/ewald.hpp"
#include "ewald/parameters.hpp"
#include "ewald/pme.hpp"
#include "host/distributed_pme.hpp"
#include "host/vmpi.hpp"
#include "mdgrape2/pipeline.hpp"
#include "util/fft.hpp"
#include "util/fixed_point.hpp"
#include "util/random.hpp"
#include "util/units.hpp"
#include "wine2/pipeline.hpp"

namespace {

using namespace mdm;

std::vector<Vec3> random_positions(std::size_t n, double box,
                                   std::uint64_t seed) {
  Random rng(seed);
  std::vector<Vec3> pos(n);
  for (auto& r : pos)
    r = {rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)};
  return pos;
}

/// The 59-flop real-space pair kernel (erfc + exp + sqrt + div).
void BM_EwaldRealPairKernel(benchmark::State& state) {
  Random rng(1);
  const double beta = 0.3;
  double acc = 0.0;
  double r2 = rng.uniform(4.0, 100.0);
  for (auto _ : state) {
    const double r = std::sqrt(r2);
    const double e =
        std::erfc(beta * r) / r + 0.2 * std::exp(-beta * beta * r2);
    acc += e / r2;
    r2 += 1e-9;  // defeat constant folding
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EwaldRealPairKernel);

void BM_CellListBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double box = std::cbrt(double(n) / 0.0306);
  const auto pos = random_positions(n, box, 2);
  CellList cells(box, box / std::max(3, int(std::cbrt(double(n) / 16))));
  for (auto _ : state) {
    cells.build(pos);
    benchmark::DoNotOptimize(cells.order().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellListBuild)->Arg(512)->Arg(4096)->Arg(32768);

void BM_EwaldRealSpace(benchmark::State& state) {
  auto system = make_nacl_crystal(static_cast<int>(state.range(0)));
  const auto params =
      software_parameters(double(system.size()), system.box());
  EwaldCoulomb ewald(params, system.box());
  std::vector<Vec3> forces(system.size());
  for (auto _ : state) {
    for (auto& f : forces) f = Vec3{};
    benchmark::DoNotOptimize(ewald.add_real_space(system, forces).potential);
  }
  state.SetItemsProcessed(state.iterations() * system.size());
}
BENCHMARK(BM_EwaldRealSpace)->Arg(2)->Arg(4);

void BM_StructureFactors(benchmark::State& state) {
  auto system = make_nacl_crystal(static_cast<int>(state.range(0)));
  const auto params =
      software_parameters(double(system.size()), system.box());
  EwaldCoulomb ewald(params, system.box());
  std::vector<double> charges(system.size());
  for (std::size_t i = 0; i < system.size(); ++i)
    charges[i] = system.charge(i);
  for (auto _ : state) {
    const auto sf = ewald.structure_factors(system.positions(), charges);
    benchmark::DoNotOptimize(sf.s.data());
  }
  state.SetItemsProcessed(state.iterations() * system.size() *
                          ewald.kvectors().size());
}
BENCHMARK(BM_StructureFactors)->Arg(2)->Arg(4);

void BM_PmeReciprocal(benchmark::State& state) {
  auto system = make_nacl_crystal(static_cast<int>(state.range(0)));
  const auto params =
      software_parameters(double(system.size()), system.box());
  SmoothPme pme({params.alpha, params.r_cut, 32, 4}, system.box());
  std::vector<Vec3> forces(system.size());
  for (auto _ : state) {
    for (auto& f : forces) f = Vec3{};
    benchmark::DoNotOptimize(pme.add_reciprocal(system, forces));
  }
  state.SetItemsProcessed(state.iterations() * system.size());
}
BENCHMARK(BM_PmeReciprocal)->Arg(2)->Arg(4);

void BM_Fft3D(benchmark::State& state) {
  Grid3D grid(static_cast<std::size_t>(state.range(0)));
  Random rng(8);
  for (auto& v : grid.data()) v = {rng.uniform(-1, 1), 0.0};
  for (auto _ : state) {
    grid.transform(false);
    benchmark::DoNotOptimize(grid.data().data());
  }
  state.SetItemsProcessed(state.iterations() * grid.size());
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32);

/// One DistributedPmeRank step at the parallel_pme_512 mesh (K = 32,
/// order 6, N = 512 melt) over W wavenumber ranks. The reported time is
/// rank 0's steady-state wall time per step; the *_ms counters split it
/// into the engine's stages (PmeStageTimes), averaged per step.
void BM_PmeRankStep(benchmark::State& state) {
  const int w_ranks = static_cast<int>(state.range(0));
  auto system = make_nacl_crystal(4);
  Random rng(9);
  for (auto& r : system.positions())
    r += Vec3{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
              rng.uniform(-0.3, 0.3)};
  system.wrap_positions();
  const auto ew = software_parameters(double(system.size()), system.box());
  const PmeParameters params =
      validated_pme({ew.alpha, ew.r_cut, 32, 6}, system.box());
  const auto layout = host::PmeSlabLayout::create(32, 6, w_ranks);
  std::vector<std::vector<Vec3>> positions(w_ranks);
  std::vector<std::vector<double>> charges(w_ranks);
  for (std::size_t i = 0; i < system.size(); ++i) {
    const int owner = layout.route(system.positions()[i].z, system.box());
    positions[owner].push_back(system.positions()[i]);
    charges[owner].push_back(system.charge(i));
  }

  constexpr int kSteps = 20;
  host::PmeStageTimes total;
  for (auto _ : state) {
    double elapsed_s = 0.0;
    host::PmeStageTimes rank0;
    vmpi::World world(w_ranks);
    world.run([&](vmpi::Communicator& comm) {
      const int r = comm.rank();
      host::DistributedPmeRank engine(params, system.box(), comm);
      std::vector<Vec3> forces;
      engine.step(positions[r], charges[r], forces);  // plans and buffers
      engine.reset_stage_times();
      comm.barrier();
      const auto start = std::chrono::steady_clock::now();
      for (int step = 0; step < kSteps; ++step)
        engine.step(positions[r], charges[r], forces);
      if (r == 0) {
        elapsed_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        rank0 = engine.stage_times();
      }
    });
    state.SetIterationTime(elapsed_s / kSteps);
    total.steps += rank0.steps;
    total.spline_ms += rank0.spline_ms;
    total.spread_ms += rank0.spread_ms;
    total.ghost_ms += rank0.ghost_ms;
    total.fft_ms += rank0.fft_ms;
    total.transpose_ms += rank0.transpose_ms;
    total.convolve_ms += rank0.convolve_ms;
    total.gather_ms += rank0.gather_ms;
  }
  const double steps = total.steps > 0 ? total.steps : 1;
  state.counters["spline_ms"] = total.spline_ms / steps;
  state.counters["spread_ms"] = total.spread_ms / steps;
  state.counters["ghost_ms"] = total.ghost_ms / steps;
  state.counters["fft_ms"] = total.fft_ms / steps;
  state.counters["transpose_ms"] = total.transpose_ms / steps;
  state.counters["convolve_ms"] = total.convolve_ms / steps;
  state.counters["gather_ms"] = total.gather_ms / steps;
}
BENCHMARK(BM_PmeRankStep)->Arg(1)->Arg(2)->UseManualTime();

void BM_Mdgrape2Pipeline(benchmark::State& state) {
  const double box = 40.0;
  const double charges[2] = {+1.0, -1.0};
  const auto pass = mdgrape2::make_coulomb_real_pass(0.2, 12.0, charges);
  mdgrape2::Pipeline pipe;
  pipe.load(&pass);
  Random rng(3);
  mdgrape2::StoredParticle i{
      mdgrape2::to_cyclic({20, 20, 20}, box), 0};
  std::vector<mdgrape2::StoredParticle> stream;
  for (int k = 0; k < 256; ++k)
    stream.push_back({mdgrape2::to_cyclic({rng.uniform(0, box),
                                           rng.uniform(0, box),
                                           rng.uniform(0, box)},
                                          box),
                      k % 2});
  Vec3 force;
  for (auto _ : state) {
    pipe.accumulate_force(i, stream, box, force);
    benchmark::DoNotOptimize(force.x);
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_Mdgrape2Pipeline);

void BM_Wine2DftPipeline(benchmark::State& state) {
  const auto formats = wine2::WineFormats::paper();
  wine2::TrigUnit trig(formats);
  wine2::Pipeline pipe(formats, trig);
  std::vector<wine2::WaveSlot> waves(8);
  for (int k = 0; k < 8; ++k) waves[k].n[0] = k + 1;
  pipe.load_waves(waves);
  Random rng(4);
  std::vector<wine2::WineParticle> particles;
  for (int k = 0; k < 64; ++k)
    particles.push_back(wine2::make_wine_particle(
        {rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)}, 10.0,
        k % 2 ? 1.0 : -1.0, 1.0, formats));
  for (auto _ : state) {
    const auto acc = pipe.run_dft(particles);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() * waves.size() *
                          particles.size());
}
BENCHMARK(BM_Wine2DftPipeline);

void BM_TrigUnit(benchmark::State& state) {
  wine2::TrigUnit trig(wine2::WineFormats::paper());
  std::uint64_t phase = 12345;
  double acc = 0.0;
  for (auto _ : state) {
    acc += trig.sine(phase);
    phase += 98765;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrigUnit);

void BM_FixedPointMul(benchmark::State& state) {
  const QFormat in{.int_bits = 8, .frac_bits = 24};
  const QFormat out{.int_bits = 8, .frac_bits = 24};
  Fixed a = Fixed::from_double(1.2345, in);
  const Fixed b = Fixed::from_double(0.9876, in);
  for (auto _ : state) {
    a = mul(a, b, out);
    benchmark::DoNotOptimize(a.raw());
    if (a.raw() == 0) a = Fixed::from_double(1.2345, in);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedPointMul);

void BM_MinimumImage(benchmark::State& state) {
  Random rng(5);
  const double box = 25.0;
  Vec3 a{rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)};
  const Vec3 b{rng.uniform(0, box), rng.uniform(0, box),
               rng.uniform(0, box)};
  double acc = 0.0;
  for (auto _ : state) {
    acc += norm2(minimum_image(a, b, box));
    a.x += 1e-6;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinimumImage);

/// ConsoleReporter that also captures every run into a BenchReport so the
/// micro suite participates in the bench_compare regression gate.
class ReportingConsole : public benchmark::ConsoleReporter {
 public:
  explicit ReportingConsole(obs::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string key = run.benchmark_name();
      for (auto& c : key)
        if (c == '/') c = '.';
      report_.add(key + ".time_per_iter", run.GetAdjustedRealTime(),
                  benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second")
          report_.add(key + ".items_per_second", counter.value, "items/s");
        else if (name.ends_with("_ms"))
          report_.add(key + "." + name, counter.value, "ms");
      }
    }
  }

 private:
  obs::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mdm::obs::BenchReport report("micro");
  ReportingConsole reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
