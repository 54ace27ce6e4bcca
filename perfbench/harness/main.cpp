// mdm_perfbench: one workload per invocation.
//
//   mdm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--commit <id>]
//
// Prints check lines, diagnostics and provenance, then the result JSON as
// the last line of standard output. Exit code 0 when the run completed
// (failed checks are reported in the JSON, not by the exit code).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "probe.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"melt_native_4k", perfbench::run_melt_native_4k},
    {"machine_emulated_512", perfbench::run_machine_emulated_512},
    {"parallel_pme_512", perfbench::run_parallel_pme_512},
    {"fleet_open_loop", perfbench::run_fleet_open_loop},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mdm_perfbench: %s\nusage: mdm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--work-dir") {
        o.work_dir = value;
      } else if (key == "--commit") {
        o.commit = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (!workload) usage(("unknown workload " + options.workload).c_str());

  // Every workload keeps its busy threads <= nproc: the serial engines run
  // on the calling thread, the parallel app on its rank threads only.
  mdm::ThreadPool::set_global_threads(1);
  std::filesystem::create_directories(options.work_dir);

  Report report;
  report.info("workload", options.workload);
  report.info("seed", double(options.seed));
  report.info("seconds", options.seconds);
  report.info("trace", options.trace ? 1.0 : 0.0);
  report.info("commit", options.commit);
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("nproc", double(sysconf(_SC_NPROCESSORS_ONLN)));

  // Drift diagnostic: the same fixed loop before and after the workload.
  std::vector<double> probe = {perfbench::scalar_probe_ms(3)};
  if (options.trace) options.fma_gflops = perfbench::fma_probe_gflops();
  try {
    workload->run(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdm_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  probe.push_back(perfbench::scalar_probe_ms(3));
  report.metric("probe.scalar_ms", perfbench::median(probe));
  report.info("probe_scalar_ms_before", probe[0]);
  report.info("probe_scalar_ms_after", probe[1]);
  if (options.trace) {
    report.metric("probe.fma_gflops", options.fma_gflops);
    const perfbench::StreamProbe stream = perfbench::stream_probe();
    report.metric("probe.stream_gbps", stream.gbps);
    report.info("stream_array_bytes", double(stream.array_bytes));
    report.info("stream_llc_bytes", double(stream.llc_bytes));
  }
  return report.print(options.trace) ? 0 : 1;
}
