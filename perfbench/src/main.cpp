// nanocost_bench: runs one nanocost benchmark workload from a seed and
// prints its metrics.
//
//   nanocost_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--workdir DIR]
//
// Workloads: serve_hot, serve_cold, serve_campaign, pd_flow (see
// perfbench/NOTES.md).  With --trace 0 the run measures one untraced
// window of S seconds and prints the end-to-end metrics; with --trace 1
// it measures an untraced and a traced window of S/2 seconds each and
// prints the per-layer metrics.  Human-readable lines come first; the
// last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 1 when the output check fails, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "nanocost/exec/simd.hpp"
#include "nanocost/exec/thread_pool.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "nanocost_bench: %s\n"
               "usage: nanocost_bench --workload serve_hot|serve_cold|serve_campaign|pd_flow "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (a == "--workdir") {
      args.workdir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool served = args.workload == "serve_hot" || args.workload == "serve_cold" ||
                      args.workload == "serve_campaign";
  if (!served && args.workload != "pd_flow") return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const std::string dir = args.workdir + "/" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  bench::Report report;
  const unsigned nproc = std::thread::hardware_concurrency();
  const double usable = bench::usable_core_probe(static_cast<int>(nproc > 0 ? nproc : 1));
  const int cpu = bench::pin_to_one_cpu();
  report.note("workload %s seed %llu seconds %.3f trace %d", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  report.note("machine: nproc %u, usable cores %.2f (raw std::thread spin, %u threads vs 1)%s; "
              "run pinned to cpu %d; pool lanes %d; simd %s",
              nproc, usable, nproc,
              usable < 1.5 ? " -- multicore figures from this run are not trustworthy" : "", cpu,
              nanocost::exec::ThreadPool::global().thread_count(),
              nanocost::exec::simd_level_name(nanocost::exec::simd_level()));

  int rc = 0;
  try {
    rc = served ? bench::run_served(args, dir, report, usable)
                : bench::run_pd_flow(args, dir, report, usable);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nanocost_bench: %s\n", e.what());
    std::filesystem::remove_all(dir);
    return 1;
  }
  std::filesystem::remove_all(dir);
  report.print_json();
  if (rc != 0) return rc;
  return report.correct() ? 0 : 1;
}
