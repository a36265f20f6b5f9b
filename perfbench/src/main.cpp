// ppa_perfbench: the repository benchmark's measuring program.
//
//   ppa_perfbench --workload mesh_bulk|bulk_exchange|serve_stream
//                 --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints progress on stderr, writes the full record (provenance, named
// metrics, ledger, per-kind distributions) to DIR/record_<workload>.json,
// and prints the result line as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any result was wrong.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH "unknown"
#endif

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ppa_perfbench: %s\nusage: ppa_perfbench --workload "
               "mesh_bulk|bulk_exchange|serve_stream --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") opt.out_dir = v;
      else usage(("unknown option " + a).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds out of range");

  if (opt.workload != "mesh_bulk" && opt.workload != "bulk_exchange" &&
      opt.workload != "serve_stream") {
    usage("unknown workload");
  }
  pb::warm_cpus();

  pb::Outcome out;
  if (opt.workload == "mesh_bulk") out = pb::run_mesh_bulk(opt);
  else if (opt.workload == "bulk_exchange") out = pb::run_bulk_exchange(opt);
  else out = pb::run_serve_stream(opt);

  out.record.set("provenance",
                 pb::Json::object()
                     .set("host", pb::host_name())
                     .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
                     .set("cpu_model", pb::cpu_model())
                     .set("llc_bytes", static_cast<double>(pb::llc_bytes()))
                     .set("compiler", PERFBENCH_COMPILER)
                     .set("build_type", PERFBENCH_BUILD_TYPE)
                     .set("PPA_NATIVE_ARCH", PERFBENCH_NATIVE_ARCH)
                     .set("seed", static_cast<double>(opt.seed)));
  out.record.set("workload", opt.workload);
  out.record.set("trace", opt.trace);
  out.record.set("seconds", opt.seconds);
  out.record.set("correct", out.correct);
  out.record.set("attempted", out.attempted);
  out.record.set("failed", out.failed);
  out.record.set("metrics", out.metrics.to_json());
  {
    std::ofstream rec(opt.out_dir + "/record_" + opt.workload + ".json");
    rec << out.record.dump() << '\n';
  }
  for (const auto& m : out.metrics.all()) {
    std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stderr);
  const pb::Json line = pb::Json::object()
                            .set("correct", out.correct)
                            .set("attempted", out.attempted)
                            .set("failed", out.failed)
                            .set("metrics", out.metrics.to_json());
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
