// perfbench/src/bench.hpp
//
// The benchmark's workload framework. Every workload runs against one warm
// mpl::Engine(4) fronted by one mpl::Scheduler; operations are submitted
// through the scheduler by bodies the benchmark owns, which stamp when the
// job body starts and ends on rank 0, so queue wait and run time are
// measured at the scheduler boundary without touching src/.
//
// Outcome metrics are split the way BENCHMARK.json declares them:
// end-to-end metrics come from the untraced run, per-layer metrics from the
// traced run (same work, spans on, then the layer probes of probes.cpp).
#pragma once

#include <complex>
#include <cstring>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mpl/engine.hpp"
#include "mpl/scheduler.hpp"
#include "support/ndarray.hpp"
#include "util.hpp"

namespace ppa::app {
struct CfdConfig;
struct EmConfig;
}  // namespace ppa::app

namespace pb {

/// Width of the engine every workload runs on.
inline constexpr int kWidth = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  MetricSet metrics;  ///< e2e (untraced) or per-layer (traced)
  Json record = Json::object();
};

/// One warm engine plus the scheduler in front of it.
struct Env {
  Env();
  std::shared_ptr<ppa::mpl::Engine> engine;
  std::unique_ptr<ppa::mpl::Scheduler> sched;
};

/// Per-operation context handed to an operation kind: the tracer, the
/// operation's root span and request id, and the scheduler-boundary stamps
/// its bodies record.
struct OpCtx {
  Tracer* tracer = nullptr;
  int span = -1;
  std::uint64_t request = 0;
  bool ok = true;  ///< set false by the kind when its output is wrong
  // Scheduler-boundary stamps of the last submitted job (now_s clock).
  double submit_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double queue_s = 0.0;  ///< summed submit->start over the op's jobs
  double run_s = 0.0;    ///< summed start->end over the op's jobs

  /// Submit `body` as one np-wide job through the scheduler; stamps the
  /// boundaries, records them as spans and returns the job's trace.
  ppa::mpl::TraceSnapshot submit(Env& env, int np,
                                 const std::function<void(ppa::mpl::Process&)>& body,
                                 const ppa::mpl::JobOptions& options = {});
};

/// A closed-loop operation kind: `run` performs one operation and returns
/// its communication ledger (summed over its jobs).
struct OpKind {
  std::string name;  ///< the figure's workload name, e.g. "jacobi2d_s"
  std::string what;  ///< one-line description for the record
  std::function<ppa::mpl::TraceSnapshot(Env&, OpCtx&)> run;
};

/// Write the traced run's spans next to the record and add each span
/// name's count, total and self time to `record`.
void write_spans(const Options& opt, const Tracer& tracer, Json& record);

/// Bitwise equality of two dense arrays of trivially copyable values.
template <typename A>
bool bitwise_equal(const A& a, const A& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(*a.data())) == 0;
}

// ----------------------------------------------------------- layer probes --

/// Per-layer measurements taken by calling each layer's public functions
/// directly (probes.cpp). Every traced run takes all of them, so every
/// workload reports the same per-layer metric set.
struct LayerProbes {
  double sweep_np4_s = 0, sweep_np1_s = 0;         // kernels
  double diffcopy_np4_s = 0, diffcopy_np1_s = 0;   // kernels (reduction + copy)
  double copy_gbs = 0, copy_array_bytes = 0, llc_bytes = 0;
  double sweep_bytes = 0, sweep_ops = 0;           // computed, per np4 sweep
  double bw_frac = 0;
  double cfd_step_s = 0, em_step_s = 0;            // apps
  double plan_begin_s = 0, plan_end_s = 0;         // 2049^2 / np4
  double plan_begin_small_s = 0, plan_end_small_s = 0;  // 34^2 / np2
  double allreduce_np2_us = 0, allreduce_np4_us = 0, barrier_us = 0;
  double pingpong_us = 0, bulk_gbs = 0;
  double gather_s = 0;                             // io.gather_grid 2049^2
  double redistribute_s = 0, rowcol_gather_s = 0, fft_rows_s = 0;
  double alltoall_s = 0, sort_local_s = 0, sort_merge_s = 0;
  double dispatch_np1_us = 0, dispatch_np2_us = 0, dispatch_np4_us = 0;
  double plumbing_us = 0;                          // compose (graph probe)
};

LayerProbes run_probes(Env& env, std::uint64_t seed, Tracer& tracer, Json& detail);

/// Add the probe metrics (common to every workload's traced run).
void add_probe_metrics(const LayerProbes& lp, MetricSet& m);

/// Workload fixed sizes shared between the workloads and the probes.
inline constexpr std::size_t kJacobiN = 2049;
inline constexpr int kJacobiIters = 40;
inline constexpr std::size_t kCfdNx = 1024, kCfdNy = 512;
inline constexpr int kCfdSteps = 24;
inline constexpr std::size_t kEmN = 128;
inline constexpr int kEmSteps = 32;
inline constexpr std::size_t kFftN = 1024;
inline constexpr std::size_t kSortN = std::size_t{1} << 22;

/// Closed-loop workload driver shared by mesh_bulk and bulk_exchange:
/// references are prepared by the caller; this measures setup, runs the
/// loop (untraced, or untraced + traced + probes) and fills the outcome.
/// `explain(lp)` returns the seconds the layer probes explain for each kind
/// (negative = not modelled), for residual_frac.
Outcome run_closed_workload(
    const Options& opt, std::vector<OpKind>& kinds,
    const std::function<std::vector<double>(const LayerProbes&)>& explain);

/// Seeded inputs (bulk_exchange.cpp): an n x n complex grid with entries
/// uniform in [-1, 1]^2, and n ints uniform over the 32-bit range.
ppa::Array2D<std::complex<double>> seeded_grid(std::uint64_t seed, std::size_t n);
std::vector<int> seeded_ints(std::uint64_t seed, std::size_t n);

/// Seeded mesh_bulk scenarios (mesh_bulk.cpp), shared with the app probes.
ppa::app::CfdConfig cfd_config(std::uint64_t seed);
ppa::app::EmConfig em_config(std::uint64_t seed);

Outcome run_mesh_bulk(const Options& opt);
Outcome run_bulk_exchange(const Options& opt);
Outcome run_serve_stream(const Options& opt);

/// perf::Machine calibrated from the probes, and the model predictions for
/// the five archetype workloads next to whatever was measured.
Json model_json(const LayerProbes& lp, const std::vector<std::pair<std::string, double>>& measured);

}  // namespace pb
