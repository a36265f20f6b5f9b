// perfbench/src/serve.hpp
//
// Request pools and the long-lived composed graph shared by serve_stream
// and the compose plumbing probe.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/fft2d/fft2d.hpp"
#include "apps/poisson/poisson.hpp"
#include "bench.hpp"

namespace pb {

/// Small seeded input pools with references computed once: Poisson 34^2
/// solves to 1e-4 (reference: sequential version 1), 64^2 spectra
/// (reference: sequential fft2d_v1), and graph inputs whose reference is
/// version-1 Poisson, interior, then version-1 FFT.
struct ServePools {
  static constexpr std::size_t kPool = 32;
  std::vector<ppa::app::PoissonProblem> solve;
  std::vector<ppa::app::PoissonResult> solve_ref;
  std::vector<ppa::Array2D<ppa::app::Complex>> spectrum, spectrum_ref;
  std::vector<ppa::app::PoissonProblem> graph;
  std::vector<ppa::Array2D<ppa::app::Complex>> graph_ref;
};

ServePools make_serve_pools(std::uint64_t seed);

/// One graph request in flight; lives in the caller's frame, which blocks
/// until the sink (or the service's failure path) marks it done.
struct GraphCall {
  std::size_t pool = 0;
  bool ok = false;
  double ingest_out = 0, solve_start = 0, solve_end = 0;
  double interior_out = 0, fft_start = 0, fft_end = 0;
  bool done = false;  ///< guarded by the service's mutex
};

/// `ingest | poisson(np=2) | interior | fft2d(np=2) | sink`, run once on
/// run_scheduler over the environment's scheduler for the service's whole
/// life. The hosted bodies are the poisson_component / fft2d_component
/// bodies (poisson_process on the near-square grid, fft2d_body) plus
/// rank-0 timestamps, so hosted run and wait time are measured.
class GraphService {
 public:
  GraphService(Env& env, const ServePools& pools);
  ~GraphService();
  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  /// Push one request through the graph and block until it leaves the
  /// sink; false when the output was wrong or the graph failed.
  bool call(GraphCall& c);

 private:
  void serve();

  Env& env_;
  const ServePools& pools_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<GraphCall*> queue_;
  bool closed_ = false;
  bool dead_ = false;
  std::thread thread_;  ///< last member: starts after the rest exist
};

}  // namespace pb
