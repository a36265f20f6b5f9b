// Layer probes: per-layer numbers taken by calling each layer's public
// functions directly on the workload's warm engine, each inside a span.
// Timed regions on several ranks are fenced by barriers and read on rank 0;
// every probe reports the median of its repetitions.
#include <algorithm>
#include <cstring>
#include <memory>

#include "algorithms/fft.hpp"
#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/sort/onedeep_mergesort.hpp"
#include "meshspectral/io.hpp"
#include "meshspectral/kernels.hpp"
#include "meshspectral/rowcol.hpp"
#include "perfmodel/models.hpp"
#include "serve.hpp"

namespace pb {

using ppa::Array2D;
using ppa::mpl::Process;
namespace mesh = ppa::mesh;

namespace {

/// Run `body(p, samples)` as one np-wide job inside a span; rank 0 pushes
/// its samples; returns their median.
template <typename Body>
double probe(Env& env, Tracer& tracer, const std::string& name, int np, Body&& body) {
  ScopedSpan span(tracer, "probe." + name, -1, 0);
  std::vector<double> samples;
  env.engine->run(np, [&](Process& p) {
    std::vector<double> mine;
    body(p, mine);
    if (p.rank() == 0) samples = std::move(mine);
  });
  return median(samples);
}

/// Time `fn` between two barriers of the job.
template <typename Fn>
double fenced(Process& p, Fn&& fn) {
  p.barrier();
  const double t0 = now_s();
  fn();
  p.barrier();
  return now_s() - t0;
}

double seeded_value(std::size_t i, std::size_t j) {
  return 1e-3 * static_cast<double>((i * 131 + j * 71) % 977);
}

/// One local 5-point Jacobi sweep (kernels.hpp row drivers, the poisson
/// app's tiling choice) and its reduction + copy, on a kJacobiN^2 grid
/// split over np ranks.
void sweep_probe(Env& env, Tracer& tracer, int np, double& sweep_s, double& diffcopy_s) {
  const auto pgrid = ppa::mpl::CartGrid2D::near_square(np);
  std::vector<double> diff_samples;
  sweep_s = probe(env, tracer, "kernels.sweep_np" + std::to_string(np), np,
                  [&](Process& p, std::vector<double>& out) {
    mesh::Grid2D<double> uk(kJacobiN, kJacobiN, pgrid, p.rank(), 1);
    mesh::Grid2D<double> ukp(kJacobiN, kJacobiN, pgrid, p.rank(), 1);
    mesh::Grid2D<double> fv(kJacobiN, kJacobiN, pgrid, p.rank(), 1);
    uk.init_from_global(seeded_value);
    fv.init_from_global(seeded_value);
    ukp.copy_interior_from(uk);
    auto ukpv = mesh::field_view(ukp);
    auto ukw = mesh::field_view(uk);
    const auto ukv = mesh::field_view(std::as_const(uk));
    const auto fvv = mesh::field_view(std::as_const(fv));
    const auto nx = static_cast<std::ptrdiff_t>(uk.nx());
    const auto ny = static_cast<std::ptrdiff_t>(uk.ny());
    const mesh::Region2 region{0, nx, 0, ny};
    const double h2 = 1e-6;
    const auto rows = [&](std::ptrdiff_t i, std::ptrdiff_t j0, std::ptrdiff_t j1) {
      mesh::kern::jacobi_row(ukpv.row(i), ukv.row(i - 1), ukv.row(i), ukv.row(i + 1),
                             fvv.row(i), h2, j0, j1);
    };
    std::vector<double> diff;
    volatile double observed = 0.0;  // keeps the reduction from being elided
    for (int r = 0; r < 8; ++r) {
      out.push_back(fenced(p, [&] {
        mesh::kern::sweep_rows_tiled(
            region, mesh::kern::auto_tile_j(5 * sizeof(double), ny), rows);
      }));
      diff.push_back(fenced(p, [&] {
        double m = 0.0;
        for (std::ptrdiff_t i = 0; i < nx; ++i) {
          m = mesh::kern::absdiff_max_row(ukpv.row(i), ukv.row(i), 0, ny, m);
        }
        for (std::ptrdiff_t i = 0; i < nx; ++i) mesh::kern::copy_row(ukw.row(i), ukpv.row(i), 0, ny);
        observed = m;
      }));
    }
    if (p.rank() == 0) diff_samples = std::move(diff);
  });
  diffcopy_s = median(diff_samples);
}

/// Copy bandwidth of np ranks each memcpy'ing its quarter of two arrays of
/// `bytes` (>= 4x the reported LLC).
double copy_probe(Env& env, Tracer& tracer, std::size_t bytes) {
  std::unique_ptr<char[]> src(new char[bytes]);
  std::unique_ptr<char[]> dst(new char[bytes]);
  const double t = probe(env, tracer, "kernels.copy", kWidth, [&](Process& p, std::vector<double>& out) {
    const std::size_t part = bytes / kWidth;
    char* s = src.get() + part * static_cast<std::size_t>(p.rank());
    char* d = dst.get() + part * static_cast<std::size_t>(p.rank());
    std::memset(s, p.rank() + 1, part);  // first touch, rank-local
    std::memset(d, 0, part);
    for (int r = 0; r < 4; ++r) out.push_back(fenced(p, [&] { std::memcpy(d, s, part); }));
  });
  // Read plus write per byte copied.
  return 2.0 * static_cast<double>(bytes) / t / 1e9;
}

void plan_probe(Env& env, Tracer& tracer, std::size_t n, int np, int reps,
                double& begin_s, double& end_s) {
  const auto pgrid = ppa::mpl::CartGrid2D::near_square(np);
  std::vector<double> ends;
  begin_s = probe(env, tracer, "plan.n" + std::to_string(n), np,
                  [&](Process& p, std::vector<double>& out) {
    mesh::Grid2D<double> g(n, n, pgrid, p.rank(), 1);
    g.init_from_global(seeded_value);
    mesh::ExchangePlan2D plan(pgrid, p.rank(), g, mesh::ExchangePlan2D::Options{{}, false, 0});
    std::vector<double> e;
    for (int r = 0; r < reps; ++r) {
      p.barrier();
      const double t0 = now_s();
      plan.begin_exchange(p, g);
      const double t1 = now_s();
      plan.end_exchange(p, g);
      const double t2 = now_s();
      out.push_back(t1 - t0);
      e.push_back(t2 - t1);
    }
    if (p.rank() == 0) ends = std::move(e);
  });
  end_s = median(ends);
}

/// Per-call time of `op` in batches of `batch` calls, median over batches.
template <typename Op>
double batched_probe(Env& env, Tracer& tracer, const std::string& name, int np,
                     int batches, int batch, Op&& op) {
  return probe(env, tracer, name, np, [&](Process& p, std::vector<double>& out) {
    for (int b = 0; b < batches; ++b) {
      out.push_back(fenced(p, [&] {
        for (int k = 0; k < batch; ++k) op(p);
      }) / batch);
    }
  });
}

}  // namespace

LayerProbes run_probes(Env& env, std::uint64_t seed, Tracer& tracer, Json& detail) {
  LayerProbes lp;
  const double t_start = now_s();

  // --- kernels: sweep, reduction + copy, copy bandwidth -------------------
  sweep_probe(env, tracer, kWidth, lp.sweep_np4_s, lp.diffcopy_np4_s);
  sweep_probe(env, tracer, 1, lp.sweep_np1_s, lp.diffcopy_np1_s);
  lp.llc_bytes = static_cast<double>(llc_bytes());
  const std::size_t copy_bytes =
      std::max<std::size_t>(4 * llc_bytes(), std::size_t{256} << 20) / 4096 * 4096;
  lp.copy_array_bytes = static_cast<double>(copy_bytes);
  lp.copy_gbs = copy_probe(env, tracer, copy_bytes);
  const double points = static_cast<double>(kJacobiN) * static_cast<double>(kJacobiN);
  lp.sweep_bytes = 24.0 * points;  // computed: read u and f, write u'
  lp.sweep_ops = 6.0 * points;     // 3 adds, 1 multiply, 1 subtract, 1 scale
  lp.bw_frac = lp.sweep_bytes / lp.sweep_np4_s / 1e9 / lp.copy_gbs;

  // --- apps: one public step() at np=4 ------------------------------------
  {
    const auto cfg = cfd_config(seed);
    const auto pgrid = ppa::mpl::CartGrid2D::near_square(kWidth);
    lp.cfd_step_s = probe(env, tracer, "apps.cfd.step", kWidth, [&](Process& p, std::vector<double>& out) {
      ppa::app::CfdSim sim(p, pgrid, cfg);
      sim.init_shock_interface();
      sim.step();
      for (int s = 0; s < 6; ++s) out.push_back(fenced(p, [&] { sim.step(); }));
    });
  }
  {
    const auto cfg = em_config(seed);
    const auto pgrid = ppa::mpl::CartGrid3D::near_cubic(kWidth);
    lp.em_step_s = probe(env, tracer, "apps.em.step", kWidth, [&](Process& p, std::vector<double>& out) {
      ppa::app::FdtdSim sim(p, pgrid, cfg);
      sim.step();
      for (int s = 0; s < 6; ++s) out.push_back(fenced(p, [&] { sim.step(); }));
    });
  }

  // --- meshspectral.plan: pack+post and wait+unpack ------------------------
  plan_probe(env, tracer, kJacobiN, kWidth, 40, lp.plan_begin_s, lp.plan_end_s);
  plan_probe(env, tracer, 34, 2, 2000, lp.plan_begin_small_s, lp.plan_end_small_s);

  // --- mpl: collectives, barrier, mailbox ----------------------------------
  const auto allreduce = [](Process& p) { (void)p.allreduce(1.0, ppa::mpl::MaxOp{}); };
  lp.allreduce_np2_us = 1e6 * batched_probe(env, tracer, "mpl.allreduce_np2", 2, 21, 200, allreduce);
  lp.allreduce_np4_us = 1e6 * batched_probe(env, tracer, "mpl.allreduce_np4", 4, 21, 200, allreduce);
  lp.barrier_us = 1e6 * batched_probe(env, tracer, "mpl.barrier", 4, 21, 200,
                                      [](Process& p) { p.barrier(); });
  lp.pingpong_us = 1e6 * batched_probe(env, tracer, "mpl.pingpong", 2, 21, 200, [](Process& p) {
    constexpr int kTag = 11;
    if (p.rank() == 0) {
      p.send_value(1, kTag, 1.0);
      (void)p.recv_value<double>(1, kTag);
    } else {
      (void)p.recv_value<double>(0, kTag);
      p.send_value(0, kTag, 2.0);
    }
  }) / 2.0;
  {
    constexpr std::size_t kBulk = (std::size_t{8} << 20) / sizeof(double);
    const std::vector<double> payload(kBulk, 1.5);
    const double t = probe(env, tracer, "mpl.bulk", 2, [&](Process& p, std::vector<double>& out) {
      constexpr int kTag = 12;
      for (int r = 0; r < 9; ++r) {
        out.push_back(fenced(p, [&] {
          if (p.rank() == 0) {
            p.send(1, kTag, std::span<const double>(payload));
          } else {
            const auto got = p.recv<double>(0, kTag);
            if (got.size() != kBulk) throw std::runtime_error("bulk probe: short message");
          }
        }));
      }
    });
    lp.bulk_gbs = static_cast<double>(kBulk * sizeof(double)) / t / 1e9;
  }

  // --- meshspectral.io / rowcol, algorithms.fft ---------------------------
  {
    const auto pgrid = ppa::mpl::CartGrid2D::near_square(kWidth);
    lp.gather_s = probe(env, tracer, "io.gather_grid", kWidth, [&](Process& p, std::vector<double>& out) {
      mesh::Grid2D<double> g(kJacobiN, kJacobiN, pgrid, p.rank(), 1);
      g.init_from_global(seeded_value);
      for (int r = 0; r < 3; ++r) {
        out.push_back(fenced(p, [&] { (void)mesh::gather_grid(p, pgrid, g, 0); }));
      }
    });
  }
  {
    using ppa::app::Complex;
    std::vector<double> gathers;
    lp.redistribute_s = probe(env, tracer, "rowcol.redistribute", kWidth, [&](Process& p, std::vector<double>& out) {
      mesh::RowDistributed<Complex> rows(kFftN, kFftN, p.size(), p.rank());
      rows.init_from_global([](std::size_t i, std::size_t j) {
        return Complex(seeded_value(i, j), seeded_value(j, i));
      });
      mesh::ColDistributed<Complex> cols(kFftN, kFftN, p.size(), p.rank());
      std::vector<double> g;
      for (int r = 0; r < 5; ++r) {
        out.push_back(fenced(p, [&] { mesh::redistribute(p, rows, cols); }));
        g.push_back(fenced(p, [&] { (void)mesh::gather_matrix(p, rows, 0); }));
      }
      if (p.rank() == 0) gathers = std::move(g);
    });
    lp.rowcol_gather_s = median(gathers);
    lp.fft_rows_s = probe(env, tracer, "fft.rows", kWidth, [&](Process& p, std::vector<double>& out) {
      Array2D<Complex> slab(kFftN / kWidth, kFftN);
      for (std::size_t i = 0; i < slab.rows(); ++i) {
        for (std::size_t j = 0; j < slab.cols(); ++j) slab(i, j) = Complex(seeded_value(i, j), 0.0);
      }
      for (int r = 0; r < 5; ++r) {
        out.push_back(fenced(p, [&] {
          for (std::size_t i = 0; i < slab.rows(); ++i) ppa::algo::fft(slab.row(i), r % 2 == 1);
        }));
      }
    });
  }

  // --- algorithms.sort and the sort's all-to-all ---------------------------
  {
    std::vector<double> a2a, merges;
    lp.sort_local_s = probe(env, tracer, "sort", kWidth, [&](Process& p, std::vector<double>& out) {
      const auto block = seeded_ints(seed * 41 + static_cast<std::uint64_t>(p.rank()), kSortN / kWidth);
      ppa::app::OneDeepMergesort<int> spec;
      std::vector<int> local;
      for (int r = 0; r < 3; ++r) {
        local = block;
        out.push_back(fenced(p, [&] { spec.local_solve(local); }));
      }
      const auto samples = spec.merge_sample(local);
      const auto all = p.allgather(std::span<const int>(samples));
      const auto splitters = spec.merge_params(all, p.size());
      const auto parts = spec.repartition(local, splitters, p.size());
      std::vector<double> ta, tm;
      std::vector<std::vector<int>> received;
      for (int r = 0; r < 3; ++r) {
        auto copy = parts;
        ta.push_back(fenced(p, [&] { received = p.alltoall(std::move(copy)); }));
        tm.push_back(fenced(p, [&] { (void)spec.local_merge(received); }));
      }
      if (p.rank() == 0) {
        a2a = std::move(ta);
        merges = std::move(tm);
      }
    });
    lp.alltoall_s = median(a2a);
    lp.sort_merge_s = median(merges);
  }

  // --- mpl.engine: empty-body dispatch -------------------------------------
  auto dispatch = [&](int np) {
    ScopedSpan span(tracer, "probe.engine.dispatch_np" + std::to_string(np), -1, 0);
    std::vector<double> per;
    for (int b = 0; b < 21; ++b) {
      const double t0 = now_s();
      for (int k = 0; k < 50; ++k) env.engine->run(np, [](Process&) {});
      per.push_back((now_s() - t0) / 50);
    }
    return 1e6 * median(per);
  };
  lp.dispatch_np1_us = dispatch(1);
  lp.dispatch_np2_us = dispatch(2);
  lp.dispatch_np4_us = dispatch(4);

  // --- core.compose: graph request latency minus hosted run and wait ------
  {
    ScopedSpan span(tracer, "probe.compose.plumbing", -1, 0);
    const ServePools pools = make_serve_pools(seed);
    GraphService svc(env, pools);
    std::vector<double> plumbing;
    for (int r = 0; r < 60; ++r) {
      GraphCall c;
      c.pool = static_cast<std::size_t>(r) % ServePools::kPool;
      const double t0 = now_s();
      if (!svc.call(c)) throw std::runtime_error("compose probe: wrong graph output");
      const double hosted = (c.solve_end - c.solve_start) + (c.fft_end - c.fft_start);
      const double waits = (c.solve_start - c.ingest_out) + (c.fft_start - c.interior_out);
      plumbing.push_back((now_s() - t0) - hosted - waits);
    }
    lp.plumbing_us = 1e6 * median(plumbing);
  }

  detail.set("probe_seconds", now_s() - t_start)
      .set("llc_bytes_reported", lp.llc_bytes)
      .set("copy_array_bytes", lp.copy_array_bytes)
      .set("copy_gbs_measured", lp.copy_gbs)
      .set("sweep_grid", static_cast<double>(kJacobiN))
      .set("sweep_bytes_computed", lp.sweep_bytes)
      .set("sweep_ops_computed", lp.sweep_ops)
      .set("sweep_ops_per_byte_computed", lp.sweep_ops / lp.sweep_bytes)
      .set("sweep_gbs_computed", lp.sweep_bytes / lp.sweep_np4_s / 1e9)
      .set("note", "bytes and ops are computed from array sizes, not counted by hardware");
  return lp;
}

void add_probe_metrics(const LayerProbes& lp, MetricSet& m) {
  m.add("meshspectral.kernels.sweep_s", lp.sweep_np4_s, "s");
  m.add("meshspectral.kernels.sweep_np1_s", lp.sweep_np1_s, "s");
  m.add("meshspectral.kernels.diffcopy_s", lp.diffcopy_np4_s, "s");
  m.add("meshspectral.kernels.copy_gbs", lp.copy_gbs, "GB/s");
  m.add("meshspectral.kernels.bw_frac", lp.bw_frac, "fraction");
  m.add("apps.cfd.step_s", lp.cfd_step_s, "s");
  m.add("apps.em.step_s", lp.em_step_s, "s");
  m.add("meshspectral.plan.begin_s", lp.plan_begin_s, "s");
  m.add("meshspectral.plan.end_s", lp.plan_end_s, "s");
  m.add("meshspectral.plan.begin_small_s", lp.plan_begin_small_s, "s");
  m.add("meshspectral.plan.end_small_s", lp.plan_end_small_s, "s");
  m.add("mpl.collectives.allreduce_np2_us", lp.allreduce_np2_us, "us");
  m.add("mpl.collectives.allreduce_np4_us", lp.allreduce_np4_us, "us");
  m.add("mpl.barrier_us", lp.barrier_us, "us");
  m.add("mpl.mailbox.pingpong_us", lp.pingpong_us, "us");
  m.add("mpl.mailbox.bulk_gbs", lp.bulk_gbs, "GB/s");
  m.add("meshspectral.io.gather_s", lp.gather_s, "s");
  m.add("meshspectral.rowcol.redistribute_s", lp.redistribute_s, "s");
  m.add("meshspectral.rowcol.gather_s", lp.rowcol_gather_s, "s");
  m.add("algorithms.fft.rows_s", lp.fft_rows_s, "s");
  m.add("mpl.collectives.alltoall_s", lp.alltoall_s, "s");
  m.add("algorithms.sort.local_s", lp.sort_local_s, "s");
  m.add("algorithms.sort.merge_s", lp.sort_merge_s, "s");
  m.add("mpl.engine.dispatch_np1_us", lp.dispatch_np1_us, "us");
  m.add("mpl.engine.dispatch_np2_us", lp.dispatch_np2_us, "us");
  m.add("mpl.engine.dispatch_np4_us", lp.dispatch_np4_us, "us");
  m.add("core.compose.plumbing_us", lp.plumbing_us, "us");
}

Json model_json(const LayerProbes& lp,
                const std::vector<std::pair<std::string, double>>& measured) {
  namespace perf = ppa::perf;
  perf::Machine m;
  m.name = "calibrated from this run's probes";
  m.alpha = lp.pingpong_us * 1e-6;
  m.beta = 1.0 / (lp.bulk_gbs * 1e9);
  // Poisson's model charges 9 element operations per point per iteration.
  const double points = static_cast<double>(kJacobiN) * static_cast<double>(kJacobiN);
  m.elem_op = (lp.sweep_np1_s + lp.diffcopy_np1_s) / (points * 9.0);
  m.memory_bytes = 1e15;  // no paging on this host's problem sizes

  auto find = [&](const std::string& name) -> Json {
    for (const auto& [k, v] : measured) {
      if (k == name) return Json(v);
    }
    return Json();  // not measured by this workload
  };
  const perf::PoissonWorkload pw{kJacobiN, kJacobiN, kJacobiIters, 9.0};
  const perf::CfdWorkload cw{kCfdNx, kCfdNy, kCfdSteps, 120.0, 32.0};
  const perf::EmWorkload ew{kEmN, kEmSteps, 54.0, 6.0};
  const perf::FftWorkload fw{kFftN, kFftN, 2, 16.0, 8.0};
  const perf::SortWorkload sw{kSortN, 4.0, 64};
  auto row = [&](double np1, double np4, const std::string& m1, const std::string& m4) {
    return Json::object()
        .set("model_np1_s", np1)
        .set("measured_np1_s", find(m1))
        .set("model_np4_s", np4)
        .set("measured_np4_s", find(m4));
  };
  return Json::object()
      .set("machine", Json::object()
                          .set("alpha_s", m.alpha)
                          .set("beta_s_per_byte", m.beta)
                          .set("elem_op_s", m.elem_op)
                          .set("calibration", "alpha: 8 B ping-pong one-way; beta: 8 MiB "
                                              "point-to-point; elem_op: np=1 Jacobi iteration "
                                              "over 9 ops per point"))
      .set("jacobi2d", row(perf::poisson_seq_time(m, pw), perf::poisson_par_time(m, pw, 4),
                           "jacobi2d_np1_s", "jacobi2d_s"))
      .set("euler2d", row(perf::cfd_seq_time(m, cw), perf::cfd_par_time(m, cw, 4), "",
                          "euler2d_s"))
      .set("fdtd3d", row(perf::em_seq_time(m, ew), perf::em_par_time(m, ew, 4), "",
                         "fdtd3d_s"))
      .set("fft2d", row(perf::fft2d_seq_time(m, fw), perf::fft2d_par_time(m, fw, 4),
                        "fft2d_np1_s", "fft2d_s"))
      .set("sort", row(perf::mergesort_seq_time(m, sw), perf::mergesort_onedeep_time(m, sw, 4),
                       "sort_np1_s", "sort_s"))
      .set("note", "ungated; the model is perfmodel's closed form with the calibrated machine");
}

}  // namespace pb
