// mesh_bulk: the paper's mesh archetype as fixed-work solves on large grids.
//
// One client, closed loop, four operation kinds issued back to back:
//   op1 jacobi2d_s      Poisson Jacobi 2049^2, fixed iterations, np=4
//   op2 jacobi2d_np1_s  the same solve at np=1 (single-process baseline)
//   op3 euler2d_s       CfdSim shock-interface 1024x512, fixed steps, np=4
//   op4 fdtd3d_s        FdtdSim 128^3, fixed steps, np=4
// Every result is checked bitwise against a reference computed once before
// set-up on an independent path: Poisson against the sequential version-1
// solver, CFD and FDTD against the legacy per-point sweeps at np=1 (the
// drivers are deterministic across np and across sweep modes).
#include <cstdio>

#include "apps/cfd/euler2d.hpp"
#include "apps/em/fdtd3d.hpp"
#include "apps/poisson/poisson.hpp"
#include "bench.hpp"
#include "support/rng.hpp"

namespace pb {

using ppa::Array2D;
using ppa::mpl::Process;
using ppa::mpl::TraceSnapshot;

namespace {

/// Seeded smooth problem: bilinear right-hand side and boundary values.
/// A negative tolerance makes the iteration count fixed (max_iters).
ppa::app::PoissonProblem jacobi_problem(std::uint64_t seed) {
  ppa::Rng rng(seed * 7919 + 11);
  const double c0 = rng.uniform(-2, 2), c1 = rng.uniform(-2, 2);
  const double c2 = rng.uniform(-2, 2), c3 = rng.uniform(-2, 2);
  const double g0 = rng.uniform(-1, 1), g1 = rng.uniform(-1, 1);
  const double g2 = rng.uniform(-1, 1);
  ppa::app::PoissonProblem prob;
  prob.nx = prob.ny = kJacobiN;
  prob.tolerance = -1.0;
  prob.max_iters = kJacobiIters;
  prob.f = [=](double x, double y) { return c0 + c1 * x + c2 * y + c3 * x * y; };
  prob.g = [=](double x, double y) { return g0 + g1 * x + g2 * y; };
  return prob;
}

}  // namespace

ppa::app::CfdConfig cfd_config(std::uint64_t seed) {
  ppa::Rng rng(seed * 104729 + 3);
  ppa::app::CfdConfig cfg;
  cfg.nx = kCfdNx;
  cfg.ny = kCfdNy;
  cfg.lx = 2.0;
  cfg.ly = 1.0;
  cfg.amplitude = rng.uniform(0.04, 0.1);
  cfg.interface_modes = 1 + static_cast<int>(rng.uniform_u64(3));
  cfg.x_interface = rng.uniform(0.7, 0.9);
  return cfg;
}

ppa::app::EmConfig em_config(std::uint64_t seed) {
  ppa::Rng rng(seed * 15485863 + 5);
  ppa::app::EmConfig cfg;
  cfg.n = kEmN;
  cfg.eps_sphere = rng.uniform(2.0, 6.0);
  cfg.sphere_radius = rng.uniform(16.0, 28.0);
  cfg.src_i = kEmN / 4 + rng.uniform_u64(8);
  cfg.src_j = kEmN / 2 - 8 + rng.uniform_u64(16);
  cfg.src_k = kEmN / 2 - 8 + rng.uniform_u64(16);
  return cfg;
}

Outcome run_mesh_bulk(const Options& opt) {
  const auto prob = jacobi_problem(opt.seed);
  const auto cfd = cfd_config(opt.seed);
  const auto em = em_config(opt.seed);

  // References (excluded from set-up time).
  const double t_ref0 = now_s();
  const auto ref_jacobi = ppa::app::poisson_v1(prob);
  Array2D<double> ref_rho, ref_ez;
  {
    ppa::mpl::Engine solo(1);
    auto legacy_cfd = cfd;
    legacy_cfd.sweep = ppa::mesh::SweepMode::kLegacy;
    ref_rho = ppa::app::run_shock_interface(legacy_cfd, kCfdSteps, solo, 1);
    auto legacy_em = em;
    legacy_em.sweep = ppa::mesh::SweepMode::kLegacy;
    ref_ez = ppa::app::run_em_scattering(legacy_em, kEmSteps, solo, 1);
  }
  std::fprintf(stderr, "perfbench: mesh_bulk references in %.2f s\n", now_s() - t_ref0);

  auto jacobi = [&](int np) {
    return [&prob, &ref_jacobi, np](Env& env, OpCtx& c) {
      const auto pgrid = ppa::mpl::CartGrid2D::near_square(np);
      ppa::app::PoissonResult r;
      const auto snap = c.submit(env, np, [&](Process& p) {
        auto res = ppa::app::poisson_process(p, pgrid, prob);
        if (p.rank() == 0) r = std::move(res);
      });
      c.ok = r.iterations == static_cast<std::size_t>(kJacobiIters) &&
             bitwise_equal(r.u, ref_jacobi.u);
      return snap;
    };
  };

  std::vector<OpKind> kinds;
  kinds.push_back({"jacobi2d_s", "Poisson Jacobi 2049^2, 40 iterations, np=4, gather included",
                   jacobi(kWidth)});
  kinds.push_back({"jacobi2d_np1_s", "the same solve at np=1", jacobi(1)});
  kinds.push_back({"euler2d_s", "CfdSim shock-interface 1024x512, 24 steps, np=4",
                   [&](Env& env, OpCtx& c) {
                     const auto pgrid = ppa::mpl::CartGrid2D::near_square(kWidth);
                     Array2D<double> rho;
                     const auto snap = c.submit(env, kWidth, [&](Process& p) {
                       ppa::app::CfdSim sim(p, pgrid, cfd);
                       sim.init_shock_interface();
                       for (int s = 0; s < kCfdSteps; ++s) {
                         const double t0 = now_s();
                         sim.step();
                         if (p.rank() == 0) c.tracer->record("apps.cfd.step", t0, now_s(), c.span, c.request);
                       }
                       const double t0 = now_s();
                       auto d = sim.gather_density(0);
                       if (p.rank() == 0) {
                         c.tracer->record("meshspectral.io.gather", t0, now_s(), c.span, c.request);
                         rho = std::move(d);
                       }
                     });
                     c.ok = bitwise_equal(rho, ref_rho);
                     return snap;
                   }});
  kinds.push_back({"fdtd3d_s", "FdtdSim 128^3, 32 steps, np=4",
                   [&](Env& env, OpCtx& c) {
                     const auto pgrid = ppa::mpl::CartGrid3D::near_cubic(kWidth);
                     Array2D<double> ez;
                     const auto snap = c.submit(env, kWidth, [&](Process& p) {
                       ppa::app::FdtdSim sim(p, pgrid, em);
                       for (int s = 0; s < kEmSteps; ++s) {
                         const double t0 = now_s();
                         sim.step();
                         if (p.rank() == 0) c.tracer->record("apps.em.step", t0, now_s(), c.span, c.request);
                       }
                       auto plane = sim.gather_ez_plane(0);
                       if (p.rank() == 0) ez = std::move(plane);
                     });
                     c.ok = bitwise_equal(ez, ref_ez);
                     return snap;
                   }});

  auto outcome = run_closed_workload(opt, kinds, [](const LayerProbes& lp) {
    const double iter4 = lp.sweep_np4_s + lp.diffcopy_np4_s + lp.plan_begin_s +
                         lp.plan_end_s + lp.allreduce_np4_us * 1e-6;
    const double iter1 = lp.sweep_np1_s + lp.diffcopy_np1_s;
    return std::vector<double>{kJacobiIters * iter4 + lp.gather_s, kJacobiIters * iter1,
                               kCfdSteps * lp.cfd_step_s, kEmSteps * lp.em_step_s};
  });
  // jacobi2d_np1_s / (4 * jacobi2d_s): derived, never gated.
  if (!opt.trace) {
    const auto& m = outcome.metrics.all();
    double j4 = 0, j1 = 0;
    for (const auto& x : m) {
      if (x.name == "op1_ms") j4 = x.value;
      if (x.name == "op2_ms") j1 = x.value;
    }
    if (j4 > 0) outcome.record.set("derived_parallel_efficiency_np4", j1 / (4.0 * j4));
  }
  return outcome;
}

}  // namespace pb
