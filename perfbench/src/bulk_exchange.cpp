// bulk_exchange: bulk data movement — redistribution, all-to-all, dense
// scatter and gather of multi-MiB payloads — plus the local FFT and sort
// kernels. The mesh sweep kernels do nothing here.
//
// One client, closed loop, four operation kinds issued back to back:
//   op1 fft2d_s       forward + inverse fft2d on 1024^2 complex, np=4
//   op2 sort_s        one-deep mergesort of 2^22 seeded ints, np=4
//   op3 fft2d_np1_s   the same transform pair at np=1
//   op4 sort_np1_s    the same sort at np=1
// The FFT is checked bitwise against the sequential version-1 transform
// (fft2d_spmd == fft2d_v1 for any np); the sort must equal std::sort.
#include <algorithm>
#include <cstdio>

#include "apps/fft2d/fft2d.hpp"
#include "apps/sort/sort.hpp"
#include "bench.hpp"
#include "support/rng.hpp"

namespace pb {

using ppa::Array2D;
using ppa::app::Complex;
using ppa::mpl::Process;
using ppa::mpl::TraceSnapshot;

Array2D<Complex> seeded_grid(std::uint64_t seed, std::size_t n) {
  ppa::Rng rng(seed);
  Array2D<Complex> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  return a;
}

std::vector<int> seeded_ints(std::uint64_t seed, std::size_t n) {
  ppa::Rng rng(seed);
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(static_cast<std::uint32_t>(rng()));
  return v;
}

Outcome run_bulk_exchange(const Options& opt) {
  const auto grid = seeded_grid(opt.seed * 31 + 1, kFftN);
  const auto keys = seeded_ints(opt.seed * 37 + 2, kSortN);

  const double t_ref0 = now_s();
  auto ref_fwd = grid;
  ppa::app::fft2d_v1(ref_fwd, ppa::seq);
  auto ref_inv = ref_fwd;
  ppa::app::fft2d_v1(ref_inv, ppa::seq, true);
  auto ref_sorted = keys;
  std::sort(ref_sorted.begin(), ref_sorted.end());
  std::fprintf(stderr, "perfbench: bulk_exchange references in %.2f s\n",
               now_s() - t_ref0);

  auto fft = [&](int np) {
    return [&, np](Env& env, OpCtx& c) {
      Array2D<Complex> fwd, inv;
      auto snap = c.submit(env, np, [&](Process& p) {
        auto out = ppa::app::fft2d_body(p, grid);
        if (p.rank() == 0) fwd = std::move(out);
      });
      snap = add_traces(snap, c.submit(env, np, [&](Process& p) {
        auto out = ppa::app::fft2d_body(p, fwd, true);
        if (p.rank() == 0) inv = std::move(out);
      }));
      c.ok = bitwise_equal(fwd, ref_fwd) && bitwise_equal(inv, ref_inv);
      return snap;
    };
  };
  auto sort = [&](int np) {
    return [&, np](Env& env, OpCtx& c) {
      auto locals = ppa::onedeep::block_distribute(keys, static_cast<std::size_t>(np));
      const auto snap = c.submit(env, np, [&](Process& p) {
        ppa::app::OneDeepMergesort<int> spec;
        auto& slot = locals[static_cast<std::size_t>(p.rank())];
        slot = ppa::onedeep::run_process(spec, p, std::move(slot));
      });
      c.ok = ppa::onedeep::gather_blocks(std::move(locals)) == ref_sorted;
      return snap;
    };
  };

  std::vector<OpKind> kinds;
  kinds.push_back({"fft2d_s", "forward + inverse fft2d 1024^2 complex, np=4", fft(kWidth)});
  kinds.push_back({"sort_s", "one-deep mergesort of 2^22 ints, np=4, distribute and gather included",
                   sort(kWidth)});
  kinds.push_back({"fft2d_np1_s", "the same transform pair at np=1", fft(1)});
  kinds.push_back({"sort_np1_s", "the same sort at np=1", sort(1)});

  return run_closed_workload(opt, kinds, [](const LayerProbes& lp) {
    // Per transform: row FFTs, column FFTs (the same work), two
    // redistributions and the final gather; np=1 kinds are not modelled.
    const double fft4 = 2.0 * (2.0 * lp.fft_rows_s + 2.0 * lp.redistribute_s +
                               lp.rowcol_gather_s);
    const double sort4 = lp.sort_local_s + lp.alltoall_s + lp.sort_merge_s;
    return std::vector<double>{fft4, sort4, -1.0, -1.0};
  });
}

}  // namespace pb
