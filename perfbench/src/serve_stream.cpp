// serve_stream: latency- and dispatch-bound serving of small archetype jobs.
//
// Open loop. Seeded exponential arrivals at two fixed mean rates — nominal
// and high, about 17% and 29% of the ~1200 requests/s the four generator
// threads complete when saturated — run as separate phases of at least
// kMinRequests requests each. (At 25% and 42% the high-rate p50 already
// spread 0.31 across seeds: the four generators run out of threads in
// bursts and the queue they build dominates the figure.) Requests are
// issued through the one scheduler by kGenerators generator threads; each
// request is timed from its due time, so a stall is charged to every
// request it delays. The mix:
//   solve     Poisson 34^2 to 1e-4 at np=2 (hundreds of tiny halo and
//             allreduce rounds)
//   spectrum  64^2 fft2d at np=4 (takes the whole engine: real queueing
//             against the np=2 jobs under strict FIFO admission)
//   graph     one item through the long-lived composed graph
//             ingest | poisson(2) | interior | fft2d(2) | sink
// A request that fails, is refused or misses kLatencyLimitS counts as
// failed and enters the latency distribution as +infinity.
//
// End-to-end slots: op1 = p50 latency at the nominal rate, op2 = p50 at
// the high rate, op3 = p50 of graph requests and op4 = p50 of spectrum
// requests at the nominal rate. The p99 tails (window medians) are in the
// record but not gated: on a 4-vCPU VM they spread 0.34-0.51 (IQR over
// median) across five seeds, beyond any admissible bound.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "core/compose.hpp"
#include "serve.hpp"
#include "support/rng.hpp"

namespace pb {

using ppa::Array2D;
using ppa::app::Complex;
using ppa::mpl::Process;
using ppa::mpl::TraceSnapshot;

namespace {

// The load definition. Fixed constants: never adapted per run.
constexpr double kNominalRate = 200.0;  // requests per second
constexpr double kHighRate = 350.0;
constexpr double kLatencyLimitS = 1.0;
constexpr int kGenerators = 4;
constexpr std::size_t kMinRequests = 1000;
constexpr std::size_t kWindow = 1000;  // requests per latency window
constexpr double kMix[3] = {0.5, 0.3, 0.2};  // solve, spectrum, graph
const char* const kKindName[3] = {"solve", "spectrum", "graph"};

Array2D<Complex> interior_as_complex(const Array2D<double>& u) {
  Array2D<Complex> a(u.rows() - 2, u.cols() - 2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = Complex(u(i + 1, j + 1), 0.0);
  }
  return a;
}

/// Seeded 34^2 problem. The coefficient ranges are narrow so every seed
/// draws solves of similar iteration counts: the seed changes the inputs,
/// not the amount of work.
ppa::app::PoissonProblem small_problem(ppa::Rng& rng) {
  const double a = rng.uniform(1.0, 1.2), b = rng.uniform(-0.1, 0.1);
  const double c = rng.uniform(1.0, 1.2), d = rng.uniform(-0.1, 0.1);
  ppa::app::PoissonProblem prob;
  prob.nx = prob.ny = 34;
  prob.tolerance = 1e-4;
  prob.f = [a, b](double x, double y) { return a * (x * x - y) + b; };
  prob.g = [c, d](double x, double y) { return c * x * y + d; };
  return prob;
}

}  // namespace

ServePools make_serve_pools(std::uint64_t seed) {
  ServePools sp;
  ppa::Rng rng(seed * 1000003 + 17);
  for (std::size_t k = 0; k < ServePools::kPool; ++k) {
    sp.solve.push_back(small_problem(rng));
    sp.solve_ref.push_back(ppa::app::poisson_v1(sp.solve.back()));
    sp.spectrum.push_back(seeded_grid(rng(), 64));
    auto ref = sp.spectrum.back();
    ppa::app::fft2d_v1(ref, ppa::seq);
    sp.spectrum_ref.push_back(std::move(ref));
    sp.graph.push_back(small_problem(rng));
    auto g = interior_as_complex(ppa::app::poisson_v1(sp.graph.back()).u);
    ppa::app::fft2d_v1(g, ppa::seq);
    sp.graph_ref.push_back(std::move(g));
  }
  return sp;
}

// ----------------------------------------------------------- graph service --

GraphService::GraphService(Env& env, const ServePools& pools)
    : env_(env), pools_(pools), thread_([this] { serve(); }) {}

GraphService::~GraphService() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

bool GraphService::call(GraphCall& c) {
  std::unique_lock lock(mutex_);
  if (dead_) return false;
  queue_.push_back(&c);
  cv_.notify_all();
  cv_.wait(lock, [&] { return c.done || dead_; });
  return c.done && c.ok;
}

void GraphService::serve() {
  namespace compose = ppa::compose;
  struct Ingested {
    GraphCall* call;
    ppa::app::PoissonProblem prob;
  };
  struct Solved {
    GraphCall* call;
    ppa::app::PoissonResult result;
  };
  struct Spectrum {
    GraphCall* call;
    Array2D<Complex> grid;
  };
  const auto pgrid = ppa::mpl::CartGrid2D::near_square(2);
  try {
    auto g =
        compose::source([this]() -> std::optional<GraphCall*> {
          std::unique_lock lock(mutex_);
          cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
          if (queue_.empty()) return std::nullopt;
          GraphCall* c = queue_.front();
          queue_.pop_front();
          return c;
        }) |
        compose::stage([this](GraphCall* c) {
          Ingested out{c, pools_.graph[c->pool]};
          c->ingest_out = now_s();
          return out;
        }) |
        compose::engine_job(2, [pgrid](Process& p, const Ingested& in) {
          const double t0 = now_s();
          auto r = ppa::app::poisson_process(p, pgrid, in.prob);
          if (p.rank() == 0) {
            in.call->solve_start = t0;
            in.call->solve_end = now_s();
          }
          return Solved{in.call, std::move(r)};
        }) |
        compose::stage([](Solved s) {
          Spectrum out{s.call, interior_as_complex(s.result.u)};
          s.call->interior_out = now_s();
          return out;
        }) |
        compose::engine_job(2, [](Process& p, const Spectrum& in) {
          const double t0 = now_s();
          auto a = ppa::app::fft2d_body(p, in.grid);
          if (p.rank() == 0) {
            in.call->fft_start = t0;
            in.call->fft_end = now_s();
          }
          return Spectrum{in.call, std::move(a)};
        }) |
        compose::sink([this](Spectrum s) {
          const bool ok = bitwise_equal(s.grid, pools_.graph_ref[s.call->pool]);
          std::lock_guard lock(mutex_);
          s.call->ok = ok;
          s.call->done = true;
          cv_.notify_all();
        });
    // Batch 1: a request moves on as soon as it arrives.
    (void)g.run_scheduler(*env_.sched, compose::Config{256, 1});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: composed graph failed: %s\n", e.what());
  }
  std::lock_guard lock(mutex_);
  dead_ = true;
  queue_.clear();
  cv_.notify_all();
}

// --------------------------------------------------------------- open loop --

namespace {

struct Request {
  double due = 0;
  int kind = 0;
  std::size_t pool = 0;
};

struct Served {
  int kind = 0;
  double latency_s = 0;  ///< +inf when failed
  double late_s = 0;     ///< generator lateness (submit - due)
  double queue_s = 0, run_s = 0;  ///< direct requests: scheduler boundary
  double plumbing_s = -1;         ///< graph requests
  double due_s = 0, done_s = 0;   ///< absolute, now_s() clock
  bool failed = false, wrong = false;
};

std::vector<Request> schedule(double rate, std::size_t n, std::uint64_t seed) {
  ppa::Rng rng(seed);
  std::vector<Request> reqs(n);
  double t = 0.05;
  for (auto& r : reqs) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    r.due = t;
    const double u = rng.uniform();
    r.kind = u < kMix[0] ? 0 : (u < kMix[0] + kMix[1] ? 1 : 2);
    r.pool = static_cast<std::size_t>(rng.uniform_u64(ServePools::kPool));
  }
  return reqs;
}

Served serve_one(Env& env, GraphService& svc, const ServePools& sp, const Request& r,
                 double due_abs, Ledger& ledger, std::mutex& ledger_mutex,
                 Tracer& tracer, std::uint64_t id) {
  Served s;
  s.kind = r.kind;
  OpCtx c;
  c.tracer = &tracer;
  c.request = id;
  const double submit = now_s();
  s.late_s = submit - due_abs;
  c.span = tracer.record(std::string("req.") + kKindName[r.kind], due_abs, due_abs, -1, id);
  ppa::mpl::JobOptions jo;
  jo.deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(kLatencyLimitS));
  jo.anchor = at_s(due_abs);
  bool ok = false;
  try {
    if (r.kind == 0) {
      const auto pgrid = ppa::mpl::CartGrid2D::near_square(2);
      ppa::app::PoissonResult res;
      const auto snap = c.submit(env, 2, [&](Process& p) {
        auto out = ppa::app::poisson_process(p, pgrid, sp.solve[r.pool]);
        if (p.rank() == 0) res = std::move(out);
      }, jo);
      ok = res.iterations == sp.solve_ref[r.pool].iterations &&
           bitwise_equal(res.u, sp.solve_ref[r.pool].u);
      std::lock_guard lock(ledger_mutex);
      ledger.record("solve#" + std::to_string(r.pool), snap);
    } else if (r.kind == 1) {
      Array2D<Complex> out;
      const auto snap = c.submit(env, kWidth, [&](Process& p) {
        auto a = ppa::app::fft2d_body(p, sp.spectrum[r.pool]);
        if (p.rank() == 0) out = std::move(a);
      }, jo);
      ok = bitwise_equal(out, sp.spectrum_ref[r.pool]);
      std::lock_guard lock(ledger_mutex);
      ledger.record("spectrum#" + std::to_string(r.pool), snap);
    } else {
      GraphCall gc;
      gc.pool = r.pool;
      ok = svc.call(gc);
      const double hosted = (gc.solve_end - gc.solve_start) + (gc.fft_end - gc.fft_start);
      const double waits = (gc.solve_start - gc.ingest_out) + (gc.fft_start - gc.interior_out);
      s.plumbing_s = (now_s() - submit) - hosted - waits;
      if (tracer.enabled()) {
        tracer.record("apps.poisson", gc.solve_start, gc.solve_end, c.span, id);
        tracer.record("apps.fft2d", gc.fft_start, gc.fft_end, c.span, id);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s request %llu failed: %s\n", kKindName[r.kind],
                 static_cast<unsigned long long>(id), e.what());
    s.failed = true;
  }
  const double done = now_s();
  tracer.end(c.span);
  s.queue_s = c.queue_s;
  s.run_s = c.run_s;
  s.latency_s = done - due_abs;
  s.due_s = due_abs;
  s.done_s = done;
  if (!s.failed && !ok) {
    s.failed = s.wrong = true;
    std::fprintf(stderr, "perfbench: WRONG RESULT from %s request %llu\n",
                 kKindName[r.kind], static_cast<unsigned long long>(id));
  }
  if (s.latency_s > kLatencyLimitS) s.failed = true;  // expired
  if (s.failed) s.latency_s = std::numeric_limits<double>::infinity();
  return s;
}

std::vector<Served> run_phase(Env& env, GraphService& svc, const ServePools& sp,
                              double rate, std::size_t n, std::uint64_t seed,
                              Ledger& ledger, Tracer& tracer,
                              std::atomic<std::uint64_t>& next_id) {
  const auto reqs = schedule(rate, n, seed);
  std::vector<Served> out(n);
  std::atomic<std::size_t> next{0};
  std::mutex ledger_mutex;
  const double t0 = now_s();
  std::vector<std::thread> gens;
  for (int g = 0; g < kGenerators; ++g) {
    gens.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        const double due = t0 + reqs[i].due;
        sleep_until_s(due);
        out[i] = serve_one(env, svc, sp, reqs[i], due, ledger, ledger_mutex, tracer,
                           next_id++);
      }
    });
  }
  for (auto& t : gens) t.join();
  return out;
}

struct PhaseSummary {
  double p50_ms = 0, tail_ms = 0, tail_level = 0;
  double kind_p50_ms[3] = {0, 0, 0};
  long attempted = 0, failed = 0, wrong = 0;
  Json json = Json::object();
};

PhaseSummary summarize(const std::vector<Served>& v, double rate) {
  PhaseSummary ps;
  std::vector<double> lat, late, queue, run, plumb;
  Json per_kind = Json::object();
  for (int k = 0; k < 3; ++k) {
    std::vector<double> lk;
    for (const auto& s : v) {
      if (s.kind == k) lk.push_back(s.latency_s * 1e3);
    }
    ps.kind_p50_ms[k] = median(lk);
    per_kind.set(kKindName[k], Json::object()
                                   .set("n", static_cast<double>(lk.size()))
                                   .set("p50_ms", ps.kind_p50_ms[k])
                                   .set("tail_ms", tail(lk)));
  }
  for (const auto& s : v) {
    ++ps.attempted;
    if (s.failed) ++ps.failed;
    if (s.wrong) ++ps.wrong;
    lat.push_back(s.latency_s * 1e3);
    late.push_back(s.late_s * 1e3);
    if (s.kind != 2 && !s.failed) {
      queue.push_back(s.queue_s * 1e3);
      run.push_back(s.run_s * 1e3);
    }
    if (s.plumbing_s >= 0 && !s.failed) plumb.push_back(s.plumbing_s * 1e3);
  }
  // The phase is a run of consecutive windows of kWindow requests (the
  // last window absorbs the remainder); each window gives its p50 and p99,
  // and the phase reports their medians, so one host stall moves a single
  // window rather than the run's figure.
  std::vector<double> w50, wtail;
  const std::size_t nwin = std::max<std::size_t>(1, lat.size() / kWindow);
  for (std::size_t w = 0; w < nwin; ++w) {
    const auto b = lat.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const auto e = w + 1 == nwin ? lat.end() : b + static_cast<std::ptrdiff_t>(kWindow);
    const std::vector<double> win(b, e);
    w50.push_back(median(win));
    wtail.push_back(tail(win, &ps.tail_level));
  }
  ps.p50_ms = median(w50);
  ps.tail_ms = median(wtail);
  ps.json.set("windows", static_cast<double>(nwin))
      .set("whole_phase_p50_ms", median(lat))
      .set("whole_phase_tail_ms", tail(lat));
  double first_due = 0, last_done = 0;
  if (!v.empty()) {
    first_due = v.front().due_s;
    for (const auto& s : v) last_done = std::max(last_done, s.done_s);
  }
  ps.json.set("rate_per_s", rate)
      .set("completed_per_s",
           last_done > first_due ? static_cast<double>(v.size()) / (last_done - first_due) : 0.0)
      .set("requests", ps.attempted)
      .set("failed", ps.failed)
      .set("latency_p50_ms", ps.p50_ms)
      .set("latency_tail_ms", ps.tail_ms)
      .set("latency_tail_percentile", ps.tail_level)
      .set("generator_late_p50_ms", median(late))
      .set("generator_late_tail_ms", tail(late))
      .set("generator_late_max_ms", quantile(late, 1.0))
      .set("queue_wait_p50_ms", median(queue))
      .set("queue_wait_tail_ms", tail(queue))
      .set("run_p50_ms", median(run))
      .set("run_tail_ms", tail(run))
      .set("graph_plumbing_p50_ms", median(plumb))
      .set("per_kind", std::move(per_kind));
  return ps;
}

std::size_t phase_requests(double rate, double seconds) {
  return std::max(kMinRequests, static_cast<std::size_t>(rate * seconds));
}

}  // namespace

Outcome run_serve_stream(const Options& opt) {
  Outcome out;
  const double t_ref0 = now_s();
  const ServePools sp = make_serve_pools(opt.seed);
  std::fprintf(stderr, "perfbench: serve_stream references in %.2f s\n", now_s() - t_ref0);

  Ledger ledger;
  std::mutex ledger_mutex;
  Tracer tracer(false);
  std::atomic<std::uint64_t> next_id{1};

  // Set-up: engine, scheduler and graph service, plus the first request of
  // each kind; median of several repetitions.
  std::unique_ptr<GraphService> svc;
  std::unique_ptr<Env> env;
  std::vector<double> setups;
  constexpr int kSetupReps = 9;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    env.reset();
    const double t0 = now_s();
    env = std::make_unique<Env>();
    svc = std::make_unique<GraphService>(*env, sp);
    for (int k = 0; k < 3; ++k) {
      const Request r{now_s(), k, 0};
      const auto s = serve_one(*env, *svc, sp, r, r.due, ledger, ledger_mutex, tracer,
                               next_id++);
      ++out.attempted;
      if (s.failed) ++out.failed;
      if (s.wrong) out.correct = false;
    }
    setups.push_back(now_s() - t0);
  }
  const double setup_s = median(setups);

  auto account = [&](const PhaseSummary& ps) {
    out.attempted += ps.attempted;
    out.failed += ps.failed;
    if (ps.wrong > 0) out.correct = false;
  };

  // Each phase lasts about half of the run (at least kMinRequests requests).
  const double half = opt.seconds / 2;
  out.record.set("loop", "open, seeded exponential arrivals, " +
                             std::to_string(kGenerators) + " generator threads");
  out.record.set("rates_per_s", Json::array().push(kNominalRate).push(kHighRate));
  out.record.set("latency_limit_s", kLatencyLimitS);
  out.record.set("mix", Json::object().set("solve", kMix[0]).set("spectrum", kMix[1]).set("graph", kMix[2]));

  if (!opt.trace) {
    const auto nominal = summarize(
        run_phase(*env, *svc, sp, kNominalRate, phase_requests(kNominalRate, half),
                  opt.seed * 2 + 1, ledger, tracer, next_id),
        kNominalRate);
    const auto high = summarize(
        run_phase(*env, *svc, sp, kHighRate, phase_requests(kHighRate, half),
                  opt.seed * 2 + 2, ledger, tracer, next_id),
        kHighRate);
    account(nominal);
    account(high);
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
    out.metrics.add("op1_ms", nominal.p50_ms, "ms");
    out.metrics.add("op2_ms", high.p50_ms, "ms");
    out.metrics.add("op3_ms", nominal.kind_p50_ms[2], "ms");
    out.metrics.add("op4_ms", nominal.kind_p50_ms[1], "ms");
    auto named = [](double v) { return Json::object().set("value", v).set("unit", "ms"); };
    out.record.set("named_metrics",
                   Json::object()
                       .set("lat_p50_ms", named(nominal.p50_ms))
                       .set("lat_p50_ms_high", named(high.p50_ms))
                       .set("lat_p50_ms_graph", named(nominal.kind_p50_ms[2]))
                       .set("lat_p50_ms_spectrum", named(nominal.kind_p50_ms[1]))
                       .set("lat_tail_ms (ungated)", named(nominal.tail_ms))
                       .set("lat_tail_ms_high (ungated)", named(high.tail_ms)));
    out.record.set("phases", Json::object().set("nominal", nominal.json).set("high", high.json));
  } else {
    const auto n = phase_requests(kNominalRate, half / 2);
    const auto plain_v = run_phase(*env, *svc, sp, kNominalRate, n, opt.seed * 2 + 1,
                                   ledger, tracer, next_id);
    tracer.set_enabled(true);
    const Usage u0 = usage_now();
    const auto traced_v = run_phase(*env, *svc, sp, kNominalRate, n, opt.seed * 2 + 1,
                                    ledger, tracer, next_id);
    const Usage u1 = usage_now();
    const auto plain = summarize(plain_v, kNominalRate);
    const auto traced = summarize(traced_v, kNominalRate);
    account(plain);
    account(traced);

    Json probe_detail = Json::object();
    const LayerProbes lp = run_probes(*env, opt.seed, tracer, probe_detail);
    add_probe_metrics(lp, out.metrics);

    std::vector<double> queue, run, late;
    double lat_sum = 0, explained = 0;
    for (const auto& s : traced_v) {
      late.push_back(s.late_s);
      if (s.kind == 2 || s.failed) continue;
      queue.push_back(s.queue_s);
      run.push_back(s.run_s);
      lat_sum += s.latency_s;
      explained += s.queue_s + s.run_s;
    }
    double messages = 0, copied = 0;
    for (const char* k : {"solve#0", "spectrum#0"}) {
      if (const auto* t = ledger.get(k)) {
        messages += static_cast<double>(t->messages);
        copied += static_cast<double>(t->copied_bytes);
      }
    }
    const auto ss = env->sched->stats();
    out.metrics.add("wl.residual_frac", lat_sum > 0 ? 1.0 - explained / lat_sum : 0.0,
                    "fraction");
    out.metrics.add("wl.trace_overhead_frac", traced.p50_ms / plain.p50_ms - 1.0, "fraction");
    out.metrics.add("load.generator_late_ms", tail(late) * 1e3, "ms");
    out.metrics.add("mpl.scheduler.queue_wait_p50_ms", median(queue) * 1e3, "ms");
    out.metrics.add("mpl.scheduler.queue_wait_tail_ms", tail(queue) * 1e3, "ms");
    out.metrics.add("mpl.scheduler.run_p50_ms", median(run) * 1e3, "ms");
    out.metrics.add("mpl.scheduler.run_tail_ms", tail(run) * 1e3, "ms");
    out.metrics.add("mpl.scheduler.queue_high_water",
                    static_cast<double>(ss.queue_high_water), "count");
    out.metrics.add("mpl.scheduler.concurrency_high_water",
                    static_cast<double>(ss.concurrency_high_water), "count");
    out.metrics.add("mpl.trace.messages_per_round", messages, "count");
    out.metrics.add("mpl.trace.copied_bytes_per_round", copied, "B");
    // Faults are not separable per request under concurrency: process-wide
    // minor faults of the traced phase per request.
    out.metrics.add("mpl.payload.minor_faults_per_round",
                    static_cast<double>(u1.minor_faults - u0.minor_faults) /
                        static_cast<double>(n),
                    "count");

    out.record.set("phases", Json::object().set("nominal_untraced", plain.json).set("nominal_traced", traced.json));
    out.record.set("tracing_overhead_frac", traced.p50_ms / plain.p50_ms - 1.0);
    out.record.set("probes", std::move(probe_detail));
    out.record.set("model", model_json(lp, {}));
    write_spans(opt, tracer, out.record);
  }
  out.record.set("ledger", ledger.to_json());
  out.record.set("ledger_defects", ledger.defects());
  out.record.set("setup_s", setup_s);
  svc.reset();
  return out;
}

}  // namespace pb
