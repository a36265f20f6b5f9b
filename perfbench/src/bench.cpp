#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <exception>

namespace pb {

using ppa::mpl::Process;
using ppa::mpl::TraceSnapshot;

Env::Env()
    : engine(std::make_shared<ppa::mpl::Engine>(kWidth)),
      sched(std::make_unique<ppa::mpl::Scheduler>(engine)) {}

TraceSnapshot OpCtx::submit(Env& env, int np,
                            const std::function<void(Process&)>& body,
                            const ppa::mpl::JobOptions& options) {
  submit_s = now_s();
  start_s = end_s = submit_s;
  const auto snap = env.sched->run_job(
      np,
      [&](Process& p) {
        if (p.rank() == 0) start_s = now_s();
        body(p);
        if (p.rank() == 0) end_s = now_s();
      },
      ppa::mpl::Priority::kNormal, options);
  const double ret = now_s();
  queue_s += start_s - submit_s;
  run_s += end_s - start_s;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->record("mpl.scheduler.queue", submit_s, start_s, span, request);
    tracer->record("mpl.engine.job", start_s, end_s, span, request);
    tracer->record("mpl.engine.return", end_s, ret, span, request);
  }
  return snap;
}

namespace {

struct KindStats {
  std::vector<double> seconds;
  std::vector<double> faults;  ///< minor page faults during the op
  std::vector<double> rss_mb;  ///< peak resident set after the op
  std::vector<double> queue_s;
  std::vector<double> run_s;
  long attempted = 0;
  long failed = 0;
  long wrong = 0;
};

/// One closed-loop run: a single client issues the kinds round-robin,
/// back to back, in whole rounds, until `seconds` have passed (and at least
/// `min_rounds` rounds ran).
struct LoopStats {
  std::vector<KindStats> kinds;
  std::vector<double> gaps_s;  ///< client time between one op and the next
  int rounds = 0;
};

/// Run one operation, timing it and taking resource usage around it.
void run_op(Env& env, OpKind& kind, KindStats& st, Ledger& ledger, Tracer& tracer,
            std::uint64_t request) {
  OpCtx ctx;
  ctx.tracer = &tracer;
  ctx.request = request;
  ctx.span = tracer.begin("op." + kind.name, -1, request);
  const Usage u0 = usage_now();
  const double t0 = now_s();
  bool threw = false;
  TraceSnapshot snap;
  try {
    snap = kind.run(env, ctx);
  } catch (const std::exception& e) {
    threw = true;
    std::fprintf(stderr, "perfbench: %s threw: %s\n", kind.name.c_str(), e.what());
  }
  const double t1 = now_s();
  const Usage u1 = usage_now();
  tracer.end(ctx.span);
  ++st.attempted;
  if (threw || !ctx.ok) {
    ++st.failed;
    if (!threw) {
      ++st.wrong;
      std::fprintf(stderr, "perfbench: WRONG RESULT from %s (request %llu)\n",
                   kind.name.c_str(), static_cast<unsigned long long>(request));
    }
    return;
  }
  st.seconds.push_back(t1 - t0);
  st.faults.push_back(static_cast<double>(u1.minor_faults - u0.minor_faults));
  st.rss_mb.push_back(u1.max_rss_mb);
  st.queue_s.push_back(ctx.queue_s);
  st.run_s.push_back(ctx.run_s);
  ledger.record(kind.name, snap);
}

LoopStats closed_loop(Env& env, std::vector<OpKind>& kinds, double seconds,
                      int min_rounds, Ledger& ledger, Tracer& tracer,
                      std::atomic<std::uint64_t>& next_request) {
  LoopStats ls;
  ls.kinds.resize(kinds.size());
  const double t_end = now_s() + seconds;
  double last_done = -1.0;
  while (ls.rounds < min_rounds || now_s() < t_end) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const double t = now_s();
      if (last_done >= 0.0) ls.gaps_s.push_back(t - last_done);
      run_op(env, kinds[k], ls.kinds[k], ledger, tracer, next_request++);
      last_done = now_s();
    }
    ++ls.rounds;
  }
  return ls;
}

/// Set-up time: `reps` times, construct a fresh engine and scheduler and
/// run the first (cold) operation of every kind; returns the median total
/// and keeps the last environment (warm) in `keep`.
double measure_setup(std::vector<OpKind>& kinds, int reps, Ledger& ledger,
                     std::vector<KindStats>& cold, Tracer& tracer,
                     std::atomic<std::uint64_t>& next_request,
                     std::unique_ptr<Env>& keep) {
  cold.assign(kinds.size(), {});
  std::vector<double> totals;
  for (int r = 0; r < reps; ++r) {
    keep.reset();  // the previous environment is torn down outside the timing
    const double t0 = now_s();
    keep = std::make_unique<Env>();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      run_op(*keep, kinds[k], cold[k], ledger, tracer, next_request++);
    }
    totals.push_back(now_s() - t0);
  }
  return median(totals);
}

Json dist_json(const std::vector<double>& v, double scale, const std::string& unit) {
  double level = 0.0;
  std::vector<double> s(v);
  for (auto& x : s) x *= scale;
  const double t = tail(s, &level);
  return Json::object()
      .set("unit", unit)
      .set("n", static_cast<double>(v.size()))
      .set("p25", quantile(s, 0.25))
      .set("median", median(s))
      .set("p75", quantile(s, 0.75))
      .set("tail", t)
      .set("tail_percentile", level);
}

}  // namespace

void write_spans(const Options& opt, const Tracer& tracer, Json& record) {
  Json self = Json::object();
  for (const auto& [name, t] : tracer.totals()) {
    self.set(name, Json::object()
                       .set("count", static_cast<double>(t.count))
                       .set("total_s", t.total_s)
                       .set("self_s", t.self_s));
  }
  const std::string path = opt.out_dir + "/spans_" + opt.workload + ".jsonl";
  record.set("span_self_time", std::move(self));
  record.set("spans_file", path);
  tracer.write(path);
}

Outcome run_closed_workload(
    const Options& opt, std::vector<OpKind>& kinds,
    const std::function<std::vector<double>(const LayerProbes&)>& explain) {
  Outcome out;
  Ledger ledger;
  Tracer tracer(false);
  std::atomic<std::uint64_t> next_request{1};
  std::vector<KindStats> cold;
  std::unique_ptr<Env> env;

  constexpr int kSetupReps = 3;
  const double setup_s =
      measure_setup(kinds, kSetupReps, ledger, cold, tracer, next_request, env);
  for (const auto& c : cold) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    if (c.wrong > 0) out.correct = false;
  }

  auto account = [&](const LoopStats& ls) {
    for (const auto& k : ls.kinds) {
      out.attempted += k.attempted;
      out.failed += k.failed;
      if (k.wrong > 0) out.correct = false;
    }
  };
  auto medians = [&](const LoopStats& ls) {
    std::vector<double> m;
    for (const auto& k : ls.kinds) m.push_back(median(k.seconds));
    return m;
  };

  Json kinds_json = Json::object();
  auto describe = [&](const LoopStats& ls) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& st = ls.kinds[k];
      kinds_json.set(kinds[k].name,
                     Json::object()
                         .set("slot", "op" + std::to_string(k + 1) + "_ms")
                         .set("what", kinds[k].what)
                         .set("seconds", dist_json(st.seconds, 1.0, "s"))
                         .set("minor_faults", dist_json(st.faults, 1.0, "count"))
                         .set("peak_rss_after", dist_json(st.rss_mb, 1.0, "MB"))
                         .set("queue_wait", dist_json(st.queue_s, 1e3, "ms"))
                         .set("run", dist_json(st.run_s, 1e3, "ms"))
                         .set("attempted", st.attempted)
                         .set("failed", st.failed));
    }
  };

  out.record.set("loop", "closed, one client, kinds issued round-robin back to back");
  out.record.set("setup_reps", kSetupReps);

  if (!opt.trace) {
    const LoopStats ls =
        closed_loop(*env, kinds, opt.seconds, 3, ledger, tracer, next_request);
    account(ls);
    describe(ls);
    const auto med = medians(ls);
    out.metrics.add("setup_s", setup_s, "s");
    out.metrics.add("peak_rss_mb", usage_now().max_rss_mb, "MB");
    for (std::size_t k = 0; k < 4; ++k) {
      out.metrics.add("op" + std::to_string(k + 1) + "_ms",
                      k < med.size() ? med[k] * 1e3 : 0.0, "ms");
    }
    Json named = Json::object();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      named.set(kinds[k].name, Json::object().set("value", med[k]).set("unit", "s"));
    }
    out.record.set("named_metrics", std::move(named));
    out.record.set("rounds", ls.rounds);
  } else {
    // Untraced and traced halves of the same loop: their ratio is the
    // tracing overhead; the traced half's spans attribute the time.
    const LoopStats plain =
        closed_loop(*env, kinds, opt.seconds / 2, 2, ledger, tracer, next_request);
    tracer.set_enabled(true);
    const LoopStats traced =
        closed_loop(*env, kinds, opt.seconds / 2, 2, ledger, tracer, next_request);
    account(plain);
    account(traced);
    describe(traced);
    const auto mp = medians(plain);
    const auto mt = medians(traced);
    double overhead = 0.0;
    for (std::size_t k = 0; k < mp.size(); ++k) overhead += mt[k] / mp[k] - 1.0;
    overhead /= static_cast<double>(mp.size());

    Json probe_detail = Json::object();
    const LayerProbes lp = run_probes(*env, opt.seed, tracer, probe_detail);
    add_probe_metrics(lp, out.metrics);

    const auto explained = explain(lp);
    double sum_meas = 0.0, sum_expl = 0.0;
    for (std::size_t k = 0; k < mp.size(); ++k) {
      if (explained[k] < 0.0) continue;
      sum_meas += mp[k];
      sum_expl += explained[k];
    }
    const double residual = sum_meas > 0.0 ? 1.0 - sum_expl / sum_meas : 0.0;

    std::vector<double> queue, run, gaps = traced.gaps_s;
    double messages = 0, copied = 0, faults = 0;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& st = traced.kinds[k];
      queue.insert(queue.end(), st.queue_s.begin(), st.queue_s.end());
      run.insert(run.end(), st.run_s.begin(), st.run_s.end());
      faults += median(st.faults);
      if (const auto* t = ledger.get(kinds[k].name)) {
        messages += static_cast<double>(t->messages);
        copied += static_cast<double>(t->copied_bytes);
      }
    }
    const auto ss = env->sched->stats();
    out.metrics.add("wl.residual_frac", residual, "fraction");
    out.metrics.add("wl.trace_overhead_frac", overhead, "fraction");
    out.metrics.add("load.generator_late_ms", median(gaps) * 1e3, "ms");
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
    out.metrics.add("mpl.payload.minor_faults_per_round", faults, "count");

    std::vector<std::pair<std::string, double>> measured;
    for (std::size_t k = 0; k < kinds.size(); ++k) measured.emplace_back(kinds[k].name, mp[k]);
    Json expl = Json::object();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      expl.set(kinds[k].name, Json::object()
                                  .set("measured_s", mp[k])
                                  .set("explained_by_layers_s", explained[k]));
    }
    out.record.set("residual", std::move(expl));
    out.record.set("tracing_overhead_frac", overhead);
    out.record.set("probes", std::move(probe_detail));
    out.record.set("model", model_json(lp, measured));
    write_spans(opt, tracer, out.record);
  }
  out.record.set("kinds", std::move(kinds_json));
  out.record.set("ledger", ledger.to_json());
  out.record.set("ledger_defects", ledger.defects());
  out.record.set("setup_s", setup_s);
  return out;
}

}  // namespace pb
