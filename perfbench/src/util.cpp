#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace pb {

namespace {
const Clock::time_point kOrigin = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

Clock::time_point at_s(double t) {
  return kOrigin +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
}

void sleep_until_s(double t) { std::this_thread::sleep_until(at_s(t)); }

void warm_cpus() {
  constexpr double kWarmSeconds = 1.0;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const double until = now_s() + kWarmSeconds;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([until] {
      volatile double sink = 0.0;
      while (now_s() < until) {
        for (int k = 0; k < 1000; ++k) sink = sink + 1.0;
      }
    });
  }
  for (auto& t : threads) t.join();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Failed requests enter as +infinity; never interpolate into a NaN.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail(std::vector<double> v, double* level) {
  if (v.empty()) {
    if (level) *level = 0.0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // p99 once it has ten samples beyond it (n >= 1000); below that, the
  // index with ten samples beyond it, never below the median.
  const std::size_t med = n / 2;
  const std::size_t idx = n >= 1000 ? (n * 99 + 99) / 100 - 1
                                    : (n > 11 ? std::max(n - 11, med) : med);
  if (level) *level = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Usage{ru.ru_minflt, static_cast<double>(ru.ru_maxrss) / 1024.0};
}

// ------------------------------------------------------------------ JSON --

Json::Json(double v) : kind_(Kind::kNumber), num_(v) {}
Json::Json(bool v) : kind_(Kind::kBool), bool_(v) {}
Json::Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

std::string Json::dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kString:
      return quote(str_);
    case Kind::kNumber: {
      if (!std::isfinite(num_)) return "null";
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", num_);
      return buf;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ", ";
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ", ";
        out += quote(members_[i].first) + ": " + members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

// ------------------------------------------------------------- metrics --

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

Json MetricSet::to_json() const {
  Json out = Json::object();
  for (const auto& m : metrics_) {
    out.set(m.name, Json::object().set("value", m.value).set("unit", m.unit));
  }
  return out;
}

// --------------------------------------------------------------- tracing --

int Tracer::begin(const std::string& name, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const double t = now_s();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, t, t, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

int Tracer::record(const std::string& name, double t0, double t1, int parent,
                   std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard lock(mutex_);
  spans_.push_back({name, t0, t1, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double dur = s.t1 - s.t0;
    // Union of the children's intervals, clipped to the parent (children
    // of a parallel job overlap one another).
    std::vector<std::pair<double, double>> iv;
    for (const auto c : children[i]) {
      iv.emplace_back(std::max(spans_[c].t0, s.t0), std::min(spans_[c].t1, s.t1));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur0 = 0.0, cur1 = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = a;
        cur1 = b;
      } else {
        cur1 = std::max(cur1, b);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    auto& t = out[s.name];
    ++t.count;
    t.total_s += dur;
    t.self_s += std::max(0.0, dur - covered);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << Json::object()
               .set("id", static_cast<double>(i))
               .set("name", s.name)
               .set("start_s", s.t0)
               .set("end_s", s.t1)
               .set("parent", s.parent)
               .set("request", static_cast<double>(s.request))
               .dump()
        << '\n';
  }
}

// -------------------------------------------------- communication ledger --

using ppa::mpl::TraceSnapshot;

Json trace_json(const TraceSnapshot& t) {
  Json ops = Json::object();
  for (int o = 0; o < ppa::mpl::kOpCount; ++o) {
    const auto op = static_cast<ppa::mpl::Op>(o);
    if (t.op(op) != 0) ops.set(ppa::mpl::op_name(op), t.op(op));
  }
  return Json::object()
      .set("messages", t.messages)
      .set("bytes", t.bytes)
      .set("copies", t.copies)
      .set("copied_bytes", t.copied_bytes)
      .set("max_sent_by_any_rank", t.max_sent_by_any_rank())
      .set("ops", std::move(ops));
}

bool same_counts(const TraceSnapshot& a, const TraceSnapshot& b) {
  return a.messages == b.messages && a.bytes == b.bytes && a.copies == b.copies &&
         a.copied_bytes == b.copied_bytes && a.ops == b.ops &&
         a.max_sent_by_any_rank() == b.max_sent_by_any_rank();
}

TraceSnapshot add_traces(const TraceSnapshot& a, const TraceSnapshot& b) {
  TraceSnapshot s = a;
  s.messages += b.messages;
  s.bytes += b.bytes;
  s.copies += b.copies;
  s.copied_bytes += b.copied_bytes;
  for (std::size_t i = 0; i < s.ops.size(); ++i) s.ops[i] += b.ops[i];
  if (s.sent_bytes_by_rank.size() < b.sent_bytes_by_rank.size()) {
    s.sent_bytes_by_rank.resize(b.sent_bytes_by_rank.size(), 0);
  }
  for (std::size_t i = 0; i < b.sent_bytes_by_rank.size(); ++i) {
    s.sent_bytes_by_rank[i] += b.sent_bytes_by_rank[i];
  }
  return s;
}

void Ledger::record(const std::string& kind, const TraceSnapshot& t) {
  for (const auto& [k, first] : kinds_) {
    if (k != kind) continue;
    if (!same_counts(first, t)) {
      ++defects_;
      std::fprintf(stderr, "perfbench: LEDGER DEFECT: %s moved %llu messages / %llu "
                           "bytes, first run of the kind moved %llu / %llu\n",
                   kind.c_str(), static_cast<unsigned long long>(t.messages),
                   static_cast<unsigned long long>(t.bytes),
                   static_cast<unsigned long long>(first.messages),
                   static_cast<unsigned long long>(first.bytes));
    }
    return;
  }
  kinds_.emplace_back(kind, t);
}

const TraceSnapshot* Ledger::get(const std::string& kind) const {
  for (const auto& [k, t] : kinds_) {
    if (k == kind) return &t;
  }
  return nullptr;
}

Json Ledger::to_json() const {
  Json out = Json::object();
  for (const auto& [k, t] : kinds_) out.set(k, trace_json(t));
  return out;
}

// ------------------------------------------------------------ host facts --

std::size_t llc_bytes() {
  // glibc answers these from CPUID; no file outside the checkout is read.
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

}  // namespace pb
