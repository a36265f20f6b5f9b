// perfbench/src/util.hpp
//
// Shared scaffolding of the repository benchmark: clocks and order
// statistics, per-call resource usage, a minimal JSON writer, the span
// recorder used by traced runs, and the communication ledger that checks
// that every operation of one kind moves exactly the same messages.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mpl/trace.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double now_s();
/// Sleep until `t` (seconds on the now_s() clock).
void sleep_until_s(double t);
/// The steady-clock instant of `t` on the now_s() clock.
Clock::time_point at_s(double t);

/// Keep every hardware thread busy for a moment before measuring: on a
/// virtual machine whose idle vCPUs are parked, the first second of a run
/// otherwise executes on fewer cores than the rest.
void warm_cpus();

// ------------------------------------------------------------ statistics --

/// Order statistic by linear interpolation, q in [0, 1].
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Tail latency: p99 from 1000 samples on (at least ten samples beyond
/// it); with fewer, the highest percentile that keeps ten samples beyond
/// it, never below the median. `level` receives the percentile in [0, 100].
double tail(std::vector<double> v, double* level = nullptr);

// -------------------------------------------------------- resource usage --

struct Usage {
  long minor_faults = 0;  ///< process-wide (all rank threads)
  double max_rss_mb = 0.0;
};
Usage usage_now();

// ------------------------------------------------------------------ JSON --

/// A small ordered JSON value: enough to write records and result lines.
class Json {
 public:
  Json() = default;  // null
  Json(double v);    // NOLINT(google-explicit-constructor)
  Json(int v) : Json(static_cast<double>(v)) {}          // NOLINT
  Json(long v) : Json(static_cast<double>(v)) {}         // NOLINT
  Json(long long v) : Json(static_cast<double>(v)) {}    // NOLINT
  Json(unsigned long v) : Json(static_cast<double>(v)) {}       // NOLINT
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(bool v);                // NOLINT
  Json(std::string v);         // NOLINT
  Json(const char* v) : Json(std::string(v)) {}  // NOLINT

  static Json object();
  static Json array();

  /// Object member (insertion order kept; a repeated key overwrites).
  Json& set(const std::string& key, Json value);
  /// Array element.
  Json& push(Json value);

  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind { kNull, kNumber, kBool, kString, kObject, kArray };
  Kind kind_ = Kind::kNull;
  double num_ = 0.0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics keyed by name, in insertion order.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<Metric> metrics_;
};

// --------------------------------------------------------------- tracing --

/// One recorded span: a named interval, the span that caused it (-1 at a
/// root) and the request every span of one operation shares.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder; thread-safe. Disabled recorders cost one
/// branch per call and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span now; returns its id (or -1 when disabled).
  int begin(const std::string& name, int parent, std::uint64_t request);
  void end(int id);
  /// Record an already-measured interval.
  int record(const std::string& name, double t0, double t1, int parent,
             std::uint64_t request);

  /// Per span name: {count, total seconds, self seconds}; self time is the
  /// span's duration minus the union of its children's intervals.
  struct NameTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;
  /// Write every span as one JSON line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span helper.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent,
             std::uint64_t request)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// -------------------------------------------------- communication ledger --

Json trace_json(const ppa::mpl::TraceSnapshot& t);
bool same_counts(const ppa::mpl::TraceSnapshot& a, const ppa::mpl::TraceSnapshot& b);
ppa::mpl::TraceSnapshot add_traces(const ppa::mpl::TraceSnapshot& a,
                                   const ppa::mpl::TraceSnapshot& b);

/// Exact communication counts per operation kind: the first operation of a
/// kind fixes its ledger; any later one that differs is a defect (counted
/// and reported, never averaged).
class Ledger {
 public:
  void record(const std::string& kind, const ppa::mpl::TraceSnapshot& t);
  [[nodiscard]] int defects() const { return defects_; }
  [[nodiscard]] const ppa::mpl::TraceSnapshot* get(const std::string& kind) const;
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<std::pair<std::string, ppa::mpl::TraceSnapshot>> kinds_;
  int defects_ = 0;
};

// ------------------------------------------------------------ host facts --

/// Reported last-level cache size in bytes, 0 when unknown.
std::size_t llc_bytes();
/// CPU brand string, "unknown" when the CPU does not report one.
std::string cpu_model();
std::string host_name();

}  // namespace pb
