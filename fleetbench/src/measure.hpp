// Measurement primitives shared by every fleetbench workload: wall-clock
// timing, exact percentiles from stored samples, process resource usage,
// the in-memory span tracer and the result record each run prints.
#ifndef FLEETBENCH_MEASURE_HPP
#define FLEETBENCH_MEASURE_HPP

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Exact quantile of stored samples: linear interpolation between order
/// statistics (the "type 7" estimator; q=0.5 of {1,2,3,4} is 2.5).
/// Returns 0 on an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Median of a sample (quantile 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// The highest of the standard tail percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least ten samples beyond it in a sample of size n, as a
/// fraction; 0.5 when even the median is unsupported.
[[nodiscard]] double supported_tail(std::size_t n);

/// A named percentile summary of one latency sample: the median and the
/// highest supported tail, each with the sample count they rest on.
struct Percentiles {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  ///< the tail quantile actually reported
  double tail = 0.0;
  /// "p50=1.23 p99=4.56 (n=1408)" in the given unit.
  [[nodiscard]] std::string describe(const std::string& unit) const;
};
[[nodiscard]] Percentiles summarize(const std::vector<double>& samples);

/// Robust percentiles of a long sample: split it, in recorded order, into
/// blocks of `block` samples (a short remainder joins the last block),
/// summarize each block and take the median over blocks of the median and
/// of the tail.  A stall of the host then moves one block, not the figure.
/// `n` is the total sample count and tail_q the per-block tail quantile.
[[nodiscard]] Percentiles block_summarize(const std::vector<double>& samples,
                                          std::size_t block);

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long invol_csw = 0;
  long minflt = 0;
};
[[nodiscard]] Usage usage_now();

/// Cumulative CPU ticks of the whole host (/proc/stat): steal time, which
/// the hypervisor gave to other guests, and the total.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] HostTicks host_ticks();
/// Share of the host's CPU time stolen between two readings.
[[nodiscard]] inline double steal_share(const HostTicks& a, const HostTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

/// Resident set size in MiB of a process (0 = this process), from
/// /proc/<pid>/status: VmRSS when `high_water` is false, VmHWM otherwise.
[[nodiscard]] double rss_mb(pid_t pid, bool high_water);

/// One recorded span: which layer call, which session window it served
/// (spans of one window share the id), wall interval and causing span.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;  ///< index into the tracer's spans, -1 = root
  std::uint64_t window = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded in-memory span recorder.  Spans are appended as they
/// open, closed in LIFO order and only written out by write_csv() when
/// the run ends.  A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int32_t open(const char* name, std::uint64_t window);
  void close(std::int32_t index);

  /// Per span name: total duration minus the time its child spans cover
  /// (self time), and how many spans had that name.
  struct SelfTime {
    double self_ns = 0.0;
    double total_ns = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  void write_csv(const std::string& path) const;

 private:
  std::uint16_t intern(const char* name);

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t window = 0)
      : t_(t), index_(t.enabled() ? t.open(name, window) : -1) {}
  ~Scope() {
    if (index_ >= 0) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t index_;
};

/// One reported figure.  Gated metrics go to the final JSON line, which
/// the regression check reads; informational ones are printed by name and
/// unit above it only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool gated = true;
};

/// What one run reports; `details` are printed above the JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> details;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void detail(const std::string& line) { details.push_back(line); }
};

}  // namespace fleetbench

#endif  // FLEETBENCH_MEASURE_HPP
