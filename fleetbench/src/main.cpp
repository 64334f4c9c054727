// fleetbench — the fleet benchmark's measuring program.
//
//   fleetbench --workload saturate|paced-wire --seed N --seconds S
//              --trace 0|1 [--daemon path/to/fleet_daemon] [--work-dir D]
//   fleetbench --selftest
//
// Prints a few human-readable lines, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ledger.  Exits nonzero when a verdict disagrees with the oracle.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "dsp/simd/simd.hpp"
#include "engine/sharded_fleet.hpp"
#include "oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fleetbench {
namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Report& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : r.metrics) {
    if (!m.gated) continue;
    out << sep << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int fail(const std::string& what) {
  std::cerr << "selftest FAILED: " << what << "\n";
  return 1;
}

/// Seconds-long checks of the benchmark's own machinery at tiny scale.
int selftest() {
  // Percentiles are exact on a known sample.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  if (std::abs(quantile(hundred, 0.99) - 99.01) > 1e-9 ||
      quantile({4, 1, 3, 2}, 0.5) != 2.5 || quantile({7}, 0.99) != 7.0 ||
      supported_tail(1000) != 0.99 || supported_tail(999) != 0.95 ||
      supported_tail(10000) != 0.999 || supported_tail(5) != 0.5) {
    return fail("percentile helper");
  }
  // Same seed, byte-identical inputs; another seed, different inputs.
  const Inputs a = compact_inputs(7, 2, 8, 512);
  const Inputs b = compact_inputs(7, 2, 8, 512);
  const Inputs c = compact_inputs(8, 2, 8, 512);
  if (a.digest() != b.digest() || a.digest() == c.digest()) {
    return fail("input determinism");
  }
  const Calibration cal = calibrate(a);
  const Calibration cal_b = calibrate(b);
  // The fleet agrees with the oracle; the oracle agrees with itself.
  nsync::engine::ShardedFleetOptions opts;
  opts.shards = 2;
  nsync::engine::ShardedFleet fleet(opts);
  for (std::size_t p = 0; p < a.prints.size(); ++p) {
    (void)fleet.add_session(make_spec(a, cal, p, "st-" + std::to_string(p)));
    for (std::size_t ch = 0; ch < a.prints[p].streams.size(); ++ch) {
      (void)fleet.feed(p, a.jobs[a.prints[p].job].channels[ch].name,
                       nsync::signal::SignalView(a.prints[p].streams[ch]));
    }
  }
  fleet.flush();
  bool saw_intrusion = false;
  for (std::size_t p = 0; p < a.prints.size(); ++p) {
    const Verdict f = verdict_of(fleet.snapshot(p));
    const Verdict o = replay(a, p, cal[a.prints[p].job]);
    const Verdict o2 = replay(b, p, cal_b[b.prints[p].job]);
    if (!compare(f, o).empty()) return fail("fleet vs oracle: " + compare(f, o));
    if (!compare(o2, o).empty()) return fail("oracle determinism");
    saw_intrusion = saw_intrusion || o.intrusion;
    // An injected flip is caught, on the fused and the channel verdict.
    Verdict flipped = f;
    flipped.intrusion = !flipped.intrusion;
    if (compare(flipped, o).empty()) return fail("oracle missed a fused flip");
    flipped = f;
    flipped.channels[0].alarm = !flipped.channels[0].alarm;
    if (compare(flipped, o).empty()) return fail("oracle missed a channel flip");
  }
  if (!saw_intrusion) return fail("no attacked print latched");
  // The span tracer's self time excludes children.
  Tracer t(true);
  {
    const Scope outer(t, "outer");
    { const Scope inner(t, "inner"); std::this_thread::sleep_for(std::chrono::milliseconds(2)); }
  }
  const auto st = t.self_times();
  if (st.at("outer").self_ns >= st.at("outer").total_ns ||
      st.at("inner").self_ns != st.at("inner").total_ns) {
    return fail("span self time");
  }
  std::cout << "selftest: ok (" << a.prints.size() << " prints, digest "
            << a.digest() << ")\n";
  return 0;
}

int usage() {
  std::cerr << "usage: fleetbench --workload saturate|paced-wire --seed N"
               " --seconds S --trace 0|1 [--daemon PATH] [--work-dir DIR]\n"
               "       fleetbench --selftest\n";
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  RunContext ctx;
  bool self = false;
  bool have_seed = false;
  ctx.work_dir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        ctx.workload = next();
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(next());
      } else if (arg == "--trace") {
        ctx.trace = next() == "1";
      } else if (arg == "--daemon") {
        ctx.daemon_path = next();
      } else if (arg == "--work-dir") {
        ctx.work_dir = next();
      } else if (arg == "--selftest") {
        self = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (self) return selftest();
  if (!have_seed || !(ctx.seconds > 0.0) ||
      (ctx.workload != "saturate" && ctx.workload != "paced-wire")) {
    return usage();
  }
  ctx.work_dir += "/" + ctx.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.work_dir);

  Report report;
  try {
    if (ctx.workload == "saturate") {
      run_saturate(ctx, report);
    } else {
      run_paced_wire(ctx, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: " << ctx.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& line : report.details) std::cout << line << "\n";
  const double error_rate =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  report.info("error_rate", error_rate, "ratio");
  for (const Metric& m : report.metrics) {
    std::cout << (m.gated ? "metric " : "metric (informational) ") << m.name << " = "
              << json_number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "context: workload=" << ctx.workload << " seed=" << ctx.seed
            << " seconds=" << ctx.seconds << " trace=" << ctx.trace
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " runtime_workers=" << nsync::runtime::worker_count()
            << " simd=" << nsync::dsp::simd::isa_name(nsync::dsp::simd::active_isa())
            << " build=" << FLEETBENCH_BUILD_TYPE << " shards=" << kShards << "\n";
  print_result(report);
  return report.correct && report.failed == 0 ? 0 : 1;
}
