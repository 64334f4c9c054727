// The fleet workloads and the per-layer ledger shared by them.
#ifndef FLEETBENCH_WORKLOADS_HPP
#define FLEETBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "measure.hpp"

namespace fleetbench {

/// Everything a run is parameterized by.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< scratch inside the checkout
  std::string daemon_path;  ///< fleet_daemon binary (paced-wire)
};

/// Shards in every fleet the benchmark builds (one per core of the 4-core
/// reference host; the feeder and the daemon's I/O threads share them).
inline constexpr std::size_t kShards = 4;

/// Closed-loop, in-process ShardedFleet.
void run_saturate(const RunContext& ctx, Report& report);
/// Open-loop NSFP ladder against a fleet_daemon process.
void run_paced_wire(const RunContext& ctx, Report& report);

/// Per-layer costs measured outside the fleet on the workload's own
/// inputs: DSP kernels on its window shapes, the layered reference
/// replay, the single-threaded poll_inline run and the wire codec.
struct Ledger {
  double rfft_ns = 0.0;
  double sliding_pearson_ns = 0.0;
  double tdeb_ns = 0.0;
  double dwm_push_ns_per_window = 0.0;  ///< self time (TDEB modelled out)
  double detect_step_ns = 0.0;
  double health_observe_ns = 0.0;
  double fusion_eval_ns = 0.0;          ///< per window
  double monitor_push_ns_per_window = 0.0;
  double poll_inline_ns_per_window = 0.0;
  // State layers on the serial engine's finished sessions.
  double ckpt_bytes_per_session = 0.0;
  double ckpt_checkpoint_ms = 0.0;  ///< one checkpoint of every session
  double ckpt_restore_ms = 0.0;
  double evict_ns = 0.0;            ///< per eviction, baseline fold included
  double baseline_folds = 0.0;
  double baseline_frozen = 0.0;
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  double bytes_per_frame = 0.0;
  bool layers_agree = true;  ///< layered replay matched the oracle
};

/// Measures the ledger on `prints` (indices into in.prints) fed in chunks
/// of `chunk` frames.  `cal` arms the monitors; `work_dir` takes the
/// checkpoint file.
[[nodiscard]] Ledger measure_ledger(const Inputs& in, const Calibration& cal,
                                    const std::vector<std::size_t>& prints,
                                    std::size_t chunk, const std::string& work_dir,
                                    Tracer& tracer);

/// FEED and POLL_STATS round trips of the workload's own messages through
/// an in-process FleetServer on a Unix socket: the wire layer for the
/// in-process workloads, whose fleets bypass it.
struct WireLoopback {
  std::vector<double> feed_rtt_us;
  std::vector<double> poll_rtt_us;
  std::uint64_t errors = 0;
};
[[nodiscard]] WireLoopback measure_wire_loopback(const Inputs& in, const Calibration& cal,
                                                 const std::vector<std::size_t>& prints,
                                                 std::size_t chunk, const std::string& work_dir,
                                                 Tracer& tracer);
/// Adds wire.feed_rtt_us_p50/_p99, wire.poll_stats_rtt_us_p99, wire.errors.
void report_wire_loopback(const WireLoopback& w, Report& report);

/// Adds the ledger's DSP, core, serial and codec metrics, the residual
/// and the DSP attribution note to the report.
void report_ledger(const Ledger& l, Report& report);
/// Adds the ledger's state-layer metrics (ckpt.*, engine.evict_ns,
/// baseline.*), for workloads whose fleet does not exercise them.
void report_ledger_state(const Ledger& l, Report& report);

}  // namespace fleetbench

#endif  // FLEETBENCH_WORKLOADS_HPP
