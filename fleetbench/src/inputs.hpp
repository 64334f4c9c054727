// Seeded input generation for the three fleet workloads.  Everything a
// run feeds the system under test is built here, before any timing starts,
// from the run's --seed alone: the same seed yields byte-identical inputs
// (Inputs::digest pins it in the self-test).
#ifndef FLEETBENCH_INPUTS_HPP
#define FLEETBENCH_INPUTS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fusion.hpp"
#include "core/nsync.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/signal.hpp"

namespace fleetbench {

/// One side channel of a print job: what the detector is calibrated on.
struct ChannelJob {
  std::string name;
  nsync::signal::Signal reference;
  nsync::core::NsyncConfig config;
  std::vector<nsync::signal::Signal> train;  ///< benign runs for OCC fit
};

/// A print job: one reference per channel.  Sessions that share a job
/// share its reference content.
struct Job {
  std::vector<ChannelJob> channels;
};

/// One observed print: a stream per channel of its job, in job channel
/// order.
struct Print {
  std::size_t job = 0;
  std::vector<nsync::signal::Signal> streams;
  bool malicious = false;
  std::string label;
};

struct Inputs {
  std::vector<Job> jobs;
  std::vector<Print> prints;  ///< distinct streams; sessions reuse them

  /// crc32 over every sample of every reference, training run and stream.
  [[nodiscard]] std::uint32_t digest() const;
};

/// Per-job, per-channel OCC thresholds from NsyncIds::fit, used verbatim.
using Calibration = std::vector<std::vector<nsync::core::Thresholds>>;
[[nodiscard]] Calibration calibrate(const Inputs& in);

/// The session spec for print `p` armed with `cal` (name must be unique
/// among live sessions).
[[nodiscard]] nsync::engine::SessionSpec make_spec(const Inputs& in,
                                                   const Calibration& cal,
                                                   std::size_t p,
                                                   const std::string& name);

/// Compact synthetic fleet: `jobs` distinct references of `frames` frames
/// (2-dim channels "ACC" and "AUD" at 100 Hz, n_win 64 / hop 32) and
/// `prints_per_job` observed prints of each; every eighth print carries a
/// content-substitution attack.
[[nodiscard]] Inputs compact_inputs(std::uint64_t seed, std::size_t jobs,
                                    std::size_t prints_per_job,
                                    std::size_t frames);

/// Paper-rate prints on the simulated RM3: ACC at 400 Hz and AUD at
/// 4 kHz from eval::Dataset, Table IV DWM parameters via dwm_params_for.
/// One job (the dataset's reference print); prints are the dataset's
/// benign and attacked test processes.
[[nodiscard]] Inputs rm3_inputs(std::uint64_t seed);

}  // namespace fleetbench

#endif  // FLEETBENCH_INPUTS_HPP
