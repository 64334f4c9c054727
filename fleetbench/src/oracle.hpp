// The verdict oracle: a single-threaded replay of one print through one
// core::RealtimeMonitor per channel, armed with the thresholds the fleet
// reports, plus the session's fusion policy.  The fleet's verdict for a
// session must match it.
#ifndef FLEETBENCH_ORACLE_HPP
#define FLEETBENCH_ORACLE_HPP

#include <cstddef>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "engine/monitor_engine.hpp"
#include "engine/wire_protocol.hpp"
#include "inputs.hpp"
#include "measure.hpp"

namespace fleetbench {

struct ChannelVerdict {
  bool alarm = false;
  std::ptrdiff_t first_alarm_window = -1;  ///< -1 when unknown (wire)
  std::size_t windows = 0;
};

struct Verdict {
  bool intrusion = false;
  std::ptrdiff_t first_alarm_window = -1;
  std::vector<ChannelVerdict> channels;
};

[[nodiscard]] Verdict verdict_of(const nsync::engine::SessionSnapshot& s);
[[nodiscard]] Verdict verdict_of(const nsync::engine::wire::StatsSession& s);

/// Replays `print` with the given per-channel thresholds.
[[nodiscard]] Verdict replay(const Inputs& in, std::size_t print,
                             const std::vector<nsync::core::Thresholds>& t);

/// Empty when `fleet` agrees with `oracle`, else what differs.
///
/// Per-channel alarms, first alarm windows and window counts, and the
/// fused intrusion, must match exactly.  The fused first_alarm_window is
/// latched by the engine at drain granularity: when several channels
/// alarm, it is the earliest first alarm among those alarming at the
/// drain that latched, which depends on how frames were batched.  It must
/// then be the first alarm window of one of the oracle's alarming
/// channels; with a single alarming channel that pins it exactly.
[[nodiscard]] std::string compare(const Verdict& fleet, const Verdict& oracle);

/// The verdict after only the first `frames[c]` frames of each channel:
/// windows are those complete within the prefix (never more than the full
/// replay's) and an alarm counts once its first alarm window is among
/// them.  Exact, because a window's state depends on earlier frames only.
[[nodiscard]] Verdict truncate(const Verdict& full, const Job& job,
                               const std::vector<std::size_t>& frames);

/// Memoizes replays: a verdict is a function of (print, thresholds), and
/// sessions reuse a few distinct prints.
class Oracle {
 public:
  explicit Oracle(const Inputs& in) : in_(in) {}
  const Verdict& expect(std::size_t print,
                        const std::vector<nsync::core::Thresholds>& t);
  [[nodiscard]] std::size_t replays() const { return cache_.size(); }

 private:
  using Key = std::tuple<std::size_t, std::vector<double>>;
  const Inputs& in_;
  std::map<Key, Verdict> cache_;
};

/// The same replay with the layers of RealtimeMonitor::push called one by
/// one — DwmSynchronizer::push, DetectionCore::step,
/// ChannelHealthMonitor::observe, FusionPolicy::evaluate — each inside a
/// span.  Returns the verdict so the caller can check it against replay().
[[nodiscard]] Verdict replay_layers(const Inputs& in, std::size_t print,
                                    const std::vector<nsync::core::Thresholds>& t,
                                    std::size_t chunk, Tracer& tracer,
                                    std::uint64_t& window_id);

}  // namespace fleetbench

#endif  // FLEETBENCH_ORACLE_HPP
