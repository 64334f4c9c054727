#include "engine/monitor_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/session_codec.hpp"
#include "signal/checkpoint.hpp"

namespace nsync::engine {

using nsync::signal::SignalView;

MonitorEngine::Channel::Channel(ChannelSpec&& spec)
    : name(std::move(spec.name)),
      // The monitor interns the reference: a session admitted with a
      // reference another live session already uses shares that one.
      monitor(std::move(spec.reference), spec.config, spec.thresholds),
      staging(monitor.reference().channels(),
              monitor.reference().sample_rate()) {
  // Size everything for the full print up front: the reference bounds how
  // many windows DWM can ever produce, so the steady-state feed/poll loop
  // allocates nothing.
  const auto& dwm = spec.config.dwm;
  const std::size_t ref_frames = monitor.reference().frames();
  if (ref_frames >= dwm.n_win) {
    monitor.reserve_windows((ref_frames - dwm.n_win) / dwm.n_hop + 1);
  }
}

MonitorEngine::MonitorEngine(MonitorEngineOptions options)
    : options_(std::move(options)) {
  if (options_.baseline.adaptive) {
    options_.baseline.policy.validate();
    const std::string path = baseline_path();
    if (!path.empty() && std::filesystem::exists(path)) {
      // Bootstrap from the exported registry of a previous run.  A restore
      // from a fleet checkpoint overrides this with the crash-consistent
      // copy embedded in the payload.
      registry_ = std::make_unique<BaselineRegistry>(
          BaselineRegistry::load(path, options_.baseline.policy));
    } else {
      registry_ = std::make_unique<BaselineRegistry>(options_.baseline.policy);
    }
  }
}

std::size_t MonitorEngine::add_session(SessionSpec spec) {
  if (spec.channels.empty()) {
    throw std::invalid_argument("MonitorEngine::add_session: no channels");
  }
  // Adaptive admission: a session carrying a model identity arms the
  // registry's current thresholds for each (model, channel) baseline —
  // first contact seeds the baseline from the trained thresholds instead.
  // Skipped during checkpoint restore, which must arm the serialized
  // thresholds verbatim for bitwise replay.
  if (registry_ && resolve_on_admission_ && !spec.model.empty()) {
    for (auto& c : spec.channels) {
      c.thresholds = registry_->resolve(spec.model, c.name, c.thresholds);
    }
  }
  auto s = std::make_unique<Session>();
  s->name = std::move(spec.name);
  s->model = std::move(spec.model);
  s->policy = spec.policy
                  ? std::move(spec.policy)
                  : std::make_shared<const core::VotingPolicy>(spec.rule);
  s->channels.reserve(spec.channels.size());
  for (auto& c : spec.channels) {
    for (const auto& existing : s->channels) {
      if (existing.name == c.name) {
        throw std::invalid_argument(
            "MonitorEngine::add_session: duplicate channel '" + c.name + "'");
      }
    }
    s->channels.emplace_back(std::move(c));
  }
  sessions_.push_back(std::move(s));
  return sessions_.size() - 1;
}

MonitorEngine::Session& MonitorEngine::session_at(std::size_t id) {
  if (id >= sessions_.size()) {
    throw std::out_of_range("MonitorEngine: no session " + std::to_string(id) +
                            " (" + std::to_string(sessions_.size()) +
                            " sessions registered)");
  }
  return *sessions_[id];
}

const MonitorEngine::Session& MonitorEngine::session_at(std::size_t id) const {
  if (id >= sessions_.size()) {
    throw std::out_of_range("MonitorEngine: no session " + std::to_string(id) +
                            " (" + std::to_string(sessions_.size()) +
                            " sessions registered)");
  }
  return *sessions_[id];
}

std::size_t MonitorEngine::feed(std::size_t session,
                                const std::string& channel,
                                const SignalView& frames) {
  Session& s = session_at(session);
  const std::scoped_lock lock(s.mu);
  Channel* target = nullptr;
  for (auto& c : s.channels) {
    if (c.name == channel) {
      target = &c;
      break;
    }
  }
  if (s.evicted) {
    throw std::invalid_argument("MonitorEngine::feed: session '" + s.name +
                                "' (id " + std::to_string(session) +
                                ") has been evicted");
  }
  if (target == nullptr) {
    throw std::invalid_argument("MonitorEngine::feed: unknown channel '" +
                                channel + "' in session '" + s.name + "' (id " +
                                std::to_string(session) + ")");
  }
  target->staging.append(frames);
  s.frames_fed += frames.frames();
  if (options_.max_pending_frames > 0 &&
      target->staging.retained_frames() >= options_.max_pending_frames) {
    return drain_locked(s);
  }
  return 0;
}

std::size_t MonitorEngine::drain_locked(Session& s) {
  std::size_t windows = 0;
  for (auto& c : s.channels) {
    const std::size_t begin = c.staging.start();
    const std::size_t end = c.staging.end();
    if (end > begin) {
      windows += c.monitor.push(c.staging.view(begin, end));
      c.staging.drop_before(end);
    }
  }
  if (windows > 0 && !s.intrusion) {
    // Refresh the fused verdict through the session's policy — the same
    // health-aware fusion as the batch FusionIds: offline channels neither
    // alarm nor count toward the denominator (nor the weighted mean).  The
    // verdict and its alarm window latch.
    const core::FusedVerdict v = s.policy->evaluate(channel_scores_locked(s));
    if (v.intrusion) {
      s.intrusion = true;
      s.first_alarm_window = v.first_alarm_window;
    }
  }
  return windows;
}

std::vector<core::ChannelScore> MonitorEngine::channel_scores_locked(
    const Session& s) {
  std::vector<core::ChannelScore> scores;
  scores.reserve(s.channels.size());
  for (const auto& c : s.channels) {
    scores.push_back(
        {c.name,
         core::channel_score(c.monitor.features(), c.monitor.thresholds()),
         c.monitor.intrusion(), c.monitor.detection().first_alarm_window,
         c.monitor.health()});
  }
  return scores;
}

std::size_t MonitorEngine::poll_inline() {
  std::size_t windows = 0;
  for (auto& sp : sessions_) {
    Session& s = *sp;
    const std::scoped_lock lock(s.mu);
    windows += drain_locked(s);
  }
  return windows;
}

std::size_t MonitorEngine::poll_session(std::size_t session) {
  Session& s = session_at(session);
  const std::scoped_lock lock(s.mu);
  return drain_locked(s);
}

void MonitorEngine::evict_session(std::size_t session) {
  Session& s = session_at(session);
  const std::scoped_lock lock(s.mu);
  if (s.evicted) return;
  // Drain whatever is still staged so the end-of-print fold below sees
  // the whole fed stream.  This makes the folded maxima a pure function
  // of the frames fed before the eviction, independent of batch/drain
  // timing — required for deterministic crash replay of adapted state.
  drain_locked(s);
  // End-of-print baseline fold, gated on the session-level anti-poisoning
  // rule: only a benign fused verdict with every channel healthy may
  // update the device baseline.  Ineligible prints are counted as frozen.
  if (registry_ && !s.model.empty() && !s.channels.empty()) {
    bool eligible = !s.intrusion;
    for (const auto& c : s.channels) {
      if (c.monitor.health() != core::ChannelHealth::kHealthy) {
        eligible = false;
      }
    }
    for (const auto& c : s.channels) {
      registry_->fold(s.model, c.name, c.monitor.benign_feature_maxima(),
                      eligible && c.monitor.benign_windows() > 0);
    }
  }
  s.channels.clear();
  s.channels.shrink_to_fit();
  // The dynamic state is discarded with the monitors, so the latched
  // verdict goes too — a restore from a checkpoint holding the tombstone
  // must see the same (empty) state as this process does.
  s.frames_fed = 0;
  s.intrusion = false;
  s.first_alarm_window = -1;
  s.policy.reset();
  s.evicted = true;
}

SessionSnapshot MonitorEngine::snapshot_locked(const Session& s) {
  SessionSnapshot out;
  out.name = s.name;
  out.evicted = s.evicted;
  out.intrusion = s.intrusion;
  out.first_alarm_window = s.first_alarm_window;
  out.frames_fed = s.frames_fed;
  out.windows = std::numeric_limits<std::size_t>::max();
  // Live fused telemetry: evaluate the policy over the current scores so
  // operators see the fused score and per-channel weights even before (or
  // without) the verdict latching.
  core::FusedVerdict v;
  if (s.policy) {
    out.policy = s.policy->name();
    v = s.policy->evaluate(channel_scores_locked(s));
    out.fused_score = v.score;
    out.alarming_channels = v.alarming_channels;
    out.online_channels = v.online_channels;
  }
  out.channels.reserve(s.channels.size());
  for (std::size_t i = 0; i < s.channels.size(); ++i) {
    const Channel& c = s.channels[i];
    ChannelSnapshot cs;
    cs.name = c.name;
    cs.detection = c.monitor.detection();
    cs.health = c.monitor.health();
    cs.thresholds = c.monitor.thresholds();
    if (i < v.channels.size()) {
      cs.score = v.channels[i].score;
      cs.weight = v.channels[i].weight;
    }
    cs.width = c.staging.channels();
    cs.sample_rate = c.staging.sample_rate();
    cs.windows = c.monitor.windows();
    cs.pending_frames = c.staging.retained_frames();
    cs.frames_fed = c.staging.end();
    out.windows = std::min(out.windows, cs.windows);
    out.channels.push_back(std::move(cs));
  }
  if (s.channels.empty()) out.windows = 0;
  return out;
}

SessionSnapshot MonitorEngine::snapshot(std::size_t session) const {
  const Session& s = session_at(session);
  const std::scoped_lock lock(s.mu);
  return snapshot_locked(s);
}

std::vector<SessionSnapshot> MonitorEngine::snapshots() const {
  std::vector<SessionSnapshot> out;
  out.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    out.push_back(snapshot(i));
  }
  return out;
}

namespace {

// Checkpoint section ids (outer structure of the fleet payload).
constexpr std::uint32_t kSecFleet = 0x544C4601;    // "\x01FLT"
constexpr std::uint32_t kSecSession = 0x53455301;  // "\x01SES"
constexpr std::uint32_t kSecChannel = 0x43484E01;  // "\x01CHN"

}  // namespace

void MonitorEngine::save_session(nsync::signal::ByteWriter& w,
                                 const Session& s) {
  const std::size_t tok = w.begin_section(kSecSession);
  w.str(s.name);
  w.pod<std::uint8_t>(s.evicted ? 1 : 0);
  if (s.evicted) {
    // Tombstone: the name keeps the id slot occupied, nothing else
    // survives eviction.
    w.end_section(tok);
    return;
  }
  w.str(s.model);
  // The policy slot keeps the legacy encoding (bare rule u32) for voting
  // sessions, so pre-policy checkpoints and their byte-parity tests are
  // untouched; weighted sessions write the versioned policy section, which
  // is how learned weights replay bitwise after a crash.
  save_fusion_policy(w, *s.policy);
  w.pod<std::uint64_t>(s.frames_fed);
  w.pod<std::uint8_t>(s.intrusion ? 1 : 0);
  w.pod<std::int64_t>(s.first_alarm_window);
  w.pod<std::uint64_t>(s.channels.size());
  for (const auto& c : s.channels) {
    const std::size_t ctok = w.begin_section(kSecChannel);
    // Full spec first, so restore() can rebuild the channel from the file
    // alone before applying the dynamic state.
    save_channel_spec(w, c.name, SignalView(c.monitor.reference()),
                      c.monitor.config(), c.monitor.thresholds());
    c.monitor.save_state(w);
    c.staging.save_state(w);
    w.end_section(ctok);
  }
  w.end_section(tok);
}

std::vector<std::uint8_t> MonitorEngine::serialize() const {
  nsync::signal::ByteWriter w;
  const std::size_t tok = w.begin_section(kSecFleet);
  w.pod<std::uint64_t>(sessions_.size());
  for (const auto& s : sessions_) {
    const std::scoped_lock lock(s->mu);
    save_session(w, *s);
  }
  // The adapted baseline state rides inside the same payload as the
  // session state: one atomic file, so a crash can never split "session
  // evicted" from "its print folded into the baseline".
  w.pod<std::uint8_t>(registry_ ? 1 : 0);
  if (registry_) registry_->save_state(w);
  w.end_section(tok);
  return w.take();
}

void MonitorEngine::checkpoint(const std::string& path) const {
  const std::vector<std::uint8_t> payload = serialize();
  nsync::signal::write_checkpoint_file(path, payload);
  // Operator-visible export of the adapted per-device state.  Written
  // after the fleet checkpoint on purpose: the .nbrg is a convenience
  // copy — the authoritative state is inside the .nckp above.
  const std::string bpath = baseline_path();
  if (registry_ && !bpath.empty()) registry_->save(bpath);
}

std::string MonitorEngine::baseline_path() const {
  if (!options_.baseline.adaptive || options_.baseline.dir.empty()) return {};
  return options_.baseline.dir + "/" + options_.baseline.filename;
}

MonitorEngine MonitorEngine::restore_from_bytes(
    std::span<const std::uint8_t> payload, MonitorEngineOptions options) {
  using nsync::signal::ByteReader;
  using nsync::signal::CheckpointError;
  using nsync::signal::CheckpointErrorKind;
  MonitorEngine engine(std::move(options));
  // Restored sessions arm their serialized thresholds verbatim; resolving
  // them against the registry would change the replayed verdicts.
  engine.resolve_on_admission_ = false;
  try {
    ByteReader top(payload);
    ByteReader fleet = top.section(kSecFleet);
    top.finish();
    const auto n_sessions = fleet.pod<std::uint64_t>();
    if (n_sessions > fleet.remaining()) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "MonitorEngine checkpoint: implausible session "
                            "count " +
                                std::to_string(n_sessions));
    }
    for (std::uint64_t i = 0; i < n_sessions; ++i) {
      ByteReader sr = fleet.section(kSecSession);
      SessionSpec spec;
      spec.name = sr.str();
      const auto evicted = sr.pod<std::uint8_t>();
      if (evicted > 1) {
        throw CheckpointError(CheckpointErrorKind::kCorrupt,
                              "MonitorEngine checkpoint: bad eviction flag "
                              "in session '" +
                                  spec.name + "'");
      }
      if (evicted == 1) {
        sr.finish();
        auto tomb = std::make_unique<Session>();
        tomb->name = std::move(spec.name);
        tomb->evicted = true;
        engine.sessions_.push_back(std::move(tomb));
        continue;
      }
      spec.model = sr.str();
      spec.policy = load_fusion_policy(sr);
      if (const auto* voting =
              dynamic_cast<const core::VotingPolicy*>(spec.policy.get())) {
        spec.rule = voting->rule();
      }
      const auto frames_fed = sr.pod<std::uint64_t>();
      const auto intrusion = sr.pod<std::uint8_t>();
      const auto first_alarm = sr.pod<std::int64_t>();
      if (intrusion > 1 || first_alarm < -1 ||
          (intrusion == 0 && first_alarm != -1)) {
        throw CheckpointError(CheckpointErrorKind::kCorrupt,
                              "MonitorEngine checkpoint: inconsistent fused "
                              "verdict in session '" +
                                  spec.name + "'");
      }
      const auto n_channels = sr.pod<std::uint64_t>();
      if (n_channels == 0 || n_channels > sr.remaining()) {
        throw CheckpointError(CheckpointErrorKind::kCorrupt,
                              "MonitorEngine checkpoint: implausible channel "
                              "count in session '" +
                                  spec.name + "'");
      }
      // Two passes over the channel sections: the spec fields rebuild the
      // monitors (add_session), after which the saved sub-readers replay
      // the dynamic state into them.
      std::vector<ByteReader> state_readers;
      state_readers.reserve(n_channels);
      spec.channels.reserve(n_channels);
      for (std::uint64_t j = 0; j < n_channels; ++j) {
        ByteReader cr = sr.section(kSecChannel);
        spec.channels.push_back(load_channel_spec(cr));
        state_readers.push_back(cr);  // positioned at the dynamic state
      }
      sr.finish();
      const std::size_t id = engine.add_session(std::move(spec));
      Session& s = *engine.sessions_[id];
      s.frames_fed = frames_fed;
      s.intrusion = intrusion != 0;
      s.first_alarm_window = first_alarm;
      for (std::uint64_t j = 0; j < n_channels; ++j) {
        Channel& c = s.channels[j];
        ByteReader& cr = state_readers[j];
        c.monitor.restore_state(cr);
        c.staging.restore_state(cr);
        cr.finish();
      }
    }
    const auto has_registry = fleet.pod<std::uint8_t>();
    if (has_registry > 1) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "MonitorEngine checkpoint: bad registry flag");
    }
    if (has_registry == 1) {
      if (engine.registry_ == nullptr) {
        throw CheckpointError(
            CheckpointErrorKind::kMismatch,
            "MonitorEngine checkpoint: payload carries a baseline registry "
            "but the engine is not configured adaptive");
      }
      // The embedded copy is crash-consistent with the session state and
      // overrides any .nbrg file the constructor bootstrapped from.
      engine.registry_->restore_state(fleet);
    }
    fleet.finish();
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // Constructor/validation failures on hostile spec bytes (e.g.
    // DwmParams::validate) surface as the one typed error restore promises.
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          std::string("MonitorEngine checkpoint: ") + e.what());
  }
  engine.resolve_on_admission_ = true;
  return engine;
}

MonitorEngine MonitorEngine::restore(const std::string& path,
                                     MonitorEngineOptions options) {
  const std::vector<std::uint8_t> payload =
      nsync::signal::read_checkpoint_file(path);
  return restore_from_bytes(payload, std::move(options));
}

}  // namespace nsync::engine
