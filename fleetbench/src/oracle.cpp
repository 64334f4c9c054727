#include "oracle.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "core/detection_core.hpp"
#include "core/dwm.hpp"
#include "core/fusion.hpp"
#include "core/health.hpp"
#include "core/nsync.hpp"

namespace fleetbench {

using nsync::signal::SignalView;

Verdict verdict_of(const nsync::engine::SessionSnapshot& s) {
  Verdict v;
  v.intrusion = s.intrusion;
  v.first_alarm_window = s.first_alarm_window;
  for (const auto& c : s.channels) {
    v.channels.push_back(
        {c.detection.intrusion, c.detection.first_alarm_window, c.windows});
  }
  return v;
}

Verdict verdict_of(const nsync::engine::wire::StatsSession& s) {
  Verdict v;
  v.intrusion = s.intrusion != 0;
  v.first_alarm_window = s.first_alarm_window;
  for (const auto& c : s.channels) {
    v.channels.push_back({c.alarm != 0, -1, static_cast<std::size_t>(c.windows)});
  }
  return v;
}

namespace {

// The session-level verdict the engine derives from its channels: the
// voting policy the specs request (kAny), evaluated on the final channel
// state.  Channel alarms latch, so the final evaluation equals the latch.
void fuse(Verdict& v, const std::vector<nsync::core::ChannelScore>& scores) {
  const nsync::core::VotingPolicy policy(nsync::core::FusionRule::kAny);
  const nsync::core::FusedVerdict f = policy.evaluate(scores);
  v.intrusion = f.intrusion;
  v.first_alarm_window = f.intrusion ? f.first_alarm_window : -1;
}

}  // namespace

Verdict replay(const Inputs& in, std::size_t print,
               const std::vector<nsync::core::Thresholds>& t) {
  const Print& p = in.prints[print];
  const Job& job = in.jobs[p.job];
  Verdict v;
  std::vector<nsync::core::ChannelScore> scores;
  for (std::size_t c = 0; c < job.channels.size(); ++c) {
    nsync::core::RealtimeMonitor m(job.channels[c].reference,
                                   job.channels[c].config, t[c]);
    m.push(SignalView(p.streams[c]));
    v.channels.push_back(
        {m.intrusion(), m.detection().first_alarm_window, m.windows()});
    scores.push_back({job.channels[c].name,
                      nsync::core::channel_score(m.features(), m.thresholds()),
                      m.intrusion(), m.detection().first_alarm_window,
                      m.health()});
  }
  fuse(v, scores);
  return v;
}

std::string compare(const Verdict& fleet, const Verdict& oracle) {
  std::ostringstream why;
  if (fleet.channels.size() != oracle.channels.size()) {
    why << "channel count " << fleet.channels.size() << " vs "
        << oracle.channels.size();
    return why.str();
  }
  std::vector<std::ptrdiff_t> alarm_windows;
  for (std::size_t c = 0; c < oracle.channels.size(); ++c) {
    const ChannelVerdict& f = fleet.channels[c];
    const ChannelVerdict& o = oracle.channels[c];
    if (f.alarm != o.alarm || f.windows != o.windows ||
        (f.first_alarm_window >= 0 &&
         f.first_alarm_window != o.first_alarm_window)) {
      why << "channel " << c << ": alarm " << f.alarm << "/" << o.alarm
          << " windows " << f.windows << "/" << o.windows << " first "
          << f.first_alarm_window << "/" << o.first_alarm_window << "; ";
    }
    if (o.alarm) alarm_windows.push_back(o.first_alarm_window);
  }
  if (fleet.intrusion != oracle.intrusion) {
    why << "intrusion " << fleet.intrusion << "/" << oracle.intrusion << "; ";
  } else if (oracle.intrusion) {
    const bool one = alarm_windows.size() == 1;
    const bool ok =
        one ? fleet.first_alarm_window == oracle.first_alarm_window
            : std::find(alarm_windows.begin(), alarm_windows.end(),
                        fleet.first_alarm_window) != alarm_windows.end();
    if (!ok) {
      why << "first_alarm_window " << fleet.first_alarm_window << "/"
          << oracle.first_alarm_window << "; ";
    }
  }
  return why.str();
}

Verdict truncate(const Verdict& full, const Job& job,
                 const std::vector<std::size_t>& frames) {
  Verdict v;
  std::ptrdiff_t first = -1;
  for (std::size_t c = 0; c < full.channels.size(); ++c) {
    const nsync::core::DwmParams& p = job.channels[c].config.dwm;
    const std::size_t complete =
        frames[c] < p.n_win ? 0 : (frames[c] - p.n_win) / p.n_hop + 1;
    ChannelVerdict cv;
    cv.windows = std::min(full.channels[c].windows, complete);
    const std::ptrdiff_t fa = full.channels[c].first_alarm_window;
    cv.alarm = full.channels[c].alarm && fa >= 0 &&
               static_cast<std::size_t>(fa) < cv.windows;
    cv.first_alarm_window = cv.alarm ? fa : -1;
    if (cv.alarm && (first < 0 || fa < first)) first = fa;
    v.channels.push_back(cv);
  }
  // kAny over channels that stay online: any alarm latches the session.
  v.intrusion = first >= 0;
  v.first_alarm_window = first;
  return v;
}

const Verdict& Oracle::expect(std::size_t print,
                              const std::vector<nsync::core::Thresholds>& t) {
  std::vector<double> key;
  for (const auto& x : t) {
    key.insert(key.end(), {x.c_c, x.h_c, x.v_c});
  }
  Key k{print, std::move(key)};
  auto it = cache_.find(k);
  if (it == cache_.end()) {
    it = cache_.emplace(std::move(k), replay(in_, print, t)).first;
  }
  return it->second;
}

Verdict replay_layers(const Inputs& in, std::size_t print,
                      const std::vector<nsync::core::Thresholds>& t,
                      std::size_t chunk, Tracer& tracer,
                      std::uint64_t& window_id) {
  const Print& p = in.prints[print];
  const Job& job = in.jobs[p.job];
  struct Lane {
    nsync::core::DwmSynchronizer sync;
    nsync::core::DetectionCore core;
    nsync::core::ChannelHealthMonitor health;
    std::size_t fed = 0;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t c = 0; c < job.channels.size(); ++c) {
    const nsync::core::NsyncConfig& cfg = job.channels[c].config;
    lanes.push_back(std::make_unique<Lane>(Lane{
        nsync::core::DwmSynchronizer(job.channels[c].reference, cfg.dwm),
        nsync::core::DetectionCore(cfg.dwm, cfg.metric, cfg.filter_window),
        nsync::core::ChannelHealthMonitor(cfg.health)}));
    lanes.back()->core.set_thresholds(t[c]);
  }
  const nsync::core::VotingPolicy policy(nsync::core::FusionRule::kAny);
  std::vector<nsync::core::ChannelScore> scores(job.channels.size());
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      Lane& l = *lanes[c];
      const nsync::signal::Signal& s = p.streams[c];
      if (l.fed >= s.frames()) continue;
      const std::size_t hi = std::min(l.fed + chunk, s.frames());
      const std::size_t before = l.sync.windows();
      {
        const Scope span(tracer, "core.dwm_push", window_id);
        l.sync.push(SignalView(s).slice(l.fed, hi));
      }
      l.fed = hi;
      more = more || hi < s.frames();
      const nsync::core::DwmParams& dwm = job.channels[c].config.dwm;
      const auto& r = l.sync.result();
      for (std::size_t i = before; i < l.sync.windows(); ++i) {
        ++window_id;
        const std::size_t a0 = i * dwm.n_hop;
        bool ok = false;
        {
          const Scope span(tracer, "core.detect_step", window_id);
          ok = l.core.step(r.h_disp[i], r.valid.empty() || r.valid[i] != 0,
                           l.sync.observed().view(a0, a0 + dwm.n_win),
                           l.sync.reference());
        }
        const Scope span(tracer, "core.health_observe", window_id);
        l.health.observe(ok);
      }
      if (l.sync.windows() > before) {
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          const Lane& o = *lanes[k];
          scores[k] = {job.channels[k].name,
                       nsync::core::channel_score(o.core.features(),
                                                  o.core.thresholds()),
                       o.core.detection().intrusion,
                       o.core.detection().first_alarm_window,
                       o.health.state()};
        }
        const Scope span(tracer, "core.fusion_eval", window_id);
        (void)policy.evaluate(scores);
      }
    }
  }
  Verdict v;
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    const Lane& l = *lanes[c];
    v.channels.push_back({l.core.detection().intrusion,
                          l.core.detection().first_alarm_window,
                          l.sync.windows()});
  }
  fuse(v, scores);
  return v;
}

}  // namespace fleetbench
