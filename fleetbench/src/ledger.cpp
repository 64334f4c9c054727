// The per-layer ledger: layer costs measured outside the fleet, on the
// workload's own inputs, so each can be set against the serial cost of a
// window (MonitorEngine::poll_inline on one thread).  The same serial
// engine also gives the state layers (checkpoint, restore, eviction and
// baseline fold), which the workloads' fleets run without, and a loopback
// FleetServer gives the wire round trips for the in-process workload.
//
// DSP kernels are timed standalone on the exact shapes the workload's
// windows use and attributed one TDEB call per window.  That attribution
// is modelled: until the library records its own spans, the benchmark
// cannot see how much of a DwmSynchronizer::push went to each kernel.
#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <vector>

#include "core/tde.hpp"
#include "dsp/batched_fft.hpp"
#include "dsp/fft.hpp"
#include "dsp/xcorr.hpp"
#include "engine/fleet_server.hpp"
#include "engine/monitor_engine.hpp"
#include "engine/sharded_fleet.hpp"
#include "engine/wire_client.hpp"
#include "engine/wire_protocol.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

using nsync::signal::Signal;
using nsync::signal::SignalView;

/// Mean nanoseconds per call of `fn`, over at least `min_ms` of calls.
template <typename Fn>
double time_per_call(Fn&& fn, double min_ms = 30.0) {
  fn();  // warm caches and lazy plans
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed_ms = 0.0;
  while (elapsed_ms < min_ms || calls < 16) {
    fn();
    ++calls;
    elapsed_ms = seconds_since(t0) * 1e3;
  }
  return elapsed_ms * 1e6 / static_cast<double>(calls);
}

struct DspCost {
  double rfft_ns = 0.0;
  double pearson_ns = 0.0;
  double tdeb_ns = 0.0;
};

/// One channel's kernels on its window shape: TDEB searches an n_win
/// observed window inside the 2*n_ext-extended reference window.
DspCost dsp_cost(const ChannelJob& job, const Signal& observed) {
  const nsync::core::DwmParams& p = job.config.dwm;
  const std::size_t nx = p.n_win + 2 * p.n_ext;
  const std::size_t ny = p.n_win;
  const std::size_t ch = job.reference.channels();
  const SignalView x = SignalView(job.reference).slice(0, nx);
  const SignalView y = SignalView(observed).slice(p.n_hop, p.n_hop + ny);
  DspCost cost;

  nsync::core::TdeWorkspace ws;
  const nsync::core::TdeOptions opts;
  volatile std::size_t sink = 0;
  cost.tdeb_ns = time_per_call([&] {
    sink = nsync::core::estimate_delay_biased(
        x, y, static_cast<double>(p.n_ext), p.n_sigma, opts, ws);
  });

  std::vector<double> x0(nx), y0(ny), out(nx - ny + 1);
  x.channel_into(0, x0);
  y.channel_into(0, y0);
  nsync::dsp::SlidingPearsonWorkspace pws;
  cost.pearson_ns = time_per_call(
      [&] { nsync::dsp::sliding_pearson_fft_into(x0, y0, out, pws); });

  const std::size_t m = nsync::dsp::next_power_of_two(nx + ny);
  nsync::dsp::BatchedRfftPlan plan(m, ch);
  std::vector<double> pad(m * ch, 0.0);
  std::copy(x.data(), x.data() + nx * ch, pad.begin());
  std::vector<double> re(plan.bins() * ch), im(plan.bins() * ch);
  cost.rfft_ns =
      time_per_call([&] { plan.forward_interleaved(pad.data(), re.data(), im.data()); });
  (void)sink;
  return cost;
}

/// Feeds `prints` into a one-thread, adaptive MonitorEngine in
/// `chunk`-frame rounds (nanoseconds per window into `l`), then measures
/// the state layers on the finished sessions: checkpoint size, write and
/// restore, and eviction with its baseline fold.
void serial_engine(const Inputs& in, const Calibration& cal,
                   const std::vector<std::size_t>& prints, std::size_t chunk,
                   const std::string& work_dir, Ledger& l) {
  nsync::engine::MonitorEngineOptions opts;
  opts.baseline.adaptive = true;  // first contact serves the trained thresholds
  nsync::engine::MonitorEngine eng(opts);
  for (std::size_t i = 0; i < prints.size(); ++i) {
    nsync::engine::SessionSpec spec = make_spec(in, cal, prints[i], "serial-" + std::to_string(i));
    spec.model = "fleetbench-ledger";
    eng.add_session(std::move(spec));
  }
  std::size_t windows = 0;
  const Clock::time_point t0 = Clock::now();
  bool more = true;
  for (std::size_t off = 0; more; off += chunk) {
    more = false;
    for (std::size_t i = 0; i < prints.size(); ++i) {
      const Print& p = in.prints[prints[i]];
      for (std::size_t c = 0; c < p.streams.size(); ++c) {
        const Signal& s = p.streams[c];
        if (off >= s.frames()) continue;
        const std::size_t hi = std::min(off + chunk, s.frames());
        windows += eng.feed(i, in.jobs[p.job].channels[c].name,
                            SignalView(s).slice(off, hi));
        more = more || hi < s.frames();
      }
    }
    windows += eng.poll_inline();
  }
  l.poll_inline_ns_per_window = static_cast<double>(ns_between(t0, Clock::now())) /
                                static_cast<double>(std::max<std::size_t>(windows, 1));

  const double sessions = static_cast<double>(prints.size());
  l.ckpt_bytes_per_session = static_cast<double>(eng.serialize().size()) / sessions;
  const std::string path = work_dir + "/ledger.nckp";
  Clock::time_point c0 = Clock::now();
  eng.checkpoint(path);
  l.ckpt_checkpoint_ms = seconds_since(c0) * 1e3;
  c0 = Clock::now();
  (void)nsync::engine::MonitorEngine::restore(path, opts);
  l.ckpt_restore_ms = seconds_since(c0) * 1e3;
  std::filesystem::remove(path);
  c0 = Clock::now();
  for (std::size_t i = 0; i < prints.size(); ++i) eng.evict_session(i);
  l.evict_ns = static_cast<double>(ns_between(c0, Clock::now())) / sessions;
  const nsync::engine::BaselineRegistry* reg = eng.baseline_registry();
  for (const auto& [m, profile] : reg->keys()) {
    const nsync::engine::DeviceBaseline b = reg->baseline(m, profile);
    l.baseline_folds += static_cast<double>(b.prints);
    l.baseline_frozen += static_cast<double>(b.frozen);
  }
}

}  // namespace

Ledger measure_ledger(const Inputs& in, const Calibration& cal,
                      const std::vector<std::size_t>& prints, std::size_t chunk,
                      const std::string& work_dir, Tracer& tracer) {
  Ledger l;
  // DSP: window-weighted mean over the channels (weight = windows/s).
  const Job& job = in.jobs[in.prints[prints[0]].job];
  double weight_sum = 0.0;
  for (std::size_t c = 0; c < job.channels.size(); ++c) {
    const ChannelJob& cj = job.channels[c];
    const double w = cj.reference.sample_rate() / static_cast<double>(cj.config.dwm.n_hop);
    const DspCost d = dsp_cost(cj, in.prints[prints[0]].streams[c]);
    l.rfft_ns += w * d.rfft_ns;
    l.sliding_pearson_ns += w * d.pearson_ns;
    l.tdeb_ns += w * d.tdeb_ns;
    weight_sum += w;
  }
  l.rfft_ns /= weight_sum;
  l.sliding_pearson_ns /= weight_sum;
  l.tdeb_ns /= weight_sum;

  // Core layers, one span per call, and the composed monitor for scale.
  std::uint64_t window_id = 0;
  std::size_t windows = 0;
  double monitor_ns = 0.0;
  for (const std::size_t p : prints) {
    const Print& print = in.prints[p];
    const Verdict layered =
        replay_layers(in, p, cal[print.job], chunk, tracer, window_id);
    const Clock::time_point t0 = Clock::now();
    const Verdict composed = replay(in, p, cal[print.job]);
    monitor_ns += static_cast<double>(ns_between(t0, Clock::now()));
    if (!compare(layered, composed).empty()) l.layers_agree = false;
    for (const auto& c : composed.channels) windows += c.windows;
  }
  const double nw = static_cast<double>(std::max<std::size_t>(windows, 1));
  const auto selfs = tracer.self_times();
  const auto total = [&](const char* name) {
    const auto it = selfs.find(name);
    return it == selfs.end() ? 0.0 : it->second.total_ns;
  };
  l.dwm_push_ns_per_window = total("core.dwm_push") / nw;
  l.detect_step_ns = total("core.detect_step") / nw;
  l.health_observe_ns = total("core.health_observe") / nw;
  l.fusion_eval_ns = total("core.fusion_eval") / nw;
  l.monitor_push_ns_per_window = monitor_ns / nw;
  serial_engine(in, cal, prints, chunk, work_dir, l);

  // Wire codec on the workload's own FEED messages.
  double frames = 0.0, bytes = 0.0, enc_ns = 0.0, dec_ns = 0.0;
  for (const std::size_t p : prints) {
    const Print& print = in.prints[p];
    for (std::size_t c = 0; c < print.streams.size(); ++c) {
      const Signal& s = print.streams[c];
      for (std::size_t off = 0; off < s.frames(); off += chunk) {
        nsync::engine::wire::Feed m;
        m.session = p;
        m.channel = in.jobs[print.job].channels[c].name;
        m.frames = SignalView(s).slice(off, std::min(off + chunk, s.frames())).to_signal();
        const nsync::engine::wire::Message msg = m;
        const Clock::time_point t0 = Clock::now();
        const std::vector<std::uint8_t> wire_bytes = nsync::engine::wire::encode(msg);
        const Clock::time_point t1 = Clock::now();
        nsync::engine::wire::FrameDecoder dec;
        dec.feed(wire_bytes);
        nsync::engine::wire::Message out;
        const auto status = dec.next(out);
        const Clock::time_point t2 = Clock::now();
        if (status != nsync::engine::wire::DecodeStatus::kFrame) l.layers_agree = false;
        enc_ns += static_cast<double>(ns_between(t0, t1));
        dec_ns += static_cast<double>(ns_between(t1, t2));
        frames += static_cast<double>(m.frames.frames());
        bytes += static_cast<double>(wire_bytes.size());
      }
    }
  }
  l.encode_ns_per_frame = enc_ns / frames;
  l.decode_ns_per_frame = dec_ns / frames;
  l.bytes_per_frame = bytes / frames;
  return l;
}

WireLoopback measure_wire_loopback(const Inputs& in, const Calibration& cal,
                                   const std::vector<std::size_t>& prints, std::size_t chunk,
                                   const std::string& work_dir, Tracer& tracer) {
  nsync::engine::ShardedFleetOptions fleet_opts;
  fleet_opts.shards = kShards;
  nsync::engine::ShardedFleet fleet(fleet_opts);
  nsync::engine::FleetServerOptions server_opts;
  server_opts.uds_path = work_dir + "/ledger.sock";
  std::filesystem::remove(server_opts.uds_path);
  nsync::engine::FleetServer server(fleet, server_opts);
  server.start();
  nsync::engine::WireClient client = nsync::engine::WireClient::connect_uds(server_opts.uds_path);
  (void)client.hello("fleetbench-ledger");
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < prints.size(); ++i) {
    ids.push_back(client.add_session(make_spec(in, cal, prints[i], "wire-" + std::to_string(i))).session);
  }
  // Round by round as the feeder streams them: every channel's next chunk,
  // then one POLL_STATS with the session details.
  WireLoopback w;
  std::uint64_t span_id = 0;
  const auto timed = [&](const char* name, std::vector<double>& rtt_us, const auto& call) {
    const Scope span(tracer, name, ++span_id);
    const Clock::time_point t0 = Clock::now();
    try {
      call();
    } catch (const nsync::engine::WireError&) {
      ++w.errors;
    }
    rtt_us.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
  };
  bool more = true;
  for (std::size_t off = 0; more; off += chunk) {
    more = false;
    for (std::size_t i = 0; i < prints.size(); ++i) {
      const Print& p = in.prints[prints[i]];
      for (std::size_t c = 0; c < p.streams.size(); ++c) {
        const Signal& s = p.streams[c];
        if (off >= s.frames()) continue;
        const std::size_t hi = std::min(off + chunk, s.frames());
        timed("wire.feed", w.feed_rtt_us, [&] {
          (void)client.feed(ids[i], in.jobs[p.job].channels[c].name, SignalView(s).slice(off, hi));
        });
        more = more || hi < s.frames();
      }
    }
    timed("wire.poll_stats", w.poll_rtt_us, [&] { (void)client.poll_stats(true); });
  }
  client.close();
  server.stop();
  return w;
}

void report_wire_loopback(const WireLoopback& w, Report& report) {
  report.metric("wire.feed_rtt_us_p50", quantile(w.feed_rtt_us, 0.5), "us");
  report.metric("wire.feed_rtt_us_p99", summarize(w.feed_rtt_us).tail, "us");
  report.metric("wire.poll_stats_rtt_us_p99", summarize(w.poll_rtt_us).tail, "us");
  report.metric("wire.errors", static_cast<double>(w.errors), "count");
  report.detail("wire loopback (this workload's FEEDs through an in-process FleetServer): FEED rtt " +
                summarize(w.feed_rtt_us).describe("us") + ", POLL_STATS rtt " +
                summarize(w.poll_rtt_us).describe("us"));
}

void report_ledger(const Ledger& l, Report& report) {
  report.metric("dsp.rfft_ns", l.rfft_ns, "ns");
  report.metric("dsp.sliding_pearson_ns", l.sliding_pearson_ns, "ns");
  report.metric("dsp.tdeb_ns", l.tdeb_ns, "ns");
  report.metric("core.dwm_push_ns_per_window", l.dwm_push_ns_per_window, "ns");
  report.metric("core.detect_step_ns", l.detect_step_ns, "ns");
  report.metric("core.health_observe_ns", l.health_observe_ns, "ns");
  report.metric("core.fusion_eval_ns", l.fusion_eval_ns, "ns");
  report.metric("core.monitor_push_ns_per_window", l.monitor_push_ns_per_window, "ns");
  report.metric("engine.poll_inline_ns_per_window", l.poll_inline_ns_per_window, "ns");
  report.metric("wire.encode_ns_per_frame", l.encode_ns_per_frame, "ns");
  report.metric("wire.decode_ns_per_frame", l.decode_ns_per_frame, "ns");
  report.metric("wire.bytes_per_frame", l.bytes_per_frame, "bytes");
  // Self times per window: DwmSynchronizer::push contains the TDEB call
  // (modelled child, one per window), the other spans have no children.
  const double dwm_self = l.dwm_push_ns_per_window - l.tdeb_ns;
  const double layers =
      dwm_self + l.tdeb_ns + l.detect_step_ns + l.health_observe_ns + l.fusion_eval_ns;
  report.metric("ledger.residual_share", 1.0 - layers / l.poll_inline_ns_per_window,
                "ratio");
  std::ostringstream out;
  out << "ledger per window (ns): dwm_push self " << dwm_self << " + tdeb "
      << l.tdeb_ns << " (modelled: 1 call/window; rfft " << l.rfft_ns
      << " ns and sliding_pearson " << l.sliding_pearson_ns
      << " ns per call are its kernels) + detect " << l.detect_step_ns
      << " + health " << l.health_observe_ns << " + fusion " << l.fusion_eval_ns
      << " = " << layers << " vs serial poll_inline " << l.poll_inline_ns_per_window
      << " (RealtimeMonitor::push " << l.monitor_push_ns_per_window << ")";
  report.detail(out.str());
}

void report_ledger_state(const Ledger& l, Report& report) {
  report.metric("ckpt.bytes_per_session", l.ckpt_bytes_per_session, "bytes");
  report.metric("ckpt.checkpoint_all_ms", l.ckpt_checkpoint_ms, "ms");
  report.metric("ckpt.restore_ms", l.ckpt_restore_ms, "ms");
  report.metric("engine.evict_ns", l.evict_ns, "ns");
  report.metric("baseline.folds", l.baseline_folds, "count");
  report.metric("baseline.frozen", l.baseline_frozen, "count");
}

}  // namespace fleetbench
