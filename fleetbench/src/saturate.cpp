// saturate: the closed-loop, in-process ShardedFleet workload.
//
// One feeder thread (this one) streams 32 concurrent sessions chunk by
// chunk, as fast as the fleet's kBlock backpressure allows.  When a print's
// last frame is accepted the slot starts its next print at once and the
// finished session goes to a control thread, which polls its snapshot
// until every frame is processed, records the verdict and the latency
// from the last accepted frame to the visible verdict, and evicts it.  The
// control thread also admits each slot's next session ahead of time.
// Verdicts are checked against the single-threaded oracle after the
// measured phase, so the replay does not compete with the fleet for cores.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/sharded_fleet.hpp"
#include "oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "signal/signal.hpp"
#include "workloads.hpp"

namespace fleetbench {

namespace {

using nsync::engine::FeedStatus;
using nsync::engine::ShardedFleet;
using nsync::engine::ShardedFleetOptions;
using nsync::signal::SignalView;

/// Concurrent sessions; a multiple of kShards so every shard serves the
/// same number of them.
constexpr std::size_t kSlots = 32;
/// Frames per feed() call, as the deployed client chunks them.
constexpr std::size_t kChunk = 256;
/// Per-shard queue bound in frames (64 feed chunks, a few ms of work per
/// shard): deep enough that a feeder blocked on one full shard does not
/// starve the others, shallow enough that a verdict waits on processing
/// rather than an arbitrarily deep backlog.
constexpr std::size_t kQueueFrames = 16384;
/// Set-up repetitions per run; setup_s is the median.
constexpr std::size_t kSetups = 9;
/// Fresh fleets an untraced run measures in turn, each for an equal share
/// of --seconds; every figure is the median over them.  Throughput differs
/// more between fleets (where their threads land) than between the
/// segments of one fleet's run.
constexpr std::size_t kFleets = 4;
/// Cold restarts timed after the run (restore_s).
constexpr std::size_t kRestarts = 25;
/// Rates and latency percentiles are computed per segment of this many
/// seconds and reported as the median over segments, so a transient stall
/// moves one segment, not the run's figure.
constexpr double kSegmentS = 1.0;
/// Control-thread poll period while a handed-off print is processing.
constexpr int kPollUs = 250;

/// A print being streamed in one slot.
struct Active {
  std::size_t session = 0;
  std::size_t print = 0;
  std::vector<std::size_t> cursor;  ///< frames fed per channel
};

/// A fully fed print awaiting its verdict.
struct Draining {
  std::size_t session = 0;
  std::size_t print = 0;
  Clock::time_point last_fed;
};

/// A verdict the control thread saw, checked against the oracle afterwards.
struct Observed {
  std::size_t print = 0;
  double at_s = 0.0;        ///< when it became visible, since measuring began
  double latency_ms = 0.0;  ///< last frame accepted -> verdict visible
  Verdict verdict;
  std::vector<nsync::core::Thresholds> thresholds;
  std::size_t frames = 0;
};

class SaturateRun {
 public:
  SaturateRun(const RunContext& ctx, const Inputs& in, const Calibration& cal)
      : ctx_(ctx), in_(in), cal_(cal), ready_(kSlots) {
    opts_.shards = kShards;
    opts_.queue_capacity_frames = kQueueFrames;
    opts_.overflow = nsync::engine::OverflowPolicy::kBlock;
  }

  /// Builds the fleet, admits the first wave and feeds until the first
  /// frame is accepted; returns the seconds it took.
  double setup_fleet() {
    const Clock::time_point t0 = Clock::now();
    fleet_.reset();
    fleet_ = std::make_unique<ShardedFleet>(opts_);
    active_.clear();
    for (auto& r : ready_) r.clear();
    for (std::size_t s = 0; s < kSlots; ++s) active_.push_back(admit(s));
    feed_chunk(active_[0], 0);
    return seconds_since(t0);
  }

  /// Streams for `seconds` and reports.
  void measure(bool trace, Report& report, double seconds);

  [[nodiscard]] double windows_per_s() const { return windows_per_s_; }

 private:
  std::size_t next_print(std::size_t slot) {
    // Slot s cycles through the prints of its own job: one job per slot,
    // no sharing of references.
    const std::size_t k = prints_started_++;
    const std::size_t per_job = in_.prints.size() / in_.jobs.size();
    return (slot % in_.jobs.size()) * per_job + (k / kSlots + slot) % per_job;
  }

  Active admit(std::size_t slot) {
    Active a;
    a.print = next_print(slot);
    a.cursor.assign(in_.jobs[in_.prints[a.print].job].channels.size(), 0);
    const Clock::time_point t0 = Clock::now();
    a.session = fleet_->add_session(
        make_spec(in_, cal_, a.print, "print-" + std::to_string(names_++)));
    admit_ms_.push_back(seconds_since(t0) * 1e3);
    admit_at_s_.push_back(std::chrono::duration<double>(t0 - t0_).count());
    return a;
  }

  /// Feeds the next chunk of one channel; false once that channel is done.
  bool feed_chunk(Active& a, std::size_t c) {
    const nsync::signal::Signal& s = in_.prints[a.print].streams[c];
    if (a.cursor[c] >= s.frames()) return false;
    const std::size_t hi = std::min(a.cursor[c] + kChunk, s.frames());
    const auto& name = in_.jobs[in_.prints[a.print].job].channels[c].name;
    const Clock::time_point t0 = Clock::now();
    if (record_gaps_ && last_feed_end_ != Clock::time_point{}) {
      gap_ms_.push_back(static_cast<double>(ns_between(last_feed_end_, t0)) / 1e6);
    }
    const auto r = fleet_->feed(a.session, name, SignalView(s).slice(a.cursor[c], hi));
    last_feed_end_ = Clock::now();
    feed_ns_ += ns_between(t0, last_feed_end_);
    ++feeds_;
    ++attempted_;
    if (r.status != FeedStatus::kOk) ++failed_feeds_;
    shed_ += r.shed_frames;
    a.cursor[c] = hi;
    return true;
  }

  /// Moves slot's next pre-admitted session into service; false if none.
  bool take_ready(std::size_t slot) {
    const std::scoped_lock lock(mu_);
    if (ready_[slot].empty()) return false;
    active_[slot] = std::move(ready_[slot].front());
    ready_[slot].pop_front();
    return true;
  }

  /// Streams until `deadline`, then lets every slot finish its print;
  /// returns the prints fed and the final flush in ms.
  std::pair<std::size_t, double> stream(Tracer& tracer, Clock::time_point deadline);

  void control_loop();
  void verify(const std::vector<Draining>& work, std::vector<std::size_t>& done);
  /// Records a finished print's verdict and evicts its session.
  void retire(const Draining& d, const nsync::engine::SessionSnapshot& snap);

  const RunContext& ctx_;
  const Inputs& in_;
  const Calibration& cal_;
  ShardedFleetOptions opts_;
  std::unique_ptr<ShardedFleet> fleet_;
  std::vector<Active> active_;  ///< feeder-owned; empty cursor = idle slot
  std::size_t prints_started_ = 0;
  std::size_t names_ = 0;

  // Feeder-side counters.
  std::int64_t feed_ns_ = 0;
  std::uint64_t feeds_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_feeds_ = 0;
  std::uint64_t shed_ = 0;
  /// Generator lag of the closed loop (traced runs): the feeder's gap
  /// between one feed() returning and its next feed() call.
  bool record_gaps_ = false;
  Clock::time_point last_feed_end_{};
  std::vector<double> gap_ms_;

  // Shared between the feeder and the control thread, guarded by mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  /// Pre-admitted next sessions per slot.  Admissions come in groups of
  /// kShards consecutive slots, so ids (assigned densely, shard = id mod
  /// kShards) keep slot s on shard s mod kShards and every shard serves
  /// the same number of streaming sessions.
  std::vector<std::deque<Active>> ready_;
  std::vector<Draining> draining_;
  bool admitting_ = true;
  bool stop_ = false;
  // Control-thread-owned until it is joined (admit_ms_ also by setup).
  std::vector<double> admit_ms_;
  std::vector<double> admit_at_s_;
  std::vector<Observed> observed_;
  Clock::time_point t0_ = Clock::now();  ///< measurement start
  std::vector<double> evict_ns_;

  double windows_per_s_ = 0.0;
};

// The control thread keeps a pre-admitted session ready for every slot,
// so admission (which holds the fleet's registry lock while it waits for
// the shard's current batch) never stalls the feeder, and it verifies and
// evicts handed-off prints.
void SaturateRun::control_loop() {
  for (;;) {
    std::vector<Draining> work;
    std::vector<std::size_t> need;  // first slot of each group to refill
    {
      const std::scoped_lock lock(mu_);
      if (stop_ && draining_.empty()) return;
      work = draining_;
      for (std::size_t s = 0; admitting_ && s < ready_.size(); ++s) {
        if (ready_[s].empty() && (need.empty() || need.back() != s - s % kShards)) {
          need.push_back(s - s % kShards);
        }
      }
    }
    for (const std::size_t first : need) {
      for (std::size_t s = first; s < first + kShards; ++s) {
        Active a = admit(s);
        const std::scoped_lock lock(mu_);
        ready_[s].push_back(std::move(a));
      }
    }
    std::vector<std::size_t> done;
    verify(work, done);
    if (!done.empty()) {
      const std::scoped_lock lock(mu_);
      std::erase_if(draining_, [&](const Draining& d) {
        return std::find(done.begin(), done.end(), d.session) != done.end();
      });
    }
    if (!done.empty() || !need.empty()) {
      cv_.notify_all();
    } else {
      // Poll period: bounds the verdict-latency resolution at ~kPollUs.
      std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    }
  }
}

void SaturateRun::verify(const std::vector<Draining>& work, std::vector<std::size_t>& done) {
  // A shard processes its queue in order, so its handed-off prints finish
  // roughly in hand-off order: check each shard's oldest first and move
  // on at the first one still processing (a snapshot waits for the
  // shard's current batch).
  std::vector<bool> shard_busy(kShards, false);
  for (const Draining& d : work) {
    const std::size_t shard = fleet_->shard_of(d.session);
    if (shard_busy[shard]) continue;
    const nsync::engine::SessionSnapshot snap = fleet_->snapshot(d.session);
    const Print& p = in_.prints[d.print];
    bool complete = snap.channels.size() == p.streams.size();
    for (std::size_t c = 0; complete && c < p.streams.size(); ++c) {
      complete = snap.channels[c].frames_fed == p.streams[c].frames() &&
                 snap.channels[c].pending_frames == 0;
    }
    if (!complete) {
      shard_busy[shard] = true;
      continue;
    }
    retire(d, snap);
    done.push_back(d.session);
  }
}

void SaturateRun::retire(const Draining& d, const nsync::engine::SessionSnapshot& snap) {
  Observed o;
  o.print = d.print;
  o.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - d.last_fed).count();
  o.at_s = seconds_since(t0_);
  o.verdict = verdict_of(snap);
  for (const auto& c : snap.channels) {
    o.thresholds.push_back(c.thresholds);
    o.frames += c.frames_fed;
  }
  observed_.push_back(std::move(o));
  const Clock::time_point t0 = Clock::now();
  fleet_->evict_session(d.session);
  evict_ns_.push_back(static_cast<double>(ns_between(t0, Clock::now())));
}

std::pair<std::size_t, double> SaturateRun::stream(Tracer& tracer, Clock::time_point deadline) {
  std::thread control([this] { control_loop(); });
  std::size_t prints_done = 0;
  bool admitting = true;
  std::uint64_t window_id = 0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (admitting && now >= deadline) {
      admitting = false;
      const std::scoped_lock lock(mu_);
      admitting_ = false;
    }
    bool fed_any = false;
    bool waiting = false;
    for (std::size_t slot = 0; slot < active_.size(); ++slot) {
      Active& a = active_[slot];
      if (a.cursor.empty()) {
        // Idle slot: after the deadline it retires, before it starts the
        // pre-admitted next print as soon as there is one.
        if (!admitting) continue;
        if (!take_ready(slot)) {
          waiting = true;
          continue;
        }
      }
      bool fed = false;
      {
        const Scope span(tracer, "engine.feed", ++window_id);
        for (std::size_t c = 0; c < a.cursor.size(); ++c) fed = feed_chunk(a, c) || fed;
      }
      if (fed) {
        fed_any = true;
        continue;
      }
      {
        const std::scoped_lock lock(mu_);
        draining_.push_back({a.session, a.print, Clock::now()});
      }
      cv_.notify_all();
      ++prints_done;
      a.cursor.clear();
      if (admitting) {
        if (take_ready(slot)) {
          fed_any = true;
        } else {
          waiting = true;
        }
      }
    }
    if (!fed_any) {
      if (!waiting) break;
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  const Clock::time_point fed_end = Clock::now();
  fleet_->flush();
  const double flush_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - fed_end).count();
  {
    const std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  control.join();
  return {prints_done, flush_ms};
}

void SaturateRun::measure(bool trace, Report& report, double seconds) {
  Tracer tracer(trace);
  record_gaps_ = trace;
  const Usage u0 = usage_now();
  const HostTicks h0 = host_ticks();
  const std::size_t admitted0 = admit_ms_.size();
  t0_ = Clock::now();
  const Clock::time_point t0 = t0_;
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const std::int64_t in_feed_ns0 = feed_ns_;
  const auto [prints_done, flush_ms] = stream(tracer, deadline);
  const double wall = seconds_since(t0);
  const Usage u1 = usage_now();
  const HostTicks h1 = host_ticks();
  const double feeder_busy_ns = static_cast<double>(feed_ns_ - in_feed_ns0);

  // Verdict check, untimed: one oracle replay per distinct
  // (print, thresholds) pair.
  Oracle oracle(in_);
  std::uint64_t mismatches = 0;
  std::uint64_t windows = 0;
  std::uint64_t frames = 0;
  std::uint64_t benign_alarms = 0;
  std::uint64_t attacked = 0;
  std::uint64_t detected = 0;
  for (const Observed& o : observed_) {
    const std::string why = compare(o.verdict, oracle.expect(o.print, o.thresholds));
    if (!why.empty()) {
      ++mismatches;
      if (mismatches <= 5) report.detail("MISMATCH print " + std::to_string(o.print) + ": " + why);
    }
    for (const auto& c : o.verdict.channels) windows += c.windows;
    frames += o.frames;
    if (in_.prints[o.print].malicious) {
      ++attacked;
      detected += o.verdict.intrusion ? 1 : 0;
    } else {
      benign_alarms += o.verdict.intrusion ? 1 : 0;
    }
  }
  const bool all_seen = observed_.size() == prints_done;
  if (!all_seen) ++mismatches;

  // Per-segment figures over the full segments of the measured phase.
  const auto n_seg = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kSegmentS));
  const double seg_s = std::min(kSegmentS, seconds);
  struct Segment {
    double windows = 0.0, prints = 0.0, frames = 0.0;
    std::vector<double> latency_ms, admit_ms;
  };
  std::vector<Segment> segs(n_seg);
  const auto seg_of = [&](double at_s) {
    return static_cast<std::size_t>(std::max(0.0, at_s) / seg_s);
  };
  std::vector<double> latency_ms;
  for (const Observed& o : observed_) {
    latency_ms.push_back(o.latency_ms);
    const std::size_t k = seg_of(o.at_s);
    if (k >= n_seg) continue;
    for (const auto& c : o.verdict.channels) segs[k].windows += static_cast<double>(c.windows);
    segs[k].frames += static_cast<double>(o.frames);
    segs[k].prints += 1.0;
    segs[k].latency_ms.push_back(o.latency_ms);
  }
  std::vector<double> admit_ms;
  for (std::size_t i = admitted0; i < admit_ms_.size(); ++i) {
    admit_ms.push_back(admit_ms_[i]);
    const std::size_t k = seg_of(admit_at_s_[i]);
    if (k < n_seg) segs[k].admit_ms.push_back(admit_ms_[i]);
  }
  std::vector<double> seg_wps, seg_pps, seg_fps, seg_p50, seg_tail, seg_admit;
  for (const Segment& g : segs) {
    seg_wps.push_back(g.windows / seg_s);
    seg_pps.push_back(g.prints / seg_s);
    seg_fps.push_back(g.frames / seg_s);
    seg_p50.push_back(quantile(g.latency_ms, 0.5));
    seg_tail.push_back(summarize(g.latency_ms).tail);
    seg_admit.push_back(summarize(g.admit_ms).tail);
  }
  const nsync::engine::FleetStats st = fleet_->stats();
  windows_per_s_ = median(seg_wps);
  const Percentiles lat = summarize(latency_ms);
  const Percentiles adm = summarize(admit_ms);
  const Percentiles seg_lat = summarize(segs[0].latency_ms);
  const Percentiles seg_adm = summarize(segs[0].admit_ms);

  report.attempted += attempted_ + observed_.size();
  report.failed += failed_feeds_ + mismatches;
  report.correct = report.correct && mismatches == 0;

  if (!trace) {
    report.metric("windows_per_s", windows_per_s_, "windows/s");
    report.metric("prints_per_s", median(seg_pps), "prints/s");
    report.info("verdict_latency_p50_ms", median(seg_p50), "ms");
    report.info("sustained_frames_per_s", median(seg_fps), "frames/s");
    report.info("verdict_latency_p99_ms", median(seg_tail), "ms");
    report.info("admit_p99_ms", median(seg_admit), "ms");
  }
  report.detail("prints verified " + std::to_string(observed_.size()) +
                " (attacked " + std::to_string(attacked) + ", detected " +
                std::to_string(detected) + "; benign alarms " +
                std::to_string(benign_alarms) + ", informational), oracle replays " +
                std::to_string(oracle.replays()) + ", mismatches " +
                std::to_string(mismatches));
  report.detail("verdict latency (last frame accepted -> verdict visible) " +
                lat.describe("ms") + "; admission " + adm.describe("ms"));
  std::ostringstream segs_line;
  segs_line << "per-segment figures are medians over " << n_seg << " segments of " << seg_s
            << " s; prints/s by segment:";
  for (const double v : seg_pps) segs_line << " " << v;
  segs_line << "; segment 1: latency " << seg_lat.describe("ms") << ", admission "
            << seg_adm.describe("ms");
  report.detail(segs_line.str());
  report.detail("wall " + std::to_string(wall) + " s, windows " + std::to_string(windows) +
                ", frames " + std::to_string(frames) + ", host steal " +
                std::to_string(100.0 * steal_share(h0, h1)) + "% of CPU time");
  if (!trace) return;

  // Per-layer counters of the traced run.
  std::uint64_t peak_q = 0;
  double max_w = 0.0, sum_w = 0.0;
  std::uint64_t ckpt_writes = 0;
  for (const auto& s : st.per_shard) {
    peak_q = std::max<std::uint64_t>(peak_q, s.queue.peak_queued_frames);
    max_w = std::max(max_w, static_cast<double>(s.windows));
    sum_w += static_cast<double>(s.windows);
    ckpt_writes += s.checkpoints_written;
  }
  const double kwin = static_cast<double>(windows) / 1e3;
  report.metric("engine.feed_ns", static_cast<double>(feed_ns_) /
                                      static_cast<double>(std::max<std::uint64_t>(feeds_, 1)),
                "ns");
  report.metric("engine.feed_blocked_share", feeder_busy_ns / (wall * 1e9), "ratio");
  report.metric("engine.flush_ms", flush_ms, "ms");
  report.metric("engine.queued_frames_peak", static_cast<double>(peak_q), "frames");
  report.metric("engine.shard_windows_skew",
                sum_w > 0 ? max_w / (sum_w / static_cast<double>(st.per_shard.size())) : 0.0,
                "ratio");
  report.metric("engine.shed_frames", static_cast<double>(shed_), "frames");
  report.metric("engine.add_session_ms", adm.p50, "ms");
  report.metric("bench.generator_lag_p99_ms", summarize(gap_ms_).tail, "ms");
  report.metric("runtime.workers", static_cast<double>(nsync::runtime::worker_count()), "threads");
  const double cores = static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  report.metric("runtime.cpu_util",
                (u1.user_s + u1.sys_s - u0.user_s - u0.sys_s) / (wall * cores), "ratio");
  report.metric("runtime.invol_csw_per_kwindow",
                static_cast<double>(u1.invol_csw - u0.invol_csw) / kwin, "count");
  report.metric("runtime.minflt_per_kwindow",
                static_cast<double>(u1.minflt - u0.minflt) / kwin, "count");
  // The fleet runs without checkpoints; this reads its shards' counters.
  report.metric("ckpt.writes_per_print",
                static_cast<double>(ckpt_writes) /
                    static_cast<double>(std::max<std::size_t>(observed_.size(), 1)),
                "count");
  const auto selfs = tracer.self_times();
  if (auto it = selfs.find("engine.feed"); it != selfs.end()) {
    report.detail("traced feeder: engine.feed spans " + std::to_string(it->second.count) +
                  ", self " + std::to_string(it->second.self_ns / 1e6) + " ms");
  }
  tracer.write_csv(ctx_.work_dir + "/spans-feeder.csv");
}

/// Folds the reports of the fleets measured in turn into `report`: every
/// metric is the median over fleets, the counts add up, details are kept.
void merge_median(const std::vector<Report>& fleets, Report& report) {
  for (std::size_t m = 0; m < fleets[0].metrics.size(); ++m) {
    std::vector<double> values;
    for (const Report& f : fleets) values.push_back(f.metrics.at(m).value);
    Metric merged = fleets[0].metrics[m];
    merged.value = median(values);
    report.metrics.push_back(merged);
  }
  for (std::size_t k = 0; k < fleets.size(); ++k) {
    report.correct = report.correct && fleets[k].correct;
    report.attempted += fleets[k].attempted;
    report.failed += fleets[k].failed;
    for (const std::string& d : fleets[k].details) {
      report.detail("fleet " + std::to_string(k + 1) + "/" + std::to_string(fleets.size()) +
                    ": " + d);
    }
  }
}

}  // namespace

void run_saturate(const RunContext& ctx, Report& report) {
  const Clock::time_point g0 = Clock::now();
  const Inputs in = compact_inputs(ctx.seed, kSlots, 4, 4096);
  const double gen_s = seconds_since(g0);
  const double rss_base = rss_mb(0, false);
  // Set-up, repeated: calibration of every distinct reference, fleet
  // start, first admission wave, first accepted frame.
  std::vector<double> setups;
  Calibration cal;
  std::unique_ptr<SaturateRun> run;
  for (std::size_t i = 0; i < kSetups; ++i) {
    run.reset();
    const Clock::time_point t0 = Clock::now();
    cal = calibrate(in);
    const double fit_s = seconds_since(t0);
    run = std::make_unique<SaturateRun>(ctx, in, cal);
    setups.push_back(fit_s + run->setup_fleet());
  }

  if (!ctx.trace) {
    report.metric("setup_s", median(setups), "s");
    std::vector<Report> fleets(kFleets);
    double peak_rss_mb = 0.0;
    for (std::size_t k = 0; k < kFleets; ++k) {
      if (k > 0) {
        run = std::make_unique<SaturateRun>(ctx, in, cal);
        (void)run->setup_fleet();
      }
      run->measure(false, fleets[k], ctx.seconds / static_cast<double>(kFleets));
      // This process's RSS high-water mark over its RSS once inputs
      // existed, after the first fleet: later fleets reuse what the
      // allocator kept, so their high-water mark depends on its history.
      if (k == 0) peak_rss_mb = std::max(rss_mb(0, true) - rss_base, 1e-3);
    }
    merge_median(fleets, report);
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    // restore_s: without checkpoints a restart is a cold rebuild (a new
    // fleet and a re-admitted wave), until a frame is accepted again.
    std::vector<double> restarts;
    for (std::size_t i = 0; i < kRestarts; ++i) restarts.push_back(run->setup_fleet());
    report.info("restore_s", median(restarts), "s");
    return;
  }

  // Traced run: an untraced half for the overhead baseline, a traced half
  // for the engine counters, then the out-of-fleet ledger.
  run->measure(false, report, ctx.seconds / 2.0);
  const double untraced_wps = run->windows_per_s();
  report.metrics.clear();
  run.reset();
  run = std::make_unique<SaturateRun>(ctx, in, cal);
  (void)run->setup_fleet();
  run->measure(true, report, ctx.seconds / 2.0);
  const double traced_wps = run->windows_per_s();
  run.reset();

  std::vector<std::size_t> prints;
  for (std::size_t p = 0; p < in.prints.size(); ++p) prints.push_back(p);
  Tracer tracer(true);
  const Ledger l = measure_ledger(in, cal, prints, kChunk, ctx.work_dir, tracer);
  const WireLoopback w = measure_wire_loopback(in, cal, prints, kChunk, ctx.work_dir, tracer);
  tracer.write_csv(ctx.work_dir + "/spans-ledger.csv");
  report_ledger(l, report);
  report_ledger_state(l, report);
  report_wire_loopback(w, report);
  report.metric("engine.parallel_efficiency",
                untraced_wps / (static_cast<double>(kShards) * 1e9 /
                                l.poll_inline_ns_per_window),
                "ratio");
  report.metric("bench.gen_s", gen_s, "s");
  report.metric("bench.trace_overhead", 1.0 - traced_wps / untraced_wps, "ratio");
  report.failed += w.errors;
  if (!l.layers_agree) {
    report.correct = false;
    ++report.failed;
  }
}

}  // namespace fleetbench
