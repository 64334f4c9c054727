// paced-wire: an open-loop NSFP ladder against a fleet_daemon process.
//
// Sessions stream paper-rate RM3 prints (ACC 400 Hz, AUD 4 kHz, Table IV
// DWM parameters) over a Unix socket.  Every chunk of frames has a fixed
// send time on the wall clock, derived from the channel's sample rate and
// the rung's replay speed; the generator never slows down because the
// daemon does.  A window's verdict latency runs from the scheduled send
// time of the chunk carrying the last frame the window needs to the
// POLL_STATS reply that first shows the window processed, so a stall is
// charged to every window queued behind it.
//
// Frames go out in FEEDs of 256 frames per channel, the chunking of the
// deployed client (fleet_monitor --connect).  The gated throughput comes
// from the ladder's top rung, which offers more than the daemon sustains,
// so it is set by the client->daemon path rather than by the schedule.
//
// Threads and connections: one feeder and one poller, each with its own
// connection, beside the daemon's shard workers.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/wire_client.hpp"
#include "oracle.hpp"
#include "signal/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace fleetbench {

namespace {

using nsync::engine::WireClient;
using nsync::signal::SignalView;
namespace wire = nsync::engine::wire;

/// Concurrent sessions per rung; one in eight streams an attacked print.
constexpr std::size_t kSessions = 32;
/// Latency percentiles are taken per block of this many windows, in the
/// order their verdicts became visible, and reported as block medians.
constexpr std::size_t kLatencyBlock = 1024;
/// Set-up repetitions per run; setup_s is the median.
constexpr std::size_t kSetups = 9;
/// Frames per FEED and channel, as fleet_monitor --connect sends them: at
/// real time 640 ms of ACC (400 Hz) and 64 ms of AUD (4 kHz).  A chunk is
/// due when its last frame would have been sampled.
constexpr std::size_t kChunkFrames = 256;
/// Verdict-poll period; bounds the latency resolution.
constexpr double kPollPeriodS = 0.002;
/// The ladder: replay speed and share of --seconds per rung.  Offered
/// load is kSessions x speed real-time sessions.  The top rung is above
/// what a 4-core host sustains; windows_per_s and prints_per_s are taken
/// there, so it gets the largest share.
struct Rung {
  double speed;
  double share;
};
constexpr Rung kRungs[] = {{2.0, 0.25}, {8.0, 0.25}, {32.0, 0.5}};
constexpr std::size_t kTop = std::size(kRungs) - 1;

/// The fleet_daemon child process.  Stops (SIGTERM, then SIGKILL) and
/// reaps it on destruction.
class Daemon {
 public:
  Daemon(std::string binary, std::string socket, std::string log)
      : binary_(std::move(binary)), socket_(std::move(socket)), log_(std::move(log)) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and returns a connected client once it listens.
  WireClient start() {
    std::filesystem::remove(socket_);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::string shards = std::to_string(kShards);
    std::vector<std::string> args = {binary_, "--listen", socket_, "--shards", shards,
                                     "--idle-timeout-ms", "0"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary_.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary_);
    }
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      try {
        WireClient c = WireClient::connect_uds(socket_);
        (void)c.hello("fleetbench");
        return c;
      } catch (const std::exception&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("fleet_daemon exited during start (see " + log_ + ")");
        }
        if (seconds_since(t0) > 20.0) throw std::runtime_error("fleet_daemon did not listen");
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 5.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string binary_;
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

/// CPU seconds, minor faults and involuntary context switches of a
/// process, from /proc (every thread's switches summed).
struct ProcUsage {
  double cpu_s = 0.0;
  double minflt = 0.0;
  double invol_csw = 0.0;
};
ProcUsage proc_usage(pid_t pid) {
  ProcUsage u;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t close = line.rfind(')');
  if (close != std::string::npos) {
    std::istringstream f(line.substr(close + 2));
    std::vector<std::string> fields;
    std::string x;
    while (f >> x) fields.push_back(x);
    // Fields after the command: state(3) ... minflt(10) ... utime(14) stime(15).
    if (fields.size() > 13) {
      const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
      u.minflt = std::stod(fields[7]);
      u.cpu_s = (std::stod(fields[11]) + std::stod(fields[12])) / tick;
    }
  }
  std::error_code ec;
  for (const auto& t : std::filesystem::directory_iterator(base + "/task", ec)) {
    std::ifstream st(t.path() / "status");
    while (std::getline(st, line)) {
      if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        u.invol_csw += std::stod(line.substr(27));
      }
    }
  }
  return u;
}

/// Threads of a process (/proc/<pid>/status), 0 if unreadable.
double proc_threads(pid_t pid) {
  std::ifstream st("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0.0;
}

/// One session of a rung: which print it streams and its chunk schedule.
struct PacedSession {
  std::uint64_t id = 0;
  std::size_t print = 0;
  double phase_s = 0.0;
  std::vector<double> chunk_s;            ///< seconds per chunk, per channel
  std::vector<std::size_t> limit;         ///< frames streamed, per channel
  std::vector<std::size_t> seen_windows;  ///< poller-side progress
  /// Frames sent so far per channel (feeder writes, poller reads).
  std::unique_ptr<std::atomic<std::size_t>[]> sent;
};

struct RungResult {
  double speed = 0.0;
  double offered_fps = 0.0;
  double delivered_fps = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  double queued_peak = 0.0;      ///< POLL_STATS queued_frames
  double backlog_first = 0.0;    ///< windows due but not yet visible
  double backlog_last = 0.0;
  bool backlog_grows = false;
  bool sustained = false;
  // Per wave, from the first due frame until every verdict is visible.
  std::vector<double> wave_windows;
  std::vector<double> wave_wall_s;
  std::vector<bool> wave_traced;
};

class PacedRun {
 public:
  PacedRun(const RunContext& ctx, const Inputs& in)
      : ctx_(ctx), in_(in), oracle_(in), rng_(ctx.seed ^ 0x5EEDu),
        daemon_(ctx.daemon_path, ctx.work_dir + "/fleet.sock",
                ctx.work_dir + "/daemon.log") {
    for (const ChannelJob& c : in.jobs[0].channels) {
      const double rate = c.reference.sample_rate();
      frames_per_s_ += rate;
      windows_per_s_ += rate / static_cast<double>(c.config.dwm.n_hop);
      hop_s_ = std::max(hop_s_, static_cast<double>(c.config.dwm.n_hop) / rate);
    }
  }

  void run(Report& report);

 private:
  /// Starts a daemon and admits the rung's sessions; returns the seconds
  /// until the first frame is accepted.
  double start_fleet(double speed, double stream_s) {
    const Clock::time_point t0 = Clock::now();
    feeder_.reset();
    poller_.reset();
    daemon_.stop();
    feeder_ = std::make_unique<WireClient>(daemon_.start());
    poller_ = std::make_unique<WireClient>(WireClient::connect_uds(daemon_.socket()));
    admit(speed, stream_s);
    send(wave_[0], 0, 0, std::min(kChunkFrames, wave_[0].limit[0]));
    first_sent_ = true;
    return seconds_since(t0);
  }

  void admit(double speed, double stream_s) {
    wave_.clear();
    std::vector<std::size_t> benign, attacked;
    for (std::size_t p = 0; p < in_.prints.size(); ++p) {
      (in_.prints[p].malicious ? attacked : benign).push_back(p);
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      PacedSession s;
      const auto& pool = i % 8 == 0 ? attacked : benign;  // one in eight
      s.print = pool[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      // Independent prints start at unrelated times: spread each session's
      // start over one hop so window boundaries do not all coincide.
      s.phase_s = rng_.uniform(0.0, hop_s_ / speed);
      const auto& channels = in_.jobs[0].channels;
      s.sent = std::make_unique<std::atomic<std::size_t>[]>(channels.size());
      for (std::size_t c = 0; c < channels.size(); ++c) {
        const double rate = channels[c].reference.sample_rate();
        s.chunk_s.push_back(static_cast<double>(kChunkFrames) / (rate * speed));
        s.limit.push_back(std::min(
            in_.prints[s.print].streams[c].frames(),
            static_cast<std::size_t>(std::llround(rate * stream_s))));
        s.sent[c].store(0);
      }
      s.seen_windows.assign(channels.size(), 0);
      std::string name = "w";
      name += std::to_string(waves_);
      name += "-s";
      name += std::to_string(i);
      const nsync::engine::SessionSpec spec = make_spec(in_, cal_, s.print, name);
      const Clock::time_point t0 = Clock::now();
      s.id = feeder_->add_session(spec).session;
      admit_ms_.push_back(seconds_since(t0) * 1e3);
      ++attempted_;
      wave_.push_back(std::move(s));
    }
    ++waves_;
    first_sent_ = false;
  }

  /// FEED of frames [lo, hi) of one channel; records the round trip.
  void send(PacedSession& s, std::size_t c, std::size_t lo, std::size_t hi) {
    const auto& stream = in_.prints[s.print].streams[c];
    const Scope span(tracing_ ? feed_tracer_ : untraced_, "wire.feed", ++feeds_);
    const Clock::time_point t0 = Clock::now();
    try {
      (void)feeder_->feed(s.id, in_.jobs[0].channels[c].name, SignalView(stream).slice(lo, hi));
    } catch (const nsync::engine::WireError&) {
      ++wire_errors_;
    }
    feed_rtt_us_.push_back(seconds_since(t0) * 1e6);
    s.sent[c].store(hi);
    ++attempted_;
  }

  [[nodiscard]] static Clock::time_point due(Clock::time_point start, const PacedSession& s,
                                             std::size_t c, std::size_t chunk) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                       s.phase_s + static_cast<double>(chunk + 1) * s.chunk_s[c]));
  }

  void feed_schedule(Clock::time_point start, RungResult& rung, std::size_t& frames);
  std::vector<wire::StatsSession> poll(Clock::time_point start, RungResult& rung,
                                       const std::atomic<bool>& sending,
                                       std::vector<std::pair<double, double>>& backlog);
  void stream_rung(RungResult& rung);

 public:
  /// Median over the top rung's untraced (or traced) waves of windows, or
  /// prints, per second of the wave.  Every wave is untraced unless
  /// --trace 1, which alternates traced and untraced waves.
  [[nodiscard]] double top_rate(bool traced, bool prints) const;

 private:
  const RunContext& ctx_;
  const Inputs& in_;
  Calibration cal_;
  Oracle oracle_;
  nsync::signal::Rng rng_;
  Daemon daemon_;
  std::unique_ptr<WireClient> feeder_;
  std::unique_ptr<WireClient> poller_;
  std::vector<PacedSession> wave_;
  std::size_t waves_ = 0;
  bool first_sent_ = false;  ///< chunk 0 of session 0 went out at set-up
  double frames_per_s_ = 0.0;   ///< one session at real time
  double windows_per_s_ = 0.0;  ///< one session at real time
  double hop_s_ = 0.0;

  std::vector<double> feed_rtt_us_;  ///< feeder thread only
  std::vector<double> poll_rtt_us_;  ///< poller thread only
  std::vector<double> admit_ms_;
  std::uint64_t wire_errors_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t prints_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t benign_alarms_ = 0;
  std::uint64_t detected_ = 0;
  std::uint64_t attacked_ = 0;
  double stream_wall_s_ = 0.0;
  std::vector<double> flush_ms_;
  double daemon_hwm_mb_ = 0.0;  ///< over rungs without a growing backlog
  std::vector<double> shard_skew_;
  // Daemon counters from the last POLL_STATS of the current daemon, and
  // their sums over the rungs (one daemon each).
  double daemon_shed_ = 0.0;
  double daemon_ckpts_ = 0.0;
  double shed_frames_ = 0.0;
  double ckpt_writes_ = 0.0;
  std::vector<RungResult> rungs_;

  // --trace 1: FEED spans (feeder thread) and POLL_STATS spans (poller
  // thread) in separate tracers; waves of the top rung alternate.
  bool tracing_ = false;
  Tracer untraced_{false};
  Tracer feed_tracer_{true};
  Tracer poll_tracer_{true};
  std::uint64_t feeds_ = 0;
  std::uint64_t polls_ = 0;
};

double PacedRun::top_rate(bool traced, bool prints) const {
  const RungResult& top = rungs_.at(kTop);
  std::vector<double> rates;
  for (std::size_t w = 0; w < top.wave_windows.size(); ++w) {
    if (top.wave_traced[w] != traced) continue;
    const double done = prints ? static_cast<double>(kSessions) : top.wave_windows[w];
    rates.push_back(done / top.wave_wall_s[w]);
  }
  return median(rates);
}

void PacedRun::feed_schedule(Clock::time_point start, RungResult& rung, std::size_t& frames) {
  struct Stream {
    std::size_t session;
    std::size_t channel;
    std::size_t next_chunk;
  };
  std::vector<Stream> streams;
  for (std::size_t s = 0; s < wave_.size(); ++s) {
    for (std::size_t c = 0; c < wave_[s].chunk_s.size(); ++c) {
      const bool sent = first_sent_ && s == 0 && c == 0;
      streams.push_back({s, c, sent ? std::size_t{1} : std::size_t{0}});
    }
  }
  for (;;) {
    Stream* next = nullptr;
    Clock::time_point next_due = Clock::time_point::max();
    for (Stream& st : streams) {
      const PacedSession& s = wave_[st.session];
      if (st.next_chunk * kChunkFrames >= s.limit[st.channel]) continue;
      const Clock::time_point d = due(start, s, st.channel, st.next_chunk);
      if (d < next_due) {
        next_due = d;
        next = &st;
      }
    }
    if (next == nullptr) return;
    std::this_thread::sleep_until(next_due);
    PacedSession& s = wave_[next->session];
    const std::size_t lo = next->next_chunk * kChunkFrames;
    const std::size_t hi = std::min(lo + kChunkFrames, s.limit[next->channel]);
    rung.lag_ms.push_back(std::max(
        0.0, std::chrono::duration<double, std::milli>(Clock::now() - next_due).count()));
    send(s, next->channel, lo, hi);
    frames += hi - lo;
    ++next->next_chunk;
  }
}

std::vector<wire::StatsSession> PacedRun::poll(
    Clock::time_point start, RungResult& rung, const std::atomic<bool>& sending,
    std::vector<std::pair<double, double>>& backlog) {
  const Job& job = in_.jobs[0];
  std::vector<std::vector<std::size_t>> expected;
  for (const PacedSession& s : wave_) {
    expected.push_back({});
    const Verdict v = truncate(oracle_.expect(s.print, cal_[0]), job, s.limit);
    for (const auto& c : v.channels) expected.back().push_back(c.windows);
  }
  Clock::time_point tick = Clock::now();
  for (;;) {
    tick += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kPollPeriodS));
    std::this_thread::sleep_until(tick);
    const bool was_sending = sending.load();
    const Clock::time_point t0 = Clock::now();
    const wire::Stats st = [&] {
      const Scope span(tracing_ ? poll_tracer_ : untraced_, "wire.poll_stats", ++polls_);
      return poller_->poll_stats(true);
    }();
    const Clock::time_point seen = Clock::now();
    poll_rtt_us_.push_back(std::chrono::duration<double, std::micro>(seen - t0).count());
    rung.queued_peak = std::max(rung.queued_peak, static_cast<double>(st.queued_frames));
    bool done = true;
    double due_not_seen = 0.0;
    for (std::size_t i = 0; i < wave_.size(); ++i) {
      PacedSession& s = wave_[i];
      const wire::StatsSession& d = st.sessions_detail.at(s.id);
      for (std::size_t c = 0; c < s.seen_windows.size() && c < d.channels.size(); ++c) {
        const auto& cfg = job.channels[c].config.dwm;
        const std::size_t now_w = d.channels[c].windows;
        for (std::size_t j = s.seen_windows[c]; j < now_w; ++j) {
          const std::size_t last_frame = j * cfg.n_hop + cfg.n_win - 1;
          rung.latency_ms.push_back(std::chrono::duration<double, std::milli>(
              seen - due(start, s, c, last_frame / kChunkFrames)).count());
        }
        s.seen_windows[c] = std::max(s.seen_windows[c], now_w);
        if (now_w < expected[i][c]) done = false;
        // Windows whose frames are all sent but whose verdicts are not
        // visible yet: the backlog in the unit of work.
        const std::size_t sent = s.sent[c].load();
        const std::size_t sendable =
            sent < cfg.n_win ? 0 : std::min((sent - cfg.n_win) / cfg.n_hop + 1, expected[i][c]);
        due_not_seen += static_cast<double>(sendable - std::min(sendable, now_w));
      }
    }
    if (was_sending) {
      backlog.push_back({std::chrono::duration<double>(seen - start).count(), due_not_seen});
    }
    if (done && !was_sending) {
      std::vector<wire::StatsSession> out;
      for (const PacedSession& s : wave_) out.push_back(st.sessions_detail.at(s.id));
      double max_w = 0.0, sum_w = 0.0;
      for (const auto& sh : st.per_shard) {
        max_w = std::max(max_w, static_cast<double>(sh.windows));
        sum_w += static_cast<double>(sh.windows);
      }
      if (sum_w > 0) shard_skew_.push_back(max_w * static_cast<double>(st.per_shard.size()) / sum_w);
      // The daemon's counters are cumulative; the last wave of a rung
      // leaves its daemon's totals here.
      daemon_shed_ = static_cast<double>(st.shed_frames);
      daemon_ckpts_ = 0.0;
      for (const auto& sh : st.per_shard) daemon_ckpts_ += static_cast<double>(sh.checkpoints_written);
      return out;
    }
    if (seconds_since(start) > 150.0) throw std::runtime_error("paced-wire: verdicts never completed");
  }
}

void PacedRun::stream_rung(RungResult& rung) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  std::atomic<bool> sending{true};
  std::vector<std::pair<double, double>> backlog;
  std::optional<std::vector<wire::StatsSession>> final_stats;
  std::exception_ptr poll_error;
  std::thread poller([&] {
    try {
      final_stats = poll(start, rung, sending, backlog);
    } catch (...) {
      poll_error = std::current_exception();
    }
  });
  std::size_t frames = 0;
  try {
    feed_schedule(start, rung, frames);
  } catch (...) {
    sending.store(false);
    poller.join();
    throw;
  }
  const Clock::time_point sent_end = Clock::now();
  sending.store(false);
  poller.join();
  if (poll_error) std::rethrow_exception(poll_error);
  flush_ms_.push_back(std::chrono::duration<double, std::milli>(Clock::now() - sent_end).count());
  const double wall_s = seconds_since(start);
  stream_wall_s_ += wall_s;
  rung.delivered_fps += static_cast<double>(frames) /
                        std::chrono::duration<double>(sent_end - start).count();
  // A backlog that grows over the sending phase: compare its first and
  // last thirds, allowing one window per session of jitter.
  if (backlog.size() >= 3) {
    const std::size_t k = backlog.size() / 3;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      first += backlog[i].second / static_cast<double>(k);
      last += backlog[backlog.size() - 1 - i].second / static_cast<double>(k);
    }
    rung.backlog_first = std::max(rung.backlog_first, first);
    rung.backlog_last = std::max(rung.backlog_last, last);
    rung.backlog_grows = rung.backlog_grows || last > first + static_cast<double>(wave_.size());
  }
  // Verdicts against the oracle, then the lifecycle ends with EVICT.
  double wave_windows = 0.0;
  for (std::size_t i = 0; i < wave_.size(); ++i) {
    const Verdict f = verdict_of((*final_stats)[i]);
    const Verdict o = truncate(oracle_.expect(wave_[i].print, cal_[0]), in_.jobs[0], wave_[i].limit);
    if (!compare(f, o).empty()) ++mismatches_;
    const bool attacked = in_.prints[wave_[i].print].malicious;
    attacked_ += attacked ? 1 : 0;
    detected_ += attacked && f.intrusion ? 1 : 0;
    benign_alarms_ += !attacked && f.intrusion ? 1 : 0;
    for (const auto& c : f.channels) wave_windows += static_cast<double>(c.windows);
    feeder_->evict(wave_[i].id);
    ++attempted_;
    ++prints_;
  }
  windows_ += static_cast<std::uint64_t>(wave_windows);
  rung.wave_windows.push_back(wave_windows);
  rung.wave_wall_s.push_back(wall_s);
  rung.wave_traced.push_back(tracing_);
}

void PacedRun::run(Report& report) {
  // Each rung runs waves of kSessions prints for its share of the run,
  // each wave streaming the same prefix (the whole print when it fits).
  double print_s = 0.0;
  for (const auto& p : in_.prints) {
    print_s = std::max(print_s, static_cast<double>(p.streams[0].frames()) /
                                    p.streams[0].sample_rate());
  }
  const auto stream_total = [&](std::size_t r) {
    return kRungs[r].share * ctx_.seconds * kRungs[r].speed;
  };
  // --trace 1 alternates traced and untraced waves on the top rung, so it
  // needs two of them.
  const auto waves = [&](std::size_t r) {
    const std::size_t least = ctx_.trace && r == kTop ? 2 : 1;
    return std::max<std::size_t>(least, static_cast<std::size_t>(std::lround(stream_total(r) / print_s)));
  };
  const auto stream_s = [&](std::size_t r) {
    return stream_total(r) / static_cast<double>(waves(r));
  };
  // Set-up, repeated: calibration, daemon start, first admission wave,
  // first accepted frame.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    cal_ = calibrate(in_);
    const double fit_s = seconds_since(t0);
    setups.push_back(fit_s + start_fleet(kRungs[0].speed, stream_s(0)));
  }
  // Replay every distinct print once before the ladder, so the oracle
  // never competes with the daemon for cores while frames are paced.
  for (std::size_t p = 0; p < in_.prints.size(); ++p) (void)oracle_.expect(p, cal_[0]);

  double daemon_cpu = 0.0, daemon_minflt = 0.0, daemon_csw = 0.0;
  const auto account_daemon = [&](const ProcUsage& before) {
    const ProcUsage after = proc_usage(daemon_.pid());
    daemon_cpu += after.cpu_s - before.cpu_s;
    daemon_minflt += after.minflt - before.minflt;
    daemon_csw += after.invol_csw - before.invol_csw;
  };
  std::vector<double> restores;
  std::vector<RungResult>& rungs = rungs_;
  double daemon_threads = 0.0;
  const HostTicks host0 = host_ticks();
  for (std::size_t r = 0; r < std::size(kRungs); ++r) {
    const double speed = kRungs[r].speed;
    if (r > 0) {
      // Checkpointing is off, so a restart is a cold start: a new daemon
      // and the sessions re-admitted, until a frame is accepted again.
      restores.push_back(start_fleet(speed, stream_s(r)));
    }
    const ProcUsage before = proc_usage(daemon_.pid());
    RungResult rung;
    rung.speed = speed;
    rung.offered_fps = static_cast<double>(kSessions) * speed * frames_per_s_;
    for (std::size_t w = 0; w < waves(r); ++w) {
      if (w > 0) admit(speed, stream_s(r));
      tracing_ = ctx_.trace && (r < kTop || w % 2 == 0);
      stream_rung(rung);
    }
    tracing_ = false;
    shed_frames_ += daemon_shed_;
    ckpt_writes_ += daemon_ckpts_;
    if (r == kTop) daemon_threads = proc_threads(daemon_.pid());
    rung.delivered_fps /= static_cast<double>(waves(r));
    account_daemon(before);
    // Each rung has its own daemon.  Past capacity its memory is the
    // backlog, which depends on how far behind it fell, so peak RSS is
    // taken over the rungs that kept up.
    if (!rung.backlog_grows) {
      daemon_hwm_mb_ = std::max(daemon_hwm_mb_, rss_mb(daemon_.pid(), true));
    }
    const Percentiles lat = block_summarize(rung.latency_ms, kLatencyBlock);
    rung.sustained = lat.tail <= 0.1 * hop_s_ * 1e3 && !rung.backlog_grows;
    std::ostringstream line;
    line << "rung " << speed << "x: offered " << rung.offered_fps << " frames/s ("
         << static_cast<double>(kSessions) * speed << " real-time sessions), delivered "
         << rung.delivered_fps << " frames/s, latency " << lat.describe("ms")
         << " (medians over blocks of " << kLatencyBlock << " windows; whole rung "
         << summarize(rung.latency_ms).describe("ms") << ")"
         << ", generator lag " << summarize(rung.lag_ms).describe("ms")
         << ", backlog windows first/last third " << rung.backlog_first << "/"
         << rung.backlog_last << ", POLL_STATS queued_frames peak " << rung.queued_peak
         << ": " << (rung.sustained ? "sustained" : "NOT sustained");
    report.detail(line.str());
    rungs.push_back(std::move(rung));
  }
  const HostTicks host1 = host_ticks();
  feeder_.reset();
  poller_.reset();
  daemon_.stop();

  // The highest rung within the latency limit without a growing backlog;
  // latency is reported there.
  const RungResult* best = nullptr;
  for (const RungResult& r : rungs) {
    if (r.sustained) best = &r;
  }
  if (best == nullptr) {
    best = &rungs.front();
    report.detail("no rung sustained; reporting the lowest");
  }
  const Percentiles lat = block_summarize(best->latency_ms, kLatencyBlock);
  const Percentiles adm = summarize(admit_ms_);
  std::vector<double> lag_all;
  for (const auto& r : rungs) lag_all.insert(lag_all.end(), r.lag_ms.begin(), r.lag_ms.end());

  report.attempted += attempted_;
  report.failed += wire_errors_ + mismatches_;
  report.correct = report.correct && mismatches_ == 0;
  std::ostringstream ctx_line;
  ctx_line << "real-time session: " << frames_per_s_ << " frames/s, " << windows_per_s_
           << " windows/s (sums over channels of sample_rate and sample_rate/n_hop); "
           << "latency limit " << 0.1 * hop_s_ * 1e3 << " ms (10% of the " << hop_s_ * 1e3
           << " ms hop); verdict-poll period " << kPollPeriodS * 1e3 << " ms; FEEDs of "
           << kChunkFrames << " frames per channel; latency reported at rung " << best->speed
           << "x; windows/s and prints/s at the top rung, " << kRungs[kTop].speed
           << "x; host steal " << 100.0 * steal_share(host0, host1) << "% of CPU time";
  report.detail(ctx_line.str());
  report.detail("sessions " + std::to_string(prints_) + " (attacked " +
                std::to_string(attacked_) + ", detected " + std::to_string(detected_) +
                "; benign alarms " + std::to_string(benign_alarms_) +
                ", informational), mismatches " + std::to_string(mismatches_) +
                ", wire errors " + std::to_string(wire_errors_) + "; admission " +
                adm.describe("ms") + "; POLL_STATS rtt " + summarize(poll_rtt_us_).describe("us"));
  if (!ctx_.trace) {
    report.metric("setup_s", median(setups), "s");
    // Top rung: more is offered than the daemon sustains, so windows and
    // prints per second of its waves (first due frame to last verdict
    // visible) are the client->daemon path's capacity, not the schedule.
    report.metric("windows_per_s", top_rate(false, false), "windows/s");
    report.metric("prints_per_s", top_rate(false, true), "prints/s");
    report.metric("peak_rss_mb", daemon_hwm_mb_, "MiB");
    report.info("sustained_frames_per_s", best->delivered_fps, "frames/s");
    report.info("verdict_latency_p50_ms", lat.p50, "ms");
    report.info("verdict_latency_p99_ms", lat.tail, "ms");
    report.info("admit_p99_ms", adm.tail, "ms");
    report.info("restore_s", median(restores), "s");
    return;
  }
  const double kwin = static_cast<double>(windows_) / 1e3;
  const double cores = static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  double feed_busy_s = 0.0;
  for (const double us : feed_rtt_us_) feed_busy_s += us * 1e-6;
  double queued_peak = 0.0;
  for (const auto& r : rungs) queued_peak = std::max(queued_peak, r.queued_peak);
  report.metric("wire.feed_rtt_us_p50", quantile(feed_rtt_us_, 0.5), "us");
  report.metric("wire.feed_rtt_us_p99", summarize(feed_rtt_us_).tail, "us");
  report.metric("wire.poll_stats_rtt_us_p99", summarize(poll_rtt_us_).tail, "us");
  report.metric("wire.errors", static_cast<double>(wire_errors_), "count");
  // Seen from the client, a feed is a FEED round trip.
  report.metric("engine.feed_ns", quantile(feed_rtt_us_, 0.5) * 1e3, "ns");
  report.metric("engine.feed_blocked_share", feed_busy_s / stream_wall_s_, "ratio");
  report.metric("engine.flush_ms", median(flush_ms_), "ms");
  report.metric("engine.queued_frames_peak", queued_peak, "frames");
  report.metric("engine.shard_windows_skew", median(shard_skew_), "ratio");
  report.metric("engine.shed_frames", shed_frames_, "frames");
  report.metric("engine.add_session_ms", adm.p50, "ms");
  // Every thread of the daemon (shard workers, runtime pool, I/O), read
  // from /proc during the top rung.
  report.metric("runtime.workers", daemon_threads, "threads");
  report.metric("runtime.cpu_util", daemon_cpu / (stream_wall_s_ * cores), "ratio");
  report.metric("runtime.invol_csw_per_kwindow", daemon_csw / kwin, "count");
  report.metric("runtime.minflt_per_kwindow", daemon_minflt / kwin, "count");
  report.metric("ckpt.writes_per_print", ckpt_writes_ / static_cast<double>(prints_), "count");
  report.metric("bench.generator_lag_p99_ms", summarize(lag_all).tail, "ms");
  report.metric("bench.trace_overhead", 1.0 - top_rate(true, false) / top_rate(false, false),
                "ratio");
  feed_tracer_.write_csv(ctx_.work_dir + "/spans-feed.csv");
  poll_tracer_.write_csv(ctx_.work_dir + "/spans-poll.csv");
}

}  // namespace

void run_paced_wire(const RunContext& ctx, Report& report) {
  if (ctx.daemon_path.empty()) throw std::runtime_error("paced-wire needs --daemon");
  const Clock::time_point g0 = Clock::now();
  const Inputs in = rm3_inputs(ctx.seed);
  const double gen_s = seconds_since(g0);
  PacedRun run(ctx, in);
  run.run(report);
  if (!ctx.trace) return;
  // The ledger on this workload's shapes: one print of each kind.
  std::vector<std::size_t> prints;
  for (std::size_t p = 0; p < in.prints.size(); ++p) prints.push_back(p);
  const Calibration cal = calibrate(in);
  Tracer tracer(true);
  const Ledger l = measure_ledger(in, cal, prints, kChunkFrames, ctx.work_dir, tracer);
  tracer.write_csv(ctx.work_dir + "/spans-ledger.csv");
  report_ledger(l, report);
  report_ledger_state(l, report);
  report.metric("engine.parallel_efficiency",
                run.top_rate(false, false) /
                    (static_cast<double>(kShards) * 1e9 / l.poll_inline_ns_per_window),
                "ratio");
  report.metric("bench.gen_s", gen_s, "s");
  if (!l.layers_agree) {
    report.correct = false;
    ++report.failed;
  }
}

}  // namespace fleetbench
