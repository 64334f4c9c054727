#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace fleetbench {

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double supported_tail(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

Percentiles summarize(const std::vector<double>& samples) {
  Percentiles p;
  p.n = samples.size();
  p.p50 = quantile(samples, 0.5);
  p.tail_q = supported_tail(samples.size());
  p.tail = quantile(samples, p.tail_q);
  return p;
}

Percentiles block_summarize(const std::vector<double>& samples,
                            std::size_t block) {
  const std::size_t blocks = std::max<std::size_t>(1, samples.size() / block);
  std::vector<double> p50s, tails;
  Percentiles out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? samples.end() : first + static_cast<std::ptrdiff_t>(block);
    const Percentiles p = summarize(std::vector<double>(first, last));
    p50s.push_back(p.p50);
    tails.push_back(p.tail);
    out.tail_q = p.tail_q;
  }
  out.n = samples.size();
  out.p50 = median(p50s);
  out.tail = median(tails);
  return out;
}

std::string Percentiles::describe(const std::string& unit) const {
  std::ostringstream out;
  out.precision(6);
  out << "p50=" << p50 << unit << " p" << tail_q * 100.0 << "=" << tail << unit
      << " (n=" << n << ")";
  return out.str();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.invol_csw = ru.ru_nivcsw;
  u.minflt = ru.ru_minflt;
  return u;
}

double rss_mb(pid_t pid, bool high_water) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  const std::string key = high_water ? "VmHWM:" : "VmRSS:";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint16_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t Tracer::open(const char* name, std::uint64_t window) {
  Span s;
  s.name = intern(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.window = window;
  s.start_ns = ns_between(epoch_, Clock::now());
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      ns_between(epoch_, Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  // Children close before their parent and never overlap each other (one
  // thread, LIFO), so the time children cover is the sum of their spans.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto total = static_cast<double>(s.end_ns - s.start_ns);
    SelfTime& t = out[names_[s.name]];
    t.total_ns += total;
    t.self_ns += total - child_ns[i];
    ++t.count;
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "name,window,start_ns,end_ns,parent\n";
  for (const Span& s : spans_) {
    out << names_[s.name] << ',' << s.window << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.parent << '\n';
  }
}

}  // namespace fleetbench
