// Timing, statistics and span recording for the Horus benchmark.
//
// Spans are recorded only in traced runs (`--trace 1`): each is a name, a
// start and an end on the steady clock, and the index of the span that
// caused it. They stay in memory until the run ends; the per-layer metrics
// are computed from them there. An untraced run passes a null SpanLog and
// records nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample (0 when empty). Takes a copy: callers keep order.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1]: the smallest sample with at least
/// p of the samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Peak resident set size of this process in MiB (VmHWM), or 0 when the
/// kernel does not report it.
inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  /// Opens a span and returns its index.
  std::int32_t open(const char* name, std::int32_t parent) {
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
  }
  /// Records a span timed by the caller; returns its index.
  std::int32_t add(const char* name, std::int32_t parent,
                   Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, parent, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Durations in seconds of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(seconds_between(s.start, s.end));
    }
    return out;
  }

  /// Writes each span name's count, total time and self time (total less
  /// the time its child spans cover) to `out`.
  void print_summary(std::FILE* out) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    struct Row {
      std::size_t count = 0;
      double total = 0;
      double self = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double d = seconds_between(spans_[i].start, spans_[i].end);
      ++r.count;
      r.total += d;
      r.self += d - child[i];
    }
    std::fprintf(out, "%-40s %9s %12s %12s\n", "span", "count", "total s",
                 "self s");
    for (const auto& [name, r] : rows) {
      std::fprintf(out, "%-40s %9zu %12.6f %12.6f\n", name.c_str(), r.count,
                   r.total, r.self);
    }
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the log is null (untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent = -1)
      : log_(log), index_(log != nullptr ? log->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
