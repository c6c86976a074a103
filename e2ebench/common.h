// Shared plumbing of the end-to-end benchmark: run options, the result
// every workload returns, wall clocks and order statistics.

#ifndef ROBUSTQO_E2EBENCH_COMMON_H_
#define ROBUSTQO_E2EBENCH_COMMON_H_

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace file written by the traced run ("" = none).
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the benchmark prints it as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable notes printed above the result line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Reports per-layer metrics of layers this workload never calls as 0,
  /// and names them in a note.
  void SetIdle(const std::vector<std::pair<std::string, std::string>>&
                   name_units) {
    std::string names;
    for (const auto& [name, unit] : name_units) {
      Set(name, 0.0, unit);
      names += " " + name;
    }
    notes.push_back("layers this workload does not call, reported as 0:" +
                    names);
  }
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what) {
    if (correct || notes.size() < 50) notes.push_back("CHECK FAILED: " + what);
    correct = false;
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Mean and population standard deviation of `v`; {0, 0} for an empty set.
inline std::pair<double, double> MeanSd(const std::vector<double>& v) {
  if (v.empty()) return {0.0, 0.0};
  double sum = 0.0;
  for (double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  return {mean, std::sqrt(var / static_cast<double>(v.size()))};
}

/// a / b, or 0 when b is 0.
inline double Ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Tracing overhead in percent: the median ratio of each spans-on period
/// to the spans-off period that follows it, so that drift of the machine
/// between periods cancels.
inline double OverheadPct(const std::vector<double>& on,
                          const std::vector<double>& off) {
  std::vector<double> ratios;
  for (size_t i = 0; i < on.size() && i < off.size(); ++i) {
    ratios.push_back(on[i] / off[i]);
  }
  return (Median(ratios) - 1.0) * 100.0;
}

/// Moves the calling thread to the next of the CPUs it may run on, in
/// turn. On a shared machine the speed of one CPU drifts by up to 1.5x over
/// minutes, and the scheduler leaves a busy single thread on one CPU for a
/// whole run, so a run measures that CPU; rotating spreads every run over
/// all CPUs alike. Threads started while the caller is pinned inherit the
/// pin. The destructor restores the original CPU set.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Peak resident set size of this process, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench

#endif  // ROBUSTQO_E2EBENCH_COMMON_H_
