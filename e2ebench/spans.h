// Spans of the traced run, on the library's own obs::Tracer. The benchmark
// wraps each call it makes into a layer's public entry point in a span
// that carries the id of the request it serves; spans-off periods pass a
// null tracer, which records nothing. The events stay in memory; per-layer
// self times are derived from them in one pass, and they are written once,
// at the end, with obs::ToChromeTrace.

#ifndef ROBUSTQO_E2EBENCH_SPANS_H_
#define ROBUSTQO_E2EBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "obs/exporters.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/query.h"
#include "statistics/cardinality_estimator.h"

namespace e2ebench {

using robustqo::obs::Tracer;

/// A span around one layer call: category "e2ebench", and the request id
/// (0: none) as its "request" attribute. Records nothing on a null tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = 0)
      : guard_(tracer, "e2ebench", name,
               tracer != nullptr && request != 0
                   ? robustqo::obs::TraceAttrs{{"request",
                                                robustqo::obs::AttrU64(
                                                    request)}}
                   : robustqo::obs::TraceAttrs{}) {}

 private:
  robustqo::obs::SpanGuard guard_;
};

/// Call count and self time (wall time less that of child spans) of every
/// span name of a trace.
class LayerTimes {
 public:
  explicit LayerTimes(const std::vector<robustqo::obs::TraceEvent>& events) {
    struct Open {
      const std::string* name;
      double start_us;
      double child_us;
    };
    std::vector<Open> open;
    for (const auto& e : events) {
      if (e.kind == robustqo::obs::TraceKind::kSpanBegin) {
        open.push_back({&e.name, e.wall_micros, 0.0});
      } else if (e.kind == robustqo::obs::TraceKind::kSpanEnd) {
        const Open span = open.back();
        open.pop_back();
        const double dur_us = e.wall_micros - span.start_us;
        Stat& stat = stats_[*span.name];
        ++stat.calls;
        stat.self_us += dur_us - span.child_us;
        if (!open.empty()) open.back().child_us += dur_us;
      }
    }
  }

  /// Mean self time of spans named `name`, in `unit_us` units (1e3 = ms).
  double MeanSelf(const std::string& name, double unit_us) const {
    auto it = stats_.find(name);
    if (it == stats_.end() || it->second.calls == 0) return 0.0;
    return it->second.self_us / unit_us /
           static_cast<double>(it->second.calls);
  }
  /// Total self time of spans named `name`, in µs.
  double SelfUs(const std::string& name) const {
    auto it = stats_.find(name);
    return it == stats_.end() ? 0.0 : it->second.self_us;
  }

 private:
  struct Stat {
    uint64_t calls = 0;
    double self_us = 0.0;
  };
  std::map<std::string, Stat> stats_;
};

/// Writes `tracer`'s events as a one-lane Chrome trace with wall-time
/// timestamps. Returns false when the file cannot be written.
inline bool WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  robustqo::obs::TraceLane lane;
  lane.process_name = "e2ebench";
  lane.thread_name = "layer calls";
  lane.events = tracer.events();
  const std::string json =
      robustqo::obs::ToChromeTrace({lane}, /*use_wall_time=*/true);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(json.data(), 1, json.size(), f) ==
                       json.size();
  return std::fclose(f) == 0 && written;
}

/// Counts read from `Database::last_optimizer_metrics()` after each plan.
struct PlanCounters {
  uint64_t plans = 0, candidates = 0, estimates = 0, probe_hits = 0,
           probe_lookups = 0, beta_hits = 0, beta_lookups = 0;

  void Add(const robustqo::opt::Optimizer::Metrics& m) {
    ++plans;
    candidates += m.candidates;
    estimates += m.estimator_calls;
    probe_hits += m.probe_cache_hits;
    probe_lookups += m.probe_cache_hits + m.probe_cache_misses;
    beta_hits += m.beta_cache_hits;
    beta_lookups += m.beta_cache_hits + m.beta_cache_misses;
  }

  /// The optimizer.* and perf.* metrics; plan time from the
  /// "optimizer.plan" spans.
  void Report(const LayerTimes& times, RunResult* out) const {
    out->Set("optimizer.plan_ms", times.MeanSelf("optimizer.plan", 1e3), "ms");
    out->Set("optimizer.candidates_per_plan", Ratio(candidates, plans),
             "count");
    out->Set("optimizer.estimates_per_plan", Ratio(estimates, plans),
             "count");
    out->Set("perf.probe_cache_hit_ratio", Ratio(probe_hits, probe_lookups),
             "ratio");
    out->Set("perf.beta_cache_hit_ratio", Ratio(beta_hits, beta_lookups),
             "ratio");
  }
};

/// Calls `estimator` on each per-table request of `query` and on the
/// whole query, each call in a "statistics.estimate" span.
inline void TimeEstimates(robustqo::stats::CardinalityEstimator* estimator,
                          const robustqo::opt::QuerySpec& query,
                          Tracer* tracer, uint64_t request) {
  std::vector<std::set<std::string>> requests;
  for (const auto& t : query.tables) requests.push_back({t.table});
  requests.push_back(query.TableNames());
  for (const auto& tables : requests) {
    robustqo::stats::CardinalityRequest r;
    r.tables = tables;
    r.predicate = query.CombinedPredicate(tables);
    Span span(tracer, "statistics.estimate", request);
    (void)estimator->EstimateRows(r);
  }
}

}  // namespace e2ebench

#endif  // ROBUSTQO_E2EBENCH_SPANS_H_
