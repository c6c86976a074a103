// The paper_figures workload: regenerates the data of fig01-fig12 in
// process, with the configurations of the bench/fig* programs, and checks
// it against the paper's claims. The traced run also times the optimizer,
// estimator and executor from outside and compares the cost model's plan
// ranking with wall time.

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/analytical_model.h"
#include "core/cost_distribution.h"
#include "core/database.h"
#include "spans.h"
#include "statistics/selectivity_posterior.h"
#include "storage/date.h"
#include "tpch/tpch_gen.h"
#include "util/string_util.h"
#include "workload/experiment_harness.h"
#include "workload/scenarios.h"
#include "workload/star_schema.h"

namespace e2ebench {

using robustqo::StrPrintf;
using robustqo::core::Database;
using robustqo::core::EstimatorKind;
namespace core = robustqo::core;
namespace workload = robustqo::workload;

namespace {

constexpr int kSetups = 9;
constexpr const char* kSweepSpans[] = {
    "workload.exp1_sweep", "workload.exp2_sweep", "workload.exp3_sweep",
    "workload.exp4_sweep"};
/// Figure 12's sample sizes.
constexpr size_t kFig12Sizes[] = {50, 100, 250, 500, 1000, 2500};
/// Statistics redraws the traced run's fidelity pass replans.
constexpr size_t kFidelityRedraws = 4;
constexpr int kFidelityRepeats = 3;

/// The figures' data: TPC-H-lite for Experiments 1, 2 and 4, the star
/// warehouse for Experiment 3.
struct Data {
  std::unique_ptr<Database> tpch;
  std::unique_ptr<Database> star;
};

/// Everything one regeneration of fig01-fig12 produced.
struct Figures {
  double analytic_checksum = 0.0;  // fig02-fig08 values, summed
  workload::SweepResult exp[3];
  std::map<size_t, workload::SettingAggregate> fig12;  // by sample size
  workload::SettingAggregate fig12_hist;
};

/// One experiment's scenario as a query factory and selectivity probe.
struct Scenario {
  Database* db = nullptr;
  std::function<robustqo::opt::QuerySpec(double)> query;
  std::function<double(double)> selectivity;
  std::vector<double> params;
};

Scenario MakeScenario(const Data& data, int exp) {
  static const workload::SingleTableScenario single;
  static const workload::ThreeTableJoinScenario join;
  static const workload::StarJoinScenario star;
  Scenario s;
  if (exp == 2) {
    s.db = data.star.get();
    const auto* catalog = s.db->catalog();
    s.query = [](double p) { return star.MakeQuery(p); };
    s.selectivity = [catalog](double p) {
      return star.TrueSelectivity(*catalog, p);
    };
    s.params = workload::StarJoinScenario::DefaultParams();
    return s;
  }
  s.db = data.tpch.get();
  const auto* catalog = s.db->catalog();
  if (exp == 1) {
    s.query = [](double p) { return join.MakeQuery(p); };
    s.selectivity = [catalog](double p) {
      return join.TrueSelectivity(*catalog, p);
    };
    s.params = workload::ThreeTableJoinScenario::DefaultParams();
  } else {  // Experiments 1 and 4
    s.query = [](double p) { return single.MakeQuery(p); };
    s.selectivity = [catalog](double p) {
      return single.TrueSelectivity(*catalog, p);
    };
    s.params = workload::SingleTableScenario::DefaultParams();
  }
  return s;
}

/// The statistics seed of the sweeps: seed 0 is the bench programs' 42.
uint64_t StatSeed(uint64_t seed) { return 42 + 1000003 * seed; }

workload::SweepResult Sweep(const Scenario& s, uint64_t stat_seed,
                            size_t sample_size, size_t repetitions,
                            std::vector<workload::EstimatorSetting> settings) {
  workload::QuerySweepExperiment experiment(s.db, s.query, s.selectivity);
  workload::SweepConfig config;
  config.params = s.params;
  config.repetitions = repetitions;
  config.statistics.sample_size = sample_size;
  config.statistics.seed = stat_seed;
  config.settings = std::move(settings);
  return experiment.Run(config);
}

/// fig01-fig08: the analytical figures, as the bench programs compute them.
double AnalyticFigures() {
  double sum = 0.0;
  const double rows = 1000.0;
  const core::LinearCostPlan plan1{"Plan 1", 10.0, 80.0 / rows};
  const core::LinearCostPlan plan2{"Plan 2", 30.0, 3.0 / rows};
  for (int i = 0; i <= 20; ++i) {  // fig01
    sum += plan1.CostAtSelectivity(i * 0.05, rows) +
           plan2.CostAtSelectivity(i * 0.05, rows);
  }
  const robustqo::stats::SelectivityPosterior posterior(50, 200);
  const core::PlanCostDistribution d1(posterior, plan1, rows);
  const core::PlanCostDistribution d2(posterior, plan2, rows);
  for (double c = 20.0; c <= 45.0; c += 0.5) {  // fig02, fig03
    sum += d1.CostPdf(c) + d2.CostPdf(c) + d1.CostCdf(c) + d2.CostCdf(c);
  }
  for (double t : {0.05, 0.20, 0.50, 0.65, 0.80, 0.95}) {
    sum += d1.CostQuantile(t) + d2.CostQuantile(t);
  }
  sum += core::PreferenceCrossoverThreshold(d1, d2).value_or(0.0) +
         d1.CostQuantileByInversion(0.8) + d1.ExpectedCost() +
         d2.ExpectedCost();
  using robustqo::stats::PriorKind;
  using robustqo::stats::SelectivityPosterior;
  const SelectivityPosterior priors[] = {
      {10, 100, PriorKind::kJeffreys}, {10, 100, PriorKind::kUniform},
      {50, 500, PriorKind::kJeffreys}, {50, 500, PriorKind::kUniform}};
  for (double s = 0.0; s <= 0.25; s += 0.001) {  // fig04
    for (const auto& p : priors) sum += p.Pdf(s);
  }
  for (const auto& p : priors) {
    for (double t : {0.05, 0.2, 0.5, 0.8, 0.95}) {
      sum += p.EstimateAtConfidence(t);
    }
  }
  const core::TwoPlanAnalyticalModel model;
  const double thresholds[] = {0.05, 0.20, 0.50, 0.80, 0.95};
  std::vector<double> sels;
  for (int i = 0; i <= 20; ++i) sels.push_back(i * 0.0005);
  for (double p : sels) {  // fig05, fig07
    for (double t : thresholds) sum += model.ExpectedExecutionTime(p, 1000, t);
    for (uint64_t n : {50, 100, 250, 500, 1000}) {
      sum += model.ExpectedExecutionTime(p, n, 0.5);
    }
    sum += model.OptimalCost(p);
  }
  for (double t : thresholds) {  // fig05, fig06
    sum += static_cast<double>(model.Plan1ThresholdK(1000, t));
    const auto w = model.SummarizeWorkload(sels, 1000, t);
    sum += w.mean_seconds + w.std_dev_seconds;
  }
  for (uint64_t n : {50, 100, 250, 500, 1000}) {  // fig07
    sum += model.SummarizeWorkload(sels, n, 0.5).mean_seconds;
  }
  const core::TwoPlanAnalyticalModel high(core::HighCrossoverParams());
  for (int i = 0; i <= 20; ++i) {  // fig08
    for (double t : {0.05, 0.50, 0.95}) {
      sum += high.ExpectedExecutionTime(i * 0.01, 1000, t);
    }
  }
  return sum;
}

/// One regeneration of fig01-fig12, traced as request `request`.
/// `parts_s` receives the wall seconds of its parts: the analytical
/// figures, Experiments 1-3, and each sweep of Figure 12.
Figures Regenerate(const Data& data, uint64_t seed, Tracer* tracer,
                   uint64_t request, CpuRotation* cpus,
                   std::vector<double>* parts_s) {
  Figures f;
  cpus->Next();
  int64_t t0 = NowNs();
  auto lap = [&] {
    const int64_t now = NowNs();
    parts_s->push_back(static_cast<double>(now - t0) / 1e9);
    cpus->Next();
    t0 = NowNs();
  };
  {
    Span span(tracer, "stats_math.analytic_figs", request);
    f.analytic_checksum = AnalyticFigures();
  }
  lap();
  for (int e = 0; e < 3; ++e) {
    Span span(tracer, kSweepSpans[e], request);
    f.exp[e] = Sweep(MakeScenario(data, e), StatSeed(seed), 500, 12,
                     workload::PaperSettings());
    lap();
  }
  Span span(tracer, kSweepSpans[3], request);
  const Scenario exp4 = MakeScenario(data, 3);
  for (size_t n : kFig12Sizes) {
    f.fig12[n] = Sweep(exp4, StatSeed(seed), n, 12,
                       {{"T=50%", EstimatorKind::kRobustSample, 0.50}})
                     .overall.at("T=50%");
    lap();
  }
  f.fig12_hist = Sweep(exp4, StatSeed(seed), 500, 1,
                       {{"Histograms", EstimatorKind::kHistogram, 0.0}})
                     .overall.at("Histograms");
  lap();
  return f;
}

/// Mean and population standard deviation of the T=80% plans' simulated
/// seconds, pooled over Experiments 1-3.
std::pair<double, double> PooledT80(const Figures& f) {
  double n_total = 0.0, weighted = 0.0;
  std::vector<std::pair<double, workload::SettingAggregate>> parts;
  for (const auto& exp : f.exp) {
    const double n = static_cast<double>(exp.params.size() * 12);
    parts.emplace_back(n, exp.overall.at("T=80%"));
    n_total += n;
    weighted += n * parts.back().second.mean_seconds;
  }
  const double mean = weighted / n_total;
  double var = 0.0;
  for (const auto& [n, agg] : parts) {
    const double d = agg.mean_seconds - mean;
    var += n * (agg.std_dev_seconds * agg.std_dev_seconds + d * d);
  }
  return {mean, std::sqrt(var / n_total)};
}

/// The paper's claims, as EXPERIMENTS.md lists them reproduced.
void CheckClaims(const Data& data, const Figures& f,
                 const std::string& breaking, RunResult* result) {
  auto wrong = [&](const char* check) { return breaking == check; };
  // Fig 1: Plan 1 = 10 + 80·s, Plan 2 = 30 + 3·s cross at s = 20/77.
  const double crossover = (30.0 - 10.0) / (80.0 - 3.0);
  const core::LinearCostPlan plan1{"Plan 1", 10.0, 80.0 / 1000.0};
  const core::LinearCostPlan plan2{"Plan 2", 30.0, 3.0 / 1000.0};
  const double paper = wrong("fig1_crossover") ? 0.36 : 0.26;
  if (std::fabs(crossover - paper) > 0.005 ||
      std::fabs(plan1.CostAtSelectivity(crossover, 1000.0) -
                plan2.CostAtSelectivity(crossover, 1000.0)) > 1e-9) {
    result->Fail(StrPrintf("fig1_crossover: %.4f, paper ~%.2f", crossover,
                           paper));
  }
  // Standard deviation non-increasing in T on Experiments 1-3.
  const char* const ts[] = {"T=5%", "T=20%", "T=50%", "T=80%", "T=95%"};
  for (int e = 0; e < 3; ++e) {
    for (size_t i = 1; i < 5; ++i) {
      const double prev = f.exp[e].overall.at(ts[i - 1]).std_dev_seconds;
      const double cur = f.exp[e].overall.at(ts[i]).std_dev_seconds;
      const double bound = wrong("sd_monotone") ? prev - 1e9 : prev * 1.0000001;
      if (cur > bound) {
        result->Fail(StrPrintf("sd_monotone: Experiment %d sd %s %.6f > %s "
                               "%.6f",
                               e + 1, ts[i], cur, ts[i - 1], prev));
      }
    }
  }
  // The histogram baseline sticks to one plan, and the robust T=80% mean
  // beats it, in Experiments 1 and 3.
  for (int e : {0, 2}) {
    const auto& hist = f.exp[e].overall.at("Histograms");
    const auto& t80 = f.exp[e].overall.at("T=80%");
    const size_t plans = wrong("hist_one_plan") ? 2 : 1;
    if (hist.plan_counts.size() != plans) {
      result->Fail(StrPrintf("hist_one_plan: Experiment %d histogram chose "
                             "%zu plans",
                             e + 1, hist.plan_counts.size()));
    }
    const double hist_mean = wrong("t80_below_hist") ? 0.0 : hist.mean_seconds;
    if (!(t80.mean_seconds < hist_mean)) {
      result->Fail(StrPrintf("t80_below_hist: Experiment %d T=80%% mean %.4f "
                             "vs histograms %.4f",
                             e + 1, t80.mean_seconds, hist_mean));
    }
  }
  // Fig 12: n=50 always picks the sequential scan.
  const auto& n50 = f.fig12.at(50).plan_counts;
  const std::string seq = wrong("n50_seqscan") ? "IxSect(" : "Seq(";
  if (n50.size() != 1 || n50.begin()->first.find(seq) == std::string::npos) {
    std::string plans;
    for (const auto& [label, count] : n50) plans += label + " ";
    result->Fail("n50_seqscan: n=50 chose " + plans);
  }
  // Experiment 1's true selectivities, recomputed over lineitem.
  const auto& li = *data.tpch->catalog()->GetTable("lineitem");
  const workload::SingleTableScenario scenario;
  const auto& ship = li.column("l_shipdate");
  const auto& receipt = li.column("l_receiptdate");
  const int64_t s0 = scenario.window_start, w = scenario.window_days;
  for (size_t i = 0; i < f.exp[0].params.size(); ++i) {
    const int64_t r0 = s0 + std::llround(f.exp[0].params[i]);
    uint64_t hits = 0;
    for (uint64_t r = 0; r < li.num_rows(); ++r) {
      const int64_t sd = ship.Int64At(r), rd = receipt.Int64At(r);
      hits += sd >= s0 && sd <= s0 + w - 1 && rd >= r0 && rd <= r0 + w - 1;
    }
    double expected =
        static_cast<double>(hits) / static_cast<double>(li.num_rows());
    if (wrong("exp1_true_sel")) expected += 1e-3;
    if (f.exp[0].true_selectivity[i] != expected) {
      result->Fail(StrPrintf("exp1_true_sel: offset %.0f: %.8f, loop %.8f",
                             f.exp[0].params[i],
                             f.exp[0].true_selectivity[i], expected));
    }
  }
}

/// Simulated outcome of a regeneration, compared across regenerations.
std::vector<double> Outcome(const Figures& f) {
  std::vector<double> out{f.analytic_checksum, f.fig12_hist.mean_seconds};
  for (const auto& exp : f.exp) {
    for (const auto& [label, agg] : exp.overall) {
      out.push_back(agg.mean_seconds);
      out.push_back(agg.std_dev_seconds);
    }
  }
  for (const auto& [n, agg] : f.fig12) out.push_back(agg.mean_seconds);
  return out;
}

Data SetUp(Tracer* tracer, RunResult* result) {
  Data data;
  data.tpch = std::make_unique<Database>();
  data.star = std::make_unique<Database>();
  robustqo::tpch::TpchConfig tpch;
  tpch.scale_factor = 0.02;
  {
    Span span(tracer, "tpch.load");
    if (!robustqo::tpch::LoadTpch(data.tpch->catalog(), tpch).ok()) {
      result->Fail("TPC-H load failed");
    }
  }
  workload::StarSchemaConfig star;
  star.fact_rows = 200000;
  star.dim_rows = 1000;
  Span span(tracer, "workload.star_load");
  if (!workload::LoadStarSchema(data.star->catalog(), star).ok()) {
    result->Fail("star schema load failed");
  }
  return data;
}

/// Fraction of pairs of distinct plans at a sweep point that simulated
/// seconds and wall time rank the same way.
struct Fidelity {
  uint64_t pairs = 0;
  uint64_t agree = 0;
};

/// Replans the first redraws of each sweep from outside, executing every
/// distinct plan: times the optimizer, estimator and executor, and ranks
/// the plans by simulated seconds and by wall time. Returns the planner's
/// counts.
PlanCounters FidelityPass(const Data& data, uint64_t seed, Tracer* tracer,
                          RunResult* result) {
  {
    Database* db = data.tpch.get();
    for (uint64_t i = 0; i < 3; ++i) {
      robustqo::stats::StatisticsConfig config;
      config.seed = StatSeed(seed) + i;
      Span span(tracer, "statistics.update");
      db->UpdateStatistics(config);
    }
  }
  PlanCounters planner;
  uint64_t examined = 0, spj_rows = 0;
  for (int e = 0; e < 3; ++e) {
    const Scenario s = MakeScenario(data, e);
    Database* db = s.db;
    db->statistics()->BuildAllHistograms();
    // (param index, plan label) -> plan, the distinct plans of each point.
    std::map<std::pair<size_t, std::string>, robustqo::opt::PlannedQuery>
        distinct;
    for (size_t rep = 0; rep < kFidelityRedraws; ++rep) {
      robustqo::stats::StatisticsConfig config;
      config.sample_size = 500;
      config.seed = StatSeed(seed) + rep * 7919;
      db->statistics()->BuildAllSamples(config);
      for (size_t pi = 0; pi < s.params.size(); ++pi) {
        const robustqo::opt::QuerySpec query = s.query(s.params[pi]);
        for (const auto& setting : workload::PaperSettings()) {
          robustqo::opt::OptimizerOptions options;
          if (setting.kind == EstimatorKind::kRobustSample) {
            options.confidence_threshold_hint = setting.confidence_threshold;
          }
          robustqo::Result<robustqo::opt::PlannedQuery> plan =
              robustqo::Status::Internal("unplanned");
          {
            Span span(tracer, "optimizer.plan");
            plan = db->Plan(query, setting.kind, options);
          }
          if (!plan.ok()) {
            ++result->failed;
            continue;
          }
          planner.Add(db->last_optimizer_metrics());
          distinct.emplace(std::make_pair(pi, plan.value().label),
                           std::move(plan).value());
        }
        if (rep == 0) TimeEstimates(db->robust_estimator(), query, tracer, 0);
      }
    }
    // Simulated seconds and median wall ms of every distinct plan.
    std::map<size_t, std::vector<std::pair<double, double>>> by_point;
    for (const auto& [key, plan] : distinct) {
      std::vector<double> wall;
      double simulated = 0.0;
      for (int k = 0; k < kFidelityRepeats; ++k) {
        ++result->attempted;
        const int64_t t0 = NowNs();
        robustqo::Result<core::ExecutionResult> run =
            robustqo::Status::Internal("unexecuted");
        {
          Span span(tracer, "exec.execute");
          run = db->ExecutePlan(plan);
        }
        wall.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        if (!run.ok()) {
          ++result->failed;
          continue;
        }
        simulated = run.value().simulated_seconds;
        examined += run.value().meter.seq_tuples() +
                    run.value().meter.index_entries();
        spj_rows += run.value().spj_rows;
      }
      by_point[key.first].emplace_back(simulated, Median(wall));
    }
    Fidelity fid;
    for (const auto& [pi, runs] : by_point) {
      for (size_t a = 0; a < runs.size(); ++a) {
        for (size_t b = a + 1; b < runs.size(); ++b) {
          if (runs[a].first == runs[b].first) continue;  // tied in the model
          ++fid.pairs;
          fid.agree += (runs[a].first < runs[b].first) ==
                       (runs[a].second < runs[b].second);
        }
      }
    }
    const std::string name = StrPrintf("exp%d", e + 1);
    result->notes.push_back(StrPrintf(
        "fidelity %s: %zu distinct plans, %llu ranked pairs, %llu agree",
        name.c_str(), distinct.size(),
        static_cast<unsigned long long>(fid.pairs),
        static_cast<unsigned long long>(fid.agree)));
    result->Set("cost_model.rank_agreement_" + name,
                Ratio(fid.agree, fid.pairs), "ratio");
  }
  result->Set("exec.tuples_examined_per_row", Ratio(examined, spj_rows),
              "count");
  return planner;
}

}  // namespace

RunResult RunFigures(const RunOptions& opt, const std::string& breaking) {
  RunResult result;
  Tracer tracer;
  CpuRotation cpus;
  Data data;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    data = Data{};
    cpus.Next();
    const int64_t t0 = NowNs();
    data = SetUp(opt.trace ? &tracer : nullptr, &result);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!result.correct) return result;

  // Whole regenerations until the time is up; the traced run alternates
  // spans on and off.
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<double> pass_s, on_s, off_s;
  std::vector<std::vector<double>> parts_s;  // [part][regeneration]
  std::vector<double> first_outcome;
  Figures first;
  int64_t elapsed_ns = 0;
  for (int pass = 0; elapsed_ns < budget_ns || (opt.trace && off_s.empty());
       ++pass) {
    const bool on = opt.trace && pass % 2 == 0;
    Tracer* pass_tracer = on ? &tracer : nullptr;
    const uint64_t request = static_cast<uint64_t>(pass + 1);
    const int64_t t0 = NowNs();
    Figures f;
    std::vector<double> parts;
    {
      Span span(pass_tracer, "figures", request);
      f = Regenerate(data, opt.seed, pass_tracer, request, &cpus, &parts);
    }
    const int64_t ns = NowNs() - t0;
    elapsed_ns += ns;
    pass_s.push_back(static_cast<double>(ns) / 1e9);
    parts_s.resize(parts.size());
    for (size_t i = 0; i < parts.size(); ++i) parts_s[i].push_back(parts[i]);
    if (opt.trace) (on ? on_s : off_s).push_back(pass_s.back());
    result.attempted += 12;  // fig01-fig12
    std::vector<double> outcome = Outcome(f);
    if (pass == 0) {
      CheckClaims(data, f, breaking, &result);
      first_outcome = outcome;
      if (breaking == "repeat_identical") first_outcome[0] += 1.0;
      first = std::move(f);
    } else if (outcome != first_outcome) {
      result.Fail("repeat_identical: regeneration " + std::to_string(pass) +
                  " differs from the first");
    }
  }

  if (!opt.trace) {
    const auto [mean, sd] = PooledT80(first);
    // An operation is one regeneration of fig01-fig12. Its typical and
    // p90 latency sum each part's median and p90, which a slow spell of
    // the machine during one part of one pass does not move.
    double p50_s = 0.0, p90_s = 0.0;
    for (const auto& part : parts_s) {
      p50_s += Median(part);
      p90_s += Quantile(part, 0.90);
    }
    std::vector<double> pass_rate;
    for (double p : pass_s) pass_rate.push_back(1.0 / p);
    result.Set("ops_per_s", Median(pass_rate), "1/s");
    result.Set("lat_p50_ms", p50_s * 1e3, "ms");
    result.Set("lat_p90_ms", p90_s * 1e3, "ms");
    result.Set("sim_mean_s", mean, "s");
    result.Set("sim_sd_s", sd, "s");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    std::string passes;
    for (double p : pass_s) passes += StrPrintf(" %.3f", p);
    result.notes.push_back("regeneration seconds:" + passes);
    return result;
  }
  const PlanCounters planner = FidelityPass(data, opt.seed, &tracer, &result);
  const LayerTimes times(tracer.events());
  for (int e = 0; e < 4; ++e) {
    result.Set(std::string(kSweepSpans[e]) + "_s",
               times.MeanSelf(kSweepSpans[e], 1e6), "s");
  }
  result.Set("stats_math.analytic_figs_ms",
             times.MeanSelf("stats_math.analytic_figs", 1e3), "ms");
  result.Set("tpch.load_s", times.MeanSelf("tpch.load", 1e6), "s");
  result.Set("workload.star_load_s",
             times.MeanSelf("workload.star_load", 1e6), "s");
  result.Set("trace.overhead_pct", OverheadPct(on_s, off_s), "%");
  planner.Report(times, &result);
  result.Set("statistics.estimate_us",
             times.MeanSelf("statistics.estimate", 1.0), "us");
  result.Set("exec.execute_ms", times.MeanSelf("exec.execute", 1e3), "ms");
  result.Set("statistics.update_ms", times.MeanSelf("statistics.update", 1e3),
             "ms");
  result.Set("statistics.rebuilds", 0.0, "count");
  result.SetIdle({{"sql.parse_us", "us"},
                  {"server.fingerprint_us", "us"},
                  {"server.plan_cache_lookup_us", "us"},
                  {"server.plan_cache_hit_ratio", "ratio"},
                  {"server.self_ms", "ms"},
                  {"exec.dml_ms", "ms"},
                  {"statistics.rebuild_ms", "ms"}});
  if (!opt.trace_out.empty() && !WriteChromeTrace(tracer, opt.trace_out)) {
    result.Fail("cannot write " + opt.trace_out);
  }
  return result;
}

}  // namespace e2ebench
