// The serving workloads, serve_hot and adhoc_rw: closed-loop waves of
// requests through QueryService::ExecuteBatch, every answer checked
// against the plain-loop reference and every write against the shadow
// model.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "reference.h"
#include "server/plan_cache.h"
#include "server/query_service.h"
#include "perf/task_pool.h"
#include "spans.h"
#include "sql/parser.h"
#include "tpch/tpch_gen.h"

namespace e2ebench {

using robustqo::Rng;
using robustqo::core::Database;
using robustqo::core::EstimatorKind;
using robustqo::server::QueryRequest;
using robustqo::server::QueryResponse;
using robustqo::server::QueryService;
using robustqo::server::SessionId;

namespace {

/// The sessions' T%; the last session runs the histogram estimator.
constexpr double kThresholds[] = {0.50, 0.80, 0.95, 0.0};
constexpr size_t kSessions = 4;
/// Requests per ExecuteBatch call: two from each session.
constexpr size_t kWave = 8;
/// adhoc_rw: a round is 40 statements, four of them writes (10%).
constexpr size_t kAdhocRound = 40;
constexpr int64_t kFirstInsertedOrder = 10000000;
constexpr int kSetups = 5;

/// One request of a wave: the statement and the session index sending it.
struct Op {
  Statement st;
  size_t session = 0;
  size_t hot_index = 0;  // serve_hot: which prepared statement
};

EstimatorKind KindOf(size_t session) {
  return kThresholds[session] == 0.0 ? EstimatorKind::kHistogram
                                     : EstimatorKind::kRobustSample;
}

/// Database, service, sessions and references of one serving run.
struct Server {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> svc;
  std::vector<SessionId> sessions;
  std::vector<Statement> hot;  // serve_hot prepared statements
  std::unique_ptr<Reference> ref;
  std::unique_ptr<ShadowModel> model;
  bool ref_stale = false;
};

/// Generates the rounds of a workload. Every round attempts the same
/// operations: serve_hot executes each prepared statement once in every
/// session; adhoc_rw sends 36 fresh reads and 4 writes.
class RoundGenerator {
 public:
  RoundGenerator(bool hot, uint64_t seed) : hot_(hot), rng_(seed ^ 0xad0c) {}

  std::vector<std::vector<Op>> Next(const std::vector<Statement>& hot) {
    std::vector<Op> ops;
    if (hot_) {
      // Session s sends statements 2(w+s) and 2(w+s)+1 in wave w: every
      // wave holds each template twice, and every session executes each
      // statement once per round.
      for (size_t w = 0; w < kHotStatements / 2; ++w) {
        for (size_t s = 0; s < kSessions; ++s) {
          for (size_t k = 0; k < 2; ++k) {
            const size_t idx = (2 * (w + s) + k) % kHotStatements;
            ops.push_back(Op{hot[idx], s, idx});
          }
        }
      }
    } else {
      const int64_t key = next_order_++;
      static const Template kReads[] = {
          Template::kLinePart, Template::kLineSuppPart,
          Template::kLineSuppNationPart, Template::kOrdersScan,
          Template::kCustomerScan};
      for (size_t k = 0; k < kAdhocRound; ++k) {
        Op op;
        op.session = k % kSessions;
        if (k == 5 || k == 26) {
          op.st = MakeUpdateCustomer(&rng_);
        } else if (k == 13) {
          op.st = MakeInsertOrder(key, &rng_);
        } else if (k == 34) {
          op.st = MakeDeleteOrder(key);
        } else {
          op.st = MakeAdhocRead(kReads[(k + k / kSessions) % 5], &rng_);
        }
        ops.push_back(std::move(op));
      }
    }
    std::vector<std::vector<Op>> waves;
    for (size_t i = 0; i < ops.size(); i += kWave) {
      waves.emplace_back(ops.begin() + i, ops.begin() + i + kWave);
    }
    return waves;
  }

 private:
  bool hot_;
  Rng rng_;
  int64_t next_order_ = kFirstInsertedOrder;
};

QueryRequest ToRequest(const Server& server, const Op& op) {
  if (op.st.tpl <= Template::kScanCount) {
    return QueryRequest::Prepared(server.sessions[op.session],
                                  "q" + std::to_string(op.hot_index));
  }
  return QueryRequest::Sql(server.sessions[op.session], op.st.sql);
}

/// Checks one executed operation. `reference` is the read's answer at the
/// wave's snapshot; `first` collects serve_hot answers per statement for
/// the plan-independence check.
class Checker {
 public:
  Checker(RunResult* result, const std::string& breaking)
      : result_(result), breaking_(breaking) {}

  void Read(const Op& op, const Answer& reference,
            const robustqo::core::ExecutionResult& run, bool hot) {
    const robustqo::storage::Table& rows = run.rows;
    Answer expected = reference;
    if (breaking_ == "reference_answer" && !expected.empty()) {
      expected.begin()->second.value += 1.0;
    }
    const std::string diff = CompareAnswer(expected, rows);
    if (!diff.empty()) {
      result_->Fail("reference_answer: " + op.st.sql + ": " + diff +
                    " (session " + std::to_string(op.session) + ", plan " +
                    run.plan_label + ")");
    }
    if (!hot) return;
    auto it = first_.find(op.hot_index);
    if (it == first_.end()) {
      first_.emplace(op.hot_index, EngineAnswer(reference, rows));
      return;
    }
    Answer other = it->second;
    if (breaking_ == "plan_independence" && !other.empty()) {
      other.begin()->second.value += 1.0;
    }
    const std::string drift = CompareAnswer(other, rows);
    if (!drift.empty()) {
      result_->Fail("plan_independence: session " +
                    std::to_string(op.session) + ": " + op.st.sql + ": " +
                    drift);
    }
  }

  /// Counts a read's plan-cache lookup in QueryService, and keeps the
  /// simulated seconds of the plans served at T=80%.
  void Served(const Op& op, const QueryResponse& response) {
    ++lookups_;
    hits_ += response.cache_hit;
    if (kThresholds[op.session] == 0.80) {
      t80_seconds_.push_back(response.result->simulated_seconds);
    }
  }
  /// Starts counting afresh (after warm-up).
  void ResetCounts() {
    lookups_ = hits_ = 0;
    t80_seconds_.clear();
  }
  uint64_t cache_lookups() const { return lookups_; }
  uint64_t cache_hits() const { return hits_; }
  const std::vector<double>& t80_seconds() const { return t80_seconds_; }

  void Write(Server* server, const Op& op, uint64_t rows_affected) {
    uint64_t expected = server->model->Apply(op.st);
    if (breaking_ == "rows_affected") ++expected;
    if (rows_affected != expected) {
      result_->Fail("rows_affected: " + op.st.sql + ": " +
                    std::to_string(rows_affected) + " rows, model " +
                    std::to_string(expected));
    }
    server->ref_stale = true;
  }

 private:
  RunResult* result_;
  std::string breaking_;
  std::map<size_t, Answer> first_;
  uint64_t lookups_ = 0, hits_ = 0;
  std::vector<double> t80_seconds_;
};

/// The references of a wave's reads, at the state the wave reads.
std::vector<Answer> References(Server* server, const std::vector<Op>& wave) {
  if (server->ref_stale) {
    server->ref->Refresh();
    server->ref_stale = false;
  }
  std::vector<Answer> out(wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    if (!wave[i].st.is_write()) out[i] = server->ref->Evaluate(wave[i].st);
  }
  return out;
}

/// Checks the responses of one ExecuteBatch call; counts attempts/failures.
void CheckResponses(Server* server, const std::vector<Op>& ops,
                    const std::vector<Answer>& refs,
                    const std::vector<QueryResponse>& responses, bool hot,
                    Checker* checker, RunResult* result) {
  for (size_t i = 0; i < ops.size(); ++i) {
    ++result->attempted;
    const QueryResponse& r = responses[i];
    if (!r.status.ok()) {
      ++result->failed;
      result->notes.push_back("failed: " + ops[i].st.sql + ": " +
                              r.status.ToString());
      continue;
    }
    if (ops[i].st.is_write()) {
      checker->Write(server, ops[i], r.dml ? r.dml->rows_affected() : 0);
    } else {
      checker->Served(ops[i], r);
      checker->Read(ops[i], refs[i], *r.result, hot);
    }
  }
}

/// Runs one wave through the service; returns its wall nanoseconds.
int64_t RunWave(Server* server, const std::vector<Op>& wave, bool hot,
                Checker* checker, RunResult* result) {
  const std::vector<Answer> refs = References(server, wave);
  std::vector<QueryRequest> requests;
  for (const Op& op : wave) requests.push_back(ToRequest(*server, op));
  const int64_t t0 = NowNs();
  const std::vector<QueryResponse> responses =
      server->svc->ExecuteBatch(requests);
  const int64_t elapsed = NowNs() - t0;
  CheckResponses(server, wave, refs, responses, hot, checker, result);
  return elapsed;
}

/// Builds the database, statistics, service, sessions and PREPAREs, then
/// warms the plan cache with whole rounds. `setup_s` receives the wall
/// seconds of the program's part: everything but the references and the
/// checks, which are built and run outside the timed part.
std::unique_ptr<Server> SetUp(bool hot, uint64_t seed, Tracer* tracer,
                              Checker* checker, RunResult* result,
                              double* setup_s) {
  const int64_t t0 = NowNs();
  auto server = std::make_unique<Server>();
  server->db = std::make_unique<Database>();
  robustqo::tpch::TpchConfig data;
  data.scale_factor = 0.02;
  {
    Span span(tracer, "tpch.load");
    if (!robustqo::tpch::LoadTpch(server->db->catalog(), data).ok()) {
      result->Fail("TPC-H load failed");
      return server;
    }
  }
  {
    Span span(tracer, "statistics.update");
    server->db->UpdateStatistics();
  }
  robustqo::server::ServerConfig config;
  config.admission.max_concurrent = kWave;
  server->svc = std::make_unique<QueryService>(server->db.get(), config);
  for (size_t s = 0; s < kSessions; ++s) {
    robustqo::server::SessionOptions options;
    options.confidence_threshold = kThresholds[s];
    options.estimator = KindOf(s);
    server->sessions.push_back(server->svc->OpenSession(options));
  }
  if (hot) {
    for (size_t i = 0; i < kHotStatements; ++i) {
      server->hot.push_back(MakeHotStatement(seed, i));
      for (SessionId id : server->sessions) {
        const auto status = server->svc->Prepare(
            id, "q" + std::to_string(i), server->hot.back().sql);
        if (!status.ok()) {
          result->Fail("PREPARE " + server->hot.back().sql + ": " +
                       status.ToString());
        }
      }
    }
  }
  int64_t setup_ns = NowNs() - t0;
  server->ref = std::make_unique<Reference>(server->db->catalog());
  server->model = std::make_unique<ShadowModel>(*server->db->catalog());
  RoundGenerator warm(hot, seed + 0x5eed);
  for (int round = 0; round < (hot ? 2 : 1); ++round) {
    for (const auto& wave : warm.Next(server->hot)) {
      setup_ns += RunWave(server.get(), wave, hot, checker, result);
    }
  }
  *setup_s = static_cast<double>(setup_ns) / 1e9;
  return server;
}

void FinalChecks(Server* server, const std::string& breaking,
                 RunResult* result) {
  if (breaking == "final_contents") server->model->Corrupt();
  const std::string diff = server->model->Compare(*server->db->catalog());
  if (!diff.empty()) result->Fail("final_contents: " + diff);
}

/// The traced lane: the calls QueryService makes for one wave, made
/// directly into each layer's entry point, each inside a span. The lane's
/// own plan cache only gives the timed lookups entries to find. It parses
/// and fingerprints serve_hot's statements once, as PREPARE does.
class LayerLane {
 public:
  LayerLane(Server* server, Tracer* tracer) : server_(server) {
    for (const Statement& st : server->hot) {
      robustqo::Result<robustqo::opt::QuerySpec> spec =
          robustqo::Status::Internal("unparsed");
      {
        Span span(tracer, "sql.parse");
        spec = server->db->ParseSql(st.sql);
      }
      hot_specs_.push_back(spec.value());
      Span span(tracer, "server.fingerprint");
      hot_fps_.push_back(robustqo::server::FingerprintQuery(spec.value()));
    }
  }

  /// The tracer of the current round; nullptr in spans-off rounds.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  void Reads(const std::vector<Op>& wave, const std::vector<Answer>& refs,
             bool hot, Checker* checker, RunResult* result) {
    Database* db = server_->db.get();
    for (size_t i = 0; i < wave.size(); ++i) {
      const Op& op = wave[i];
      if (op.st.is_write()) continue;
      ++result->attempted;
      const uint64_t id = ++request_id_;
      Span request(tracer_, "request", id);
      robustqo::opt::QuerySpec spec;
      uint64_t fp = 0;
      if (hot) {
        spec = hot_specs_[op.hot_index];
        fp = hot_fps_[op.hot_index];
      } else {
        {
          Span span(tracer_, "sql.parse", id);
          auto parsed = db->ParseSql(op.st.sql);
          if (!parsed.ok()) {
            ++result->failed;
            continue;
          }
          spec = std::move(parsed).value();
        }
        Span span(tracer_, "server.fingerprint", id);
        fp = robustqo::server::FingerprintQuery(spec);
      }
      const double threshold = kThresholds[op.session];
      const auto key = robustqo::server::PlanCacheKey::Make(
          fp, threshold, KindOf(op.session));
      auto outcome = robustqo::server::PlanCacheOutcome::kMiss;
      std::shared_ptr<const robustqo::opt::PlannedQuery> plan;
      {
        Span span(tracer_, "server.plan_cache_lookup", id);
        plan = cache_.LookupEx(key, db->statistics()->epoch(), &outcome);
      }
      if (plan == nullptr) {
        const double saved = db->confidence_threshold();
        if (threshold > 0.0) db->SetConfidenceThreshold(threshold);
        robustqo::Result<robustqo::opt::PlannedQuery> planned =
            robustqo::Status::Internal("unplanned");
        {
          Span span(tracer_, "optimizer.plan", id);
          planned = db->Plan(spec, KindOf(op.session));
        }
        db->SetConfidenceThreshold(saved);
        if (!planned.ok()) {
          ++result->failed;
          continue;
        }
        planner_.Add(db->last_optimizer_metrics());
        TimeEstimates(db->robust_estimator(), spec, tracer_, id);
        plan = std::make_shared<const robustqo::opt::PlannedQuery>(
            std::move(planned).value());
        cache_.Insert(key, plan, db->statistics()->epoch());
      }
      robustqo::Result<robustqo::core::ExecutionResult> run =
          robustqo::Status::Internal("unexecuted");
      {
        Span span(tracer_, "exec.execute", id);
        run = db->ExecutePlan(*plan);
      }
      if (!run.ok()) {
        ++result->failed;
        continue;
      }
      examined_ += run.value().meter.seq_tuples() +
                   run.value().meter.index_entries();
      spj_rows_ += run.value().spj_rows;
      checker->Read(op, refs[i], run.value(), hot);
    }
  }

  void Writes(const std::vector<Op>& wave, Checker* checker,
              RunResult* result) {
    Database* db = server_->db.get();
    for (const Op& op : wave) {
      if (!op.st.is_write()) continue;
      ++result->attempted;
      const uint64_t id = ++request_id_;
      Span request(tracer_, "request", id);
      robustqo::Result<robustqo::sql::ParsedStatement> parsed =
          robustqo::Status::Internal("unparsed");
      {
        Span span(tracer_, "sql.parse_dml", id);
        parsed = robustqo::sql::ParseStatement(*db->catalog(), op.st.sql);
      }
      if (!parsed.ok()) {
        ++result->failed;
        continue;
      }
      robustqo::Result<robustqo::exec::DmlResult> dml =
          robustqo::Status::Internal("unapplied");
      {
        Span span(tracer_, "exec.dml", id);
        dml = db->ExecuteDml(parsed.value().dml);
      }
      if (!dml.ok()) {
        ++result->failed;
        continue;
      }
      checker->Write(server_, op, dml.value().rows_affected());
    }
    Span span(tracer_, "statistics.rebuild");
    const uint64_t rebuilt = db->RebuildPendingStatistics();
    rebuilds_ += rebuilt;
    if (tracer_ != nullptr) timed_rebuilds_ += rebuilt;
  }

  void Report(const LayerTimes& times, RunResult* out, bool hot) const {
    out->Set("sql.parse_us", times.MeanSelf("sql.parse", 1.0), "us");
    out->Set("server.fingerprint_us",
             times.MeanSelf("server.fingerprint", 1.0), "us");
    out->Set("statistics.estimate_us",
             times.MeanSelf("statistics.estimate", 1.0), "us");
    out->Set("statistics.rebuilds", static_cast<double>(rebuilds_), "count");
    if (hot) {
      out->SetIdle({{"exec.dml_ms", "ms"}, {"statistics.rebuild_ms", "ms"}});
    } else {
      out->Set("exec.dml_ms", times.MeanSelf("exec.dml", 1e3), "ms");
      out->Set("statistics.rebuild_ms",
               timed_rebuilds_ == 0
                   ? 0.0
                   : times.SelfUs("statistics.rebuild") / 1e3 /
                         static_cast<double>(timed_rebuilds_),
               "ms");
    }
    out->Set("server.plan_cache_lookup_us",
             times.MeanSelf("server.plan_cache_lookup", 1.0), "us");
    planner_.Report(times, out);
    out->Set("exec.execute_ms", times.MeanSelf("exec.execute", 1e3), "ms");
    out->Set("exec.tuples_examined_per_row", Ratio(examined_, spj_rows_),
             "count");
  }

  /// Wall µs of the layer calls QueryService also makes for a read:
  /// parse and fingerprint (one-shot SQL only; serve_hot's happen at
  /// PREPARE), cache lookup, planning, execution.
  static double ServiceLayerUs(const LayerTimes& times, bool hot) {
    const double parse_us =
        hot ? 0.0
            : times.SelfUs("sql.parse") + times.SelfUs("server.fingerprint");
    return parse_us + times.SelfUs("server.plan_cache_lookup") +
           times.SelfUs("optimizer.plan") + times.SelfUs("exec.execute");
  }

 private:
  Server* server_;
  Tracer* tracer_ = nullptr;
  robustqo::server::PlanCache cache_{64};
  std::vector<robustqo::opt::QuerySpec> hot_specs_;
  std::vector<uint64_t> hot_fps_;
  uint64_t request_id_ = 0;
  PlanCounters planner_;
  uint64_t examined_ = 0, spj_rows_ = 0;
  uint64_t rebuilds_ = 0, timed_rebuilds_ = 0;  // all rounds; spans-on rounds
};

}  // namespace

RunResult RunServing(const RunOptions& opt, const std::string& breaking) {
  const bool hot = opt.workload == "serve_hot";
  RunResult result;
  Checker checker(&result, breaking);
  Tracer tracer;
  // The service runs on one thread, the caller's. On a shared machine a
  // second worker made wave latency and throughput swing by a third from
  // run to run (see README.md). In the traced run it also makes
  // ExecuteBatch's wall time and the sum of its layer calls comparable, so
  // that their difference is the service's own time.
  robustqo::perf::SetThreadCount(1);

  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    server.reset();
    setup_s.push_back(0.0);
    server = SetUp(hot, opt.seed, opt.trace ? &tracer : nullptr, &checker,
                   &result, &setup_s.back());
  }
  if (!result.correct) return result;
  result.attempted = 0;  // warm-up requests are set-up, not the measured loop
  result.failed = 0;
  checker.ResetCounts();

  RoundGenerator gen(hot, opt.seed);
  const int64_t budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  if (!opt.trace) {
    std::vector<double> latency_ms, round_rate;
    int64_t busy_ns = 0;
    while (busy_ns < budget_ns) {
      int64_t round_ns = 0;
      uint64_t completed = 0;
      for (const auto& wave : gen.Next(server->hot)) {
        const uint64_t failed_before = result.failed;
        const int64_t ns = RunWave(server.get(), wave, hot, &checker, &result);
        round_ns += ns;
        completed += wave.size() - (result.failed - failed_before);
        for (size_t i = 0; i < wave.size(); ++i) {
          latency_ms.push_back(static_cast<double>(ns) / 1e6);
        }
      }
      busy_ns += round_ns;
      round_rate.push_back(static_cast<double>(completed) * 1e9 /
                          static_cast<double>(round_ns));
    }
    FinalChecks(server.get(), breaking, &result);
    const auto [sim_mean, sim_sd] = MeanSd(checker.t80_seconds());
    result.Set("ops_per_s", Median(round_rate), "1/s");
    result.Set("lat_p50_ms", Quantile(latency_ms, 0.50), "ms");
    result.Set("lat_p90_ms", Quantile(latency_ms, 0.90), "ms");
    result.Set("sim_mean_s", sim_mean, "s");
    result.Set("sim_sd_s", sim_sd, "s");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.notes.push_back(
        "requests " + std::to_string(latency_ms.size()) + ", rounds " +
        std::to_string(round_rate.size()) + ", plan-cache hits " +
        std::to_string(checker.cache_hits()) + "/" +
        std::to_string(checker.cache_lookups()));
    return result;
  }

  // Traced run: rounds alternate spans on and off. Each wave makes its
  // reads' layer calls directly, then sends the same reads through the
  // service, then applies its writes as direct layer calls: both read
  // lanes see the wave's starting state.
  LayerLane lane(server.get(), &tracer);
  std::vector<double> round_on_ms, round_off_ms;
  uint64_t batch_reads = 0;
  int64_t elapsed_ns = 0;
  for (int round = 0; elapsed_ns < budget_ns || round_off_ms.empty();
       ++round) {
    const bool on = round % 2 == 0;
    Tracer* round_tracer = on ? &tracer : nullptr;
    lane.set_tracer(round_tracer);
    const int64_t round_t0 = NowNs();
    for (const auto& wave : gen.Next(server->hot)) {
      const std::vector<Answer> refs = References(server.get(), wave);
      std::vector<Op> reads;
      std::vector<Answer> read_refs;
      std::vector<QueryRequest> requests;
      for (size_t i = 0; i < wave.size(); ++i) {
        if (wave[i].st.is_write()) continue;
        reads.push_back(wave[i]);
        read_refs.push_back(refs[i]);
        requests.push_back(ToRequest(*server, wave[i]));
      }
      lane.Reads(wave, refs, hot, &checker, &result);
      std::vector<QueryResponse> responses;
      {
        Span span(round_tracer, "server.execute_batch");
        responses = server->svc->ExecuteBatch(requests);
      }
      if (on) batch_reads += requests.size();
      CheckResponses(server.get(), reads, read_refs, responses, hot, &checker,
                     &result);
      lane.Writes(wave, &checker, &result);
    }
    const double ms = static_cast<double>(NowNs() - round_t0) / 1e6;
    (on ? round_on_ms : round_off_ms).push_back(ms);
    elapsed_ns += NowNs() - round_t0;
  }
  FinalChecks(server.get(), breaking, &result);
  const LayerTimes times(tracer.events());
  lane.Report(times, &result, hot);
  result.SetIdle({{"workload.exp1_sweep_s", "s"},
                  {"workload.exp2_sweep_s", "s"},
                  {"workload.exp3_sweep_s", "s"},
                  {"workload.exp4_sweep_s", "s"},
                  {"stats_math.analytic_figs_ms", "ms"},
                  {"workload.star_load_s", "s"},
                  {"cost_model.rank_agreement_exp1", "ratio"},
                  {"cost_model.rank_agreement_exp2", "ratio"},
                  {"cost_model.rank_agreement_exp3", "ratio"}});
  result.Set("server.plan_cache_hit_ratio",
             Ratio(checker.cache_hits(), checker.cache_lookups()), "ratio");
  result.Set("server.self_ms",
             (times.SelfUs("server.execute_batch") -
              LayerLane::ServiceLayerUs(times, hot)) /
                 1e3 / static_cast<double>(batch_reads),
             "ms");
  result.Set("statistics.update_ms", times.MeanSelf("statistics.update", 1e3),
             "ms");
  result.Set("tpch.load_s", times.MeanSelf("tpch.load", 1e6), "s");
  result.Set("trace.overhead_pct", OverheadPct(round_on_ms, round_off_ms),
             "%");
  if (!opt.trace_out.empty() && !WriteChromeTrace(tracer, opt.trace_out)) {
    result.Fail("cannot write " + opt.trace_out);
  }
  result.notes.push_back("traced rounds on/off: " +
                         std::to_string(round_on_ms.size()) + "/" +
                         std::to_string(round_off_ms.size()) +
                         ", trace events " +
                         std::to_string(tracer.events().size()));
  return result;
}

}  // namespace e2ebench
