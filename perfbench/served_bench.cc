// served_bench: the served analytics loop, end to end over loopback HTTP.
//
// Hosts the stack in-process through the public API with rdfa_server's
// defaults (MvccGraph + WAL, SimulatedEndpoint with the DP planner, 64 MB
// answer cache, admission 8 in flight / 64 queued, one execution thread per
// query; HttpServer with one worker), loads a seeded product KG through the
// N-Triples parser and the RDFS closure, and drives it with one closed-loop
// client connection. Every answer is checked against the records the KG
// was generated from. The last line of stdout is one JSON object.
//
//   served_bench --workload analytic-session --seed 1 --seconds 10
//                --trace 0 --work-dir .bench_out
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "dataset.h"
#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "hifun/hifun_parser.h"
#include "rdf/mvcc.h"
#include "rdf/namespaces.h"
#include "rdf/ntriples.h"
#include "rdf/rdfs.h"
#include "server/http_server.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "translator/translator.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rdfa::endpoint::RequestHandler;
using rdfa::endpoint::ResultFormat;
using rdfa::endpoint::SimulatedEndpoint;
using rdfa::rdf::MvccGraph;
using rdfa::rdf::Term;

const Clock::time_point g_process_start = Clock::now();

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One-laptop re-pricing commits that close every traced run
/// (rdf.commit_ms and rdf.epoch_warmup_ms), followed by the WAL reopen check.
constexpr int kProbeCommits = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else return false;
  }
  return (argc % 2) == 1 &&
         (a->workload == "analytic-session" || a->workload == "join-export") &&
         a->seconds > 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Records a wrong answer; the run then reports correct=false.
class Verdict {
 public:
  void Wrong(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (wrong_++ < 5) std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
  }
  bool correct() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wrong_ == 0;
  }

 private:
  mutable std::mutex mu_;
  size_t wrong_ = 0;
};

struct SetupTimes {
  double parse_ms = 0, closure_ms = 0, freeze_ms = 0;
  size_t triples = 0;
};

/// N-Triples parse + RDFS closure + index freeze: the ingest path.
std::unique_ptr<rdfa::rdf::Graph> Ingest(const std::string& ntriples,
                                         SetupTimes* times) {
  auto graph = std::make_unique<rdfa::rdf::Graph>();
  auto t = Clock::now();
  rdfa::Status parsed = rdfa::rdf::ParseNTriples(ntriples, graph.get());
  if (!parsed.ok()) {
    std::fprintf(stderr, "ingest: %s\n", parsed.ToString().c_str());
    std::exit(1);
  }
  times->parse_ms = MsSince(t);
  t = Clock::now();
  rdfa::rdf::MaterializeRdfsClosure(graph.get());
  times->closure_ms = MsSince(t);
  t = Clock::now();
  graph->Freeze();
  times->freeze_ms = MsSince(t);
  times->triples = graph->size();
  return graph;
}

std::unique_ptr<MvccGraph> OpenStore(std::unique_ptr<rdfa::rdf::Graph> base,
                                     const std::string& wal_path) {
  MvccGraph::Options opts;
  opts.wal_path = wal_path;
  opts.update_fn = [](rdfa::rdf::Graph* g, const std::string& text) {
    auto applied = rdfa::sparql::ExecuteUpdateString(g, text);
    return applied.ok() ? rdfa::Status::OK() : applied.status();
  };
  auto opened = MvccGraph::Open(std::move(opts), std::move(base));
  if (!opened.ok()) {
    std::fprintf(stderr, "open store: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(opened).value();
}

/// The endpoint exactly as rdfa_server configures it by default.
std::unique_ptr<SimulatedEndpoint> ServedEndpoint(MvccGraph* mvcc) {
  auto ep = std::make_unique<SimulatedEndpoint>(
      mvcc, rdfa::endpoint::LatencyProfile::Local(), /*enable_cache=*/true);
  rdfa::CacheOptions copts;
  copts.max_bytes = size_t{64} << 20;
  copts.max_entries = 4096;
  copts.enabled = true;
  ep->set_cache_options(copts);
  rdfa::endpoint::AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 64;
  adm.base_timeout_ms = 0;
  ep->set_admission(adm);
  ep->set_thread_count(1);
  ep->set_use_dp(true);
  return ep;
}

constexpr double kServerTimeoutMs = 30'000;

/// Re-prices one seeded laptop in a commit of its own, the smallest commit,
/// and keeps the records (the oracle) in step. False on a failed commit.
bool CommitReprice(MvccGraph* mvcc, Records* records, std::mt19937_64* rng) {
  const size_t laptop = static_cast<size_t>(
      UniformInt(rng, 0, static_cast<int>(records->laptops.size()) - 1));
  const int new_price = kMinPrice + UniformInt(rng, 0, kPriceSpan - 1);
  const Term s = Term::Iri(kNs + LaptopName(laptop));
  const Term price = Term::Iri(std::string(kNs) + "price");
  mvcc->Remove(&s, &price, nullptr);
  mvcc->Insert(s, price, Term::Integer(new_price));
  auto epoch = mvcc->Commit();
  if (!epoch.ok()) {
    std::fprintf(stderr, "commit: %s\n", epoch.status().ToString().c_str());
    return false;
  }
  records->laptops[laptop].price = new_price;
  return true;
}

/// One request as the front-end sends it.
struct Request {
  bool analytic = true;
  AnalyticSpec analytic_spec;
  JoinSpec join_spec;
  std::string sparql;
  bool tsv = false;
};

rdfa::rdf::PrefixMap ExPrefixes() {
  rdfa::rdf::PrefixMap p;
  p.Register("ex", kNs);
  return p;
}

/// HIFUN -> SPARQL through the program's parser and translator.
bool Translate(const AnalyticSpec& spec, std::string* sparql) {
  static const rdfa::rdf::PrefixMap prefixes = ExPrefixes();
  auto query = rdfa::hifun::ParseHifun(spec.Hifun(), prefixes, kNs);
  if (!query.ok()) return false;
  auto text = rdfa::translator::TranslateToSparql(query.value());
  if (!text.ok()) return false;
  *sparql = std::move(text).value();
  return true;
}

Request MakeAnalytic(const AnalyticSpec& spec) {
  Request r;
  r.analytic_spec = spec;
  if (!Translate(spec, &r.sparql)) {
    std::fprintf(stderr, "cannot translate %s\n", spec.Hifun().c_str());
    std::exit(1);
  }
  return r;
}

Request MakeJoin(const JoinSpec& spec) {
  Request r;
  r.analytic = false;
  r.join_spec = spec;
  r.sparql = spec.Sparql();
  r.tsv = spec.tsv;
  return r;
}

/// Sends `req`; returns false on a transport failure or a non-200 status.
bool Send(rdfa::server::HttpClient* client, const Request& req,
          rdfa::server::HttpClient::Response* resp, double* ms) {
  const auto t = Clock::now();
  const bool ok = client->Post(req.tsv ? "/sparql?format=tsv"
                                       : "/sparql?format=json",
                               "application/sparql-query", req.sparql, resp);
  *ms = MsSince(t);
  return ok && resp->status == 200;
}

bool ReadTable(const Request& req, const std::string& body, Table* table,
               std::string* why) {
  return req.tsv ? ParseTsvResults(body, table, why)
                 : ParseJsonResults(body, table, why);
}

/// The answer a request must get, computed from the records before it is
/// sent.
struct Expected {
  std::shared_ptr<const AnalyticAnswer> analytic;
  Fingerprint join;
};

/// Expected answers from the records. The overview queries' answers can be
/// computed once, ahead of the timed window, while the records stand still.
class Oracle {
 public:
  Oracle(const Records* records, const CellHashes* hashes)
      : records_(records), hashes_(hashes) {}

  void PrecomputeOverviews() {
    for (const AnalyticSpec& spec : OverviewSpecs()) {
      overviews_.push_back(std::make_shared<const AnalyticAnswer>(
          ExpectAnalytic(spec, *records_)));
    }
  }

  Expected Expect(const Request& req) const {
    Expected e;
    if (!req.analytic) {
      e.join = ExpectJoin(req.join_spec, *records_, *hashes_);
    } else if (const int k = req.analytic_spec.overview;
               k >= 0 && !overviews_.empty()) {
      e.analytic = overviews_[static_cast<size_t>(k)];
    } else {
      e.analytic = std::make_shared<const AnalyticAnswer>(
          ExpectAnalytic(req.analytic_spec, *records_));
    }
    return e;
  }

 private:
  const Records* records_;
  const CellHashes* hashes_;  // join-export only
  std::vector<std::shared_ptr<const AnalyticAnswer>> overviews_;
};

/// Checks one served answer against its expected answer.
bool CheckAnswer(const Request& req, const Expected& want,
                 const std::string& body, std::string* why) {
  Table table;
  if (!ReadTable(req, body, &table, why)) return false;
  if (req.analytic) {
    return CheckAnalytic(table, req.analytic_spec, *want.analytic, why);
  }
  const Fingerprint got = FingerprintOf(table);
  if (got == want.join) return true;
  *why = "join rows " + std::to_string(got.rows) + " (fingerprint " +
         std::to_string(got.sum) + ") != expected " +
         std::to_string(want.join.rows) + " (" +
         std::to_string(want.join.sum) + ")";
  return false;
}

struct ClientResult {
  std::vector<double> latencies_ms;
  std::vector<double> check_ms;  ///< the client's own work per request
  size_t attempted = 0, failed = 0;
  Clock::time_point last_done{};
};

/// The analyst: one closed-loop connection, next request only after the
/// previous answer. Between two requests the client computes the next
/// expected answer and reads and checks the last response.
void RunClient(uint16_t port, const Args& args, const Oracle& oracle,
               Clock::time_point deadline, Verdict* verdict,
               ClientResult* out) {
  rdfa::server::HttpClient client;
  if (!client.Connect("127.0.0.1", port)) {
    verdict->Wrong("client cannot connect");
    return;
  }
  const uint64_t stream_seed = args.seed * 1'000'003ull;
  AnalyticStream analytic(stream_seed);
  JoinStream joins(stream_seed);
  const bool join = args.workload == "join-export";
  rdfa::server::HttpClient::Response resp;
  while (Clock::now() < deadline) {
    auto t = Clock::now();
    const Request req =
        join ? MakeJoin(joins.Next()) : MakeAnalytic(analytic.Next());
    const Expected want = oracle.Expect(req);
    double check_ms = MsSince(t);
    double ms = 0;
    const bool ok = Send(&client, req, &resp, &ms);
    ++out->attempted;
    out->last_done = Clock::now();
    if (!ok) {
      ++out->failed;
      out->latencies_ms.push_back(INFINITY);
      if (!client.connected()) client.Connect("127.0.0.1", port);
      continue;
    }
    out->latencies_ms.push_back(ms);
    t = Clock::now();
    std::string why;
    if (!CheckAnswer(req, want, resp.body, &why)) {
      verdict->Wrong(req.sparql.substr(0, 160) + ": " + why);
    }
    out->check_ms.push_back(check_ms + MsSince(t));
  }
}

/// The served stack: store, endpoint, pipeline and HTTP front-end.
struct Stack {
  std::unique_ptr<MvccGraph> mvcc;
  std::unique_ptr<SimulatedEndpoint> endpoint;
  std::unique_ptr<RequestHandler> handler;
  std::unique_ptr<rdfa::server::HttpServer> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    handler.reset();
    endpoint.reset();
    mvcc.reset();
  }
};

/// Sends `req` on `client` and checks it against the records. `ms` is the
/// round trip alone, without the check.
bool SendChecked(rdfa::server::HttpClient* client, const Request& req,
                 const Oracle& oracle, Verdict* verdict, std::string* body,
                 double* ms) {
  rdfa::server::HttpClient::Response resp;
  if (!Send(client, req, &resp, ms)) {
    verdict->Wrong("request failed: " + req.sparql.substr(0, 120) +
                   " status " + std::to_string(resp.status));
    return false;
  }
  std::string why;
  if (!CheckAnswer(req, oracle.Expect(req), resp.body, &why)) {
    verdict->Wrong(req.sparql.substr(0, 160) + ": " + why);
    return false;
  }
  if (body != nullptr) *body = std::move(resp.body);
  return true;
}

/// First-touch work (lazily built index permutations, page faults) done
/// before the clock starts: one request of each kind the workload sends.
/// Only the status is read here; the timed window checks every answer.
void WarmUp(uint16_t port, const Args& args, Verdict* verdict) {
  rdfa::server::HttpClient client;
  client.Connect("127.0.0.1", port);
  std::vector<Request> reqs;
  if (args.workload == "join-export") {
    JoinStream stream(args.seed ^ 0xabcdefull);
    std::vector<bool> seen(4, false);
    while (reqs.size() < seen.size()) {
      const JoinSpec spec = stream.Next();
      if (seen[spec.shape]) continue;
      seen[spec.shape] = true;
      reqs.push_back(MakeJoin(spec));
    }
  } else {
    for (const AnalyticSpec& spec : OverviewSpecs()) {
      reqs.push_back(MakeAnalytic(spec));
    }
  }
  rdfa::server::HttpClient::Response resp;
  for (const Request& req : reqs) {
    double ms = 0;
    if (!Send(&client, req, &resp, &ms)) {
      verdict->Wrong("warm-up request failed: " + req.sparql.substr(0, 120));
    }
  }
}

/// JSON and TSV renderings of one query must carry the same rows.
void CheckFormatsAgree(uint16_t port, const Args& args, const Oracle& oracle,
                       Verdict* verdict) {
  rdfa::server::HttpClient client;
  client.Connect("127.0.0.1", port);
  Request req = args.workload == "join-export"
                    ? MakeJoin(JoinStream(args.seed ^ 0x75ull).Next())
                    : MakeAnalytic(OverviewSpecs()[1]);
  Table tables[2];
  for (int f = 0; f < 2; ++f) {
    req.tsv = f == 1;
    std::string body, why;
    double ms = 0;
    if (!SendChecked(&client, req, oracle, verdict, &body, &ms)) return;
    ReadTable(req, body, &tables[f], &why);
  }
  if (tables[0].vars != tables[1].vars ||
      !(FingerprintOf(tables[0]) == FingerprintOf(tables[1]))) {
    verdict->Wrong("JSON and TSV renderings carry different rows");
  }
}

std::string WalPath(const Args& args) {
  return args.work_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
         "-" + std::to_string(::getpid()) + ".wal";
}

/// After the probe commits: reopening the WAL over a freshly ingested base
/// must reach the answers the last epoch served.
void CheckWalReopen(const Args& args,
                    const std::vector<std::pair<Request, Fingerprint>>& last,
                    Verdict* verdict) {
  SetupTimes ignored;
  auto store = OpenStore(
      Ingest(RenderNTriples(GenerateRecords(args.seed, Shape{})), &ignored),
      WalPath(args));
  MvccGraph::Pin pin = store->Snapshot();
  for (const auto& [req, fp] : last) {
    auto table = rdfa::sparql::ExecuteQueryString(pin.graph.get(), req.sparql);
    Table reread;
    std::string why;
    if (!table.ok() ||
        !ParseJsonResults(rdfa::sparql::WriteResultsJson(table.value()),
                          &reread, &why) ||
        !(FingerprintOf(reread) == fp)) {
      verdict->Wrong("WAL reopen differs from the last epoch: " +
                     req.analytic_spec.Hifun());
    }
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

// ---------------------------------------------------------------------------
// Traced run: the workload's request sequence once more, sequentially, with
// the benchmark's clock around each layer's public function.

struct LayerSample {
  double roundtrip_ms = 0, served_ms = 0, handle_ms = 0, serialize_ms = 0;
  double queued_ms = 0;
  double translate_us = 0, parse_ms = 0, plan_ms = 0, execute_ms = 0;
  double bgp_ms = 0, group_ms = 0, index_ms = 0;
  double rows_scanned = 0, result_rows = 0, response_kb = 0;
};

class TraceFile {
 public:
  void Span(const std::string& name, int request, double start_ms,
            double dur_ms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%d}}",
                  events_.empty() ? "" : ",\n", name.c_str(),
                  start_ms * 1000.0, dur_ms * 1000.0, request);
    events_ += buf;
  }
  void Write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[\n" << events_ << "\n]}\n";
  }

 private:
  std::string events_;
};

/// Times `fn` and records it as a span of request `id`.
template <typename Fn>
double Timed(TraceFile* trace, const char* name, int id,
             Clock::time_point origin, Fn&& fn) {
  const auto t = Clock::now();
  fn();
  const double ms = MsSince(t);
  trace->Span(name, id, MsBetween(origin, t), ms);
  return ms;
}

std::vector<Request> TracedSequence(const Args& args) {
  const uint64_t stream_seed = args.seed * 1'000'003ull;
  std::vector<Request> seq;
  if (args.workload == "join-export") {
    JoinStream s(stream_seed);
    for (int i = 0; i < 32; ++i) seq.push_back(MakeJoin(s.Next()));
  } else {
    AnalyticStream s(stream_seed);
    for (int i = 0; i < 40; ++i) seq.push_back(MakeAnalytic(s.Next()));
  }
  return seq;
}

/// First read of a fixed query on a fresh epoch minus a repeat of it.
double EpochWarmupMs(MvccGraph* mvcc, const std::string& sparql) {
  MvccGraph::Pin pin = mvcc->Snapshot();
  double ms[2];
  for (double& m : ms) {
    auto parsed = rdfa::sparql::ParseQuery(sparql);
    rdfa::sparql::Executor ex(pin.graph.get());
    ex.set_use_dp(true);
    const auto t = Clock::now();
    (void)ex.Execute(parsed.value());
    m = MsSince(t);
  }
  return ms[0] - ms[1];
}

/// The answers of the overview queries on the current epoch, each checked
/// against the records, as JSON row fingerprints.
std::vector<std::pair<Request, Fingerprint>> LastAnswers(
    uint16_t port, const Oracle& oracle, Verdict* verdict) {
  rdfa::server::HttpClient client;
  client.Connect("127.0.0.1", port);
  std::vector<std::pair<Request, Fingerprint>> last;
  for (const AnalyticSpec& spec : OverviewSpecs()) {
    const Request req = MakeAnalytic(spec);
    std::string body, why;
    double ms = 0;
    Table table;
    if (SendChecked(&client, req, oracle, verdict, &body, &ms) &&
        ParseJsonResults(body, &table, &why)) {
      last.emplace_back(req, FingerprintOf(table));
    }
  }
  return last;
}

/// The traced run. It ends with kProbeCommits one-laptop commits and leaves
/// the overview answers of the last epoch in `last` for the WAL check.
std::vector<Metric> TracedRun(
    const Args& args, Stack* stack, Records* records, const Oracle& oracle,
    const SetupTimes& setup, Verdict* verdict, size_t* attempted,
    size_t* failed, std::vector<std::pair<Request, Fingerprint>>* last) {
  const std::vector<Request> seq = TracedSequence(args);
  // Direct Handle() calls go to a twin endpoint of identical configuration
  // over the same store, so each sees the sequence once with the same cache
  // state as the served one.
  auto twin = ServedEndpoint(stack->mvcc.get());
  RequestHandler twin_handler(twin.get(), kServerTimeoutMs);
  rdfa::server::HttpClient client;
  client.Connect("127.0.0.1", stack->server->port());
  // The server's own service time of each request (request parsed to
  // response written), which it records in this histogram.
  const rdfa::Histogram& service = rdfa::MetricsRegistry::Global().GetHistogram(
      "rdfa_http_request_ms", rdfa::Histogram::LatencyBoundsMs());

  // Untraced pass: the same sequence over HTTP alone.
  std::vector<double> untraced;
  stack->endpoint->ClearCache();
  for (const Request& req : seq) {
    double ms = 0;
    ++*attempted;
    if (!SendChecked(&client, req, oracle, verdict, nullptr, &ms)) ++*failed;
    untraced.push_back(ms);
  }

  stack->endpoint->ClearCache();
  TraceFile trace;
  const auto origin = Clock::now();
  std::vector<LayerSample> samples;
  for (size_t i = 0; i < seq.size(); ++i) {
    const Request& req = seq[i];
    const int id = static_cast<int>(i);
    LayerSample s;
    if (req.analytic) {
      std::string sparql;
      s.translate_us = Timed(&trace, "translator", id, origin, [&] {
        Translate(req.analytic_spec, &sparql);
      }) * 1000.0;
    }
    // The round trip alone, as in the untraced pass: the answer check
    // after it is the benchmark's work.
    std::string body;
    ++*attempted;
    const double sent_at = MsSince(origin);
    const double served_before = service.Sum();
    if (!SendChecked(&client, req, oracle, verdict, &body, &s.roundtrip_ms)) {
      ++*failed;
    }
    s.served_ms = service.Sum() - served_before;
    trace.Span("server.roundtrip", id, sent_at, s.roundtrip_ms);
    s.response_kb = static_cast<double>(body.size()) / 1024.0;

    rdfa::endpoint::EndpointRequest er;
    er.query = req.sparql;
    er.format = req.tsv ? ResultFormat::kTsv : ResultFormat::kJson;
    rdfa::endpoint::EndpointResponse handled;
    s.handle_ms = Timed(&trace, "endpoint.handle", id, origin,
                        [&] { handled = twin_handler.Handle(er); });
    s.queued_ms = handled.detail.queued_ms;
    if (handled.body != body) {
      verdict->Wrong("direct Handle() body differs from the HTTP body");
    }

    MvccGraph::Pin pin = stack->mvcc->Snapshot();
    rdfa::Result<rdfa::sparql::ParsedQuery> parsed =
        rdfa::Status::Internal("unparsed");
    s.parse_ms = Timed(&trace, "sparql.parse", id, origin, [&] {
      parsed = rdfa::sparql::ParseQuery(req.sparql);
    });
    if (!parsed.ok()) {
      verdict->Wrong("ParseQuery failed: " + parsed.status().ToString());
      continue;
    }
    rdfa::sparql::Executor ex(pin.graph.get());
    ex.set_use_dp(true);
    s.plan_ms = Timed(&trace, "sparql.plan", id, origin,
                      [&] { (void)ex.ExplainJson(parsed.value()); });
    rdfa::Result<rdfa::sparql::ResultTable> table =
        rdfa::Status::Internal("unexecuted");
    s.execute_ms = Timed(&trace, "sparql.execute", id, origin,
                         [&] { table = ex.Execute(parsed.value()); });
    if (!table.ok()) {
      verdict->Wrong("Execute failed: " + table.status().ToString());
      continue;
    }
    const rdfa::sparql::ExecStats& st = ex.stats();
    s.bgp_ms = st.bgp_ms;
    s.group_ms = st.group_agg_ms;
    s.index_ms = st.index_build_ms;
    for (size_t n : st.rows_scanned) s.rows_scanned += static_cast<double>(n);
    s.result_rows = static_cast<double>(table.value().num_rows());
    s.serialize_ms = Timed(&trace, "endpoint.serialize", id, origin, [&] {
      (void)RequestHandler::Serialize(table.value(), er.format);
    });
    samples.push_back(s);
  }

  // Probe commits: each re-prices one laptop; the first read on the new
  // epoch is then compared with a repeat of it.
  std::mt19937_64 rng(args.seed ^ 0x5752495445ull);
  const std::string probe = MakeAnalytic(OverviewSpecs()[1]).sparql;
  std::vector<double> commit_ms, warmup_ms;
  for (int i = 0; i < kProbeCommits; ++i) {
    const auto t = Clock::now();
    ++*attempted;
    if (!CommitReprice(stack->mvcc.get(), records, &rng)) {
      ++*failed;
      continue;
    }
    commit_ms.push_back(MsSince(t));
    warmup_ms.push_back(EpochWarmupMs(stack->mvcc.get(), probe));
  }
  // The records changed: the last epoch's answers are checked against
  // answers computed afresh.
  *last = LastAnswers(stack->server->port(), Oracle(records, nullptr),
                      verdict);
  trace.Write(args.work_dir + "/trace-" + args.workload + "-" +
              std::to_string(args.seed) + ".json");

  auto med = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.*field);
    return Median(v);
  };
  double scanned = 0, rows = 0;
  std::vector<double> overhead, roundtrips, unclaimed, translate;
  for (const LayerSample& s : samples) {
    scanned += s.rows_scanned;
    rows += s.result_rows;
    overhead.push_back(s.roundtrip_ms - s.served_ms);
    roundtrips.push_back(s.roundtrip_ms);
    unclaimed.push_back(s.execute_ms - s.bgp_ms - s.group_ms - s.index_ms);
    if (seq[0].analytic) translate.push_back(s.translate_us);
  }
  const auto ans = stack->endpoint->answer_cache_stats();
  const auto plan = stack->endpoint->plan_cache_stats();
  auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  const double overhead_ms = Median(roundtrips) - Median(untraced);
  std::fprintf(stderr,
               "traced run: %zu requests; tracing overhead (traced p50 - "
               "untraced p50) = %.3f ms\n",
               samples.size(), overhead_ms);
  return {
      {"server.roundtrip_ms", "ms", Median(roundtrips)},
      {"server.overhead_ms", "ms", Median(overhead)},
      {"server.response_kb", "KiB", med(&LayerSample::response_kb)},
      {"endpoint.handle_ms", "ms", med(&LayerSample::handle_ms)},
      {"endpoint.serialize_ms", "ms", med(&LayerSample::serialize_ms)},
      {"endpoint.queued_ms", "ms", med(&LayerSample::queued_ms)},
      {"endpoint.answer_cache_hit_ratio", "ratio",
       ratio(static_cast<double>(ans.hits), static_cast<double>(ans.misses))},
      {"endpoint.plan_cache_hit_ratio", "ratio",
       ratio(static_cast<double>(plan.hits), static_cast<double>(plan.misses))},
      {"endpoint.cache_invalidations", "count",
       static_cast<double>(ans.invalidations + plan.invalidations)},
      {"translator.translate_us", "us", Median(translate)},
      {"sparql.parse_ms", "ms", med(&LayerSample::parse_ms)},
      {"sparql.plan_ms", "ms", med(&LayerSample::plan_ms)},
      {"sparql.execute_ms", "ms", med(&LayerSample::execute_ms)},
      {"sparql.bgp_ms", "ms", med(&LayerSample::bgp_ms)},
      {"sparql.group_agg_ms", "ms", med(&LayerSample::group_ms)},
      {"sparql.index_build_ms", "ms", med(&LayerSample::index_ms)},
      {"sparql.unclaimed_ms", "ms", Median(unclaimed)},
      {"sparql.rows_scanned", "count", med(&LayerSample::rows_scanned)},
      {"sparql.scanned_per_result_row", "ratio", rows > 0 ? scanned / rows : 0},
      {"sparql.result_rows", "count", med(&LayerSample::result_rows)},
      {"rdf.ntriples_parse_ms", "ms", setup.parse_ms},
      {"rdf.rdfs_closure_ms", "ms", setup.closure_ms},
      {"rdf.freeze_ms", "ms", setup.freeze_ms},
      {"rdf.commit_ms", "ms", Median(commit_ms)},
      {"rdf.epoch_warmup_ms", "ms", Median(warmup_ms)},
      {"rdf.triples", "count", static_cast<double>(setup.triples)},
      {"trace.overhead_ms", "ms", overhead_ms},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload analytic-session|join-export "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::string wal = WalPath(args);
  std::filesystem::remove(wal);

  // ---- set-up: records -> N-Triples -> parse -> closure -> freeze -> serve.
  // Generating the records and rendering them is the benchmark's own work
  // (a user brings the N-Triples file), so it is left out of setup_s.
  Records records;
  double input_ms = 0;
  SetupTimes setup;
  Stack stack;
  {
    const auto t = Clock::now();
    records = GenerateRecords(args.seed, Shape{});
    const std::string ntriples = RenderNTriples(records);
    input_ms = MsSince(t);
    stack.mvcc = OpenStore(Ingest(ntriples, &setup), wal);
  }
  stack.endpoint = ServedEndpoint(stack.mvcc.get());
  stack.handler =
      std::make_unique<RequestHandler>(stack.endpoint.get(), kServerTimeoutMs);
  rdfa::server::HttpServerOptions sopts;
  sopts.port = 0;
  // One connection needs one worker. With more, its requests land on
  // whichever worker is free, each grows a malloc arena of its own, and the
  // peak resident set wanders from run to run.
  sopts.worker_threads = 1;
  sopts.max_timeout_ms = kServerTimeoutMs;
  stack.server =
      std::make_unique<rdfa::server::HttpServer>(stack.handler.get(), sopts);
  rdfa::Status started = stack.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }
  const uint16_t port = stack.server->port();
  Verdict verdict;
  WarmUp(port, args, &verdict);
  const double setup_s = (MsSince(g_process_start) - input_ms) / 1000.0;
  std::fprintf(stderr,
               "setup %.3f s (+ %.0f ms generating the input): %zu triples "
               "(parse %.0f ms, closure %.0f ms, freeze %.0f ms)\n",
               setup_s, input_ms, setup.triples, setup.parse_ms,
               setup.closure_ms, setup.freeze_ms);

  // The oracle's tables, built after set-up and before the first request.
  std::unique_ptr<CellHashes> hashes;
  if (args.workload == "join-export") {
    hashes = std::make_unique<CellHashes>(records);
  }
  Oracle oracle(&records, hashes.get());
  oracle.PrecomputeOverviews();

  size_t attempted = 0, failed = 0;
  if (args.trace) {
    std::vector<std::pair<Request, Fingerprint>> last;
    std::vector<Metric> metrics =
        TracedRun(args, &stack, &records, oracle, setup, &verdict, &attempted,
                  &failed, &last);
    stack.Stop();  // releases the WAL before it is reopened
    CheckWalReopen(args, last, &verdict);
    std::filesystem::remove(wal);
    PrintResult(verdict.correct(), attempted, failed, metrics);
    return 0;
  }

  // ---- timed window: one closed-loop analyst.
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::microseconds(
                                    static_cast<int64_t>(args.seconds * 1e6));
  ClientResult result;
  RunClient(port, args, oracle, deadline, &verdict, &result);
  const double peak_rss_mb = PeakRssMb();

  const std::vector<double>& latencies = result.latencies_ms;
  const std::vector<double>& check_ms = result.check_ms;
  attempted = result.attempted;
  failed = result.failed;
  const size_t served = latencies.size() - failed;
  const double window_s =
      MsBetween(start, std::max(start, result.last_done)) / 1000.0;
  if (latencies.size() < 200) {
    std::fprintf(stderr, "warning: %zu requests; p95 has fewer than ten "
                 "samples beyond it\n", latencies.size());
  }

  // ---- after the window: the JSON and TSV renderings must agree.
  CheckFormatsAgree(port, args, oracle, &verdict);
  stack.Stop();
  std::filesystem::remove(wal);
  double check_total_ms = 0;
  for (double ms : check_ms) check_total_ms += ms;
  std::fprintf(stderr,
               "%zu requests (%zu failed) in %.2f s; client work per request "
               "(expected answer + read + check): p50 %.2f ms, %.1f%% of the "
               "window\n",
               attempted, failed, window_s, Median(check_ms),
               window_s > 0 ? check_total_ms / (window_s * 1000) * 100 : 0);

  PrintResult(verdict.correct(), attempted, failed,
              {
                  {"setup_s", "s", setup_s},
                  {"latency_p50_ms", "ms", Percentile(latencies, 50)},
                  {"latency_p95_ms", "ms", Percentile(latencies, 95)},
                  {"throughput_rps", "req/s",
                   window_s > 0 ? static_cast<double>(served) / window_s : 0},
                  {"peak_rss_mb", "MB", peak_rss_mb},
              });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
