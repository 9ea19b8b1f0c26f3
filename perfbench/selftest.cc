// Self-test of the benchmark's own code: percentiles, result readers, the
// oracle on the running example (Fig 5.4) and on a small seeded KG, and
// negative cases that a perturbed answer must fail.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "dataset.h"
#include "hifun/hifun_parser.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "rdf/ntriples.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/results_io.h"
#include "translator/translator.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestPercentile() {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  Expect(Percentile(v, 5) == 15, "p5 of 5 values is the first");
  Expect(Percentile(v, 30) == 20, "p30 nearest rank is 20");
  Expect(Percentile(v, 40) == 20, "p40 nearest rank is 20");
  Expect(Percentile(v, 50) == 35, "p50 nearest rank is 35");
  Expect(Percentile(v, 100) == 50, "p100 is the maximum");
  Expect(Percentile({}, 50) == 0, "empty sample reads 0");
  Expect(Percentile({7}, 95) == 7, "single sample");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 95) == 95, "p95 of 1..100 is 95");
}

/// The running example: DELL (laptops at 900 and 1000) and Lenovo (820).
Records RunningExample() {
  Records r;
  r.countries = {{0, 76399}, {1, 12720}};
  r.person_birthplace = {0, 1};
  r.companies = {{0, 0}, {1, 1}};  // company0 = DELL, company1 = Lenovo
  r.drives = {{0, 0}, {0, 1}, {1, 0}};
  r.laptops = {{0, 0, 900, 2, 2021, 6, 10},
               {0, 1, 1000, 2, 2021, 9, 3},
               {1, 2, 820, 4, 2021, 10, 10}};
  return r;
}

AnalyticSpec AvgByManufacturer() {
  AnalyticSpec s;
  s.ops = {Op::kAvg};
  return s;
}

void TestRunningExampleOracle() {
  const Records r = RunningExample();
  const AnalyticSpec spec = AvgByManufacturer();
  Table answer;
  answer.vars = {"x2", "agg1"};
  answer.rows = {{"company0", "950"}, {"company1", "820"}};
  std::string why;
  Expect(CheckAnalytic(answer, spec, r, &why),
         "AVG price DELL 950, Lenovo 820 accepted: " + why);

  Table perturbed = answer;
  perturbed.rows[1][1] = "820.5";
  Expect(!CheckAnalytic(perturbed, spec, r, &why), "perturbed AVG flagged");
  perturbed = answer;
  perturbed.rows.pop_back();
  Expect(!CheckAnalytic(perturbed, spec, r, &why), "missing group flagged");
  perturbed = answer;
  perturbed.rows[0][0] = "company7";
  Expect(!CheckAnalytic(perturbed, spec, r, &why), "wrong group key flagged");

  AnalyticSpec count;
  count.measure_id = true;
  count.ops = {Op::kCount};
  Table counts;
  counts.vars = {"x2", "agg1"};
  counts.rows = {{"company0", "2"}, {"company1", "1"}};
  Expect(CheckAnalytic(counts, count, r, &why), "COUNT 2/1 accepted: " + why);
  counts.rows[0][1] = "3";
  Expect(!CheckAnalytic(counts, count, r, &why), "perturbed COUNT flagged");
}

Table Run(rdfa::rdf::Graph* graph, const std::string& sparql) {
  auto result = rdfa::sparql::ExecuteQueryString(graph, sparql);
  Table t;
  std::string why;
  if (!result.ok()) {
    Expect(false, "engine: " + result.status().ToString());
    return t;
  }
  Expect(ParseJsonResults(rdfa::sparql::WriteResultsJson(result.value()), &t,
                          &why),
         "json read: " + why);
  Table tsv;
  Expect(ParseTsvResults(result.value().ToTsv(), &tsv, &why),
         "tsv read: " + why);
  Expect(tsv.vars == t.vars && FingerprintOf(tsv) == FingerprintOf(t),
         "JSON and TSV readings agree");
  return t;
}

std::string Sparql(const AnalyticSpec& spec) {
  rdfa::rdf::PrefixMap prefixes;
  prefixes.Register("ex", kNs);
  auto q = rdfa::hifun::ParseHifun(spec.Hifun(), prefixes, kNs);
  if (!q.ok()) return "";
  auto s = rdfa::translator::TranslateToSparql(q.value());
  return s.ok() ? s.value() : "";
}

/// Engine answers over a small seeded KG agree with the oracle, and a
/// perturbed answer does not.
void TestOracleAgainstEngine() {
  Shape shape;
  shape.laptops = 400;
  shape.companies = 12;
  shape.persons = 10;
  shape.countries = 30;
  const Records r = GenerateRecords(7, shape);
  rdfa::rdf::Graph graph;
  Expect(rdfa::rdf::ParseNTriples(RenderNTriples(r), &graph).ok(),
         "N-Triples parse");
  rdfa::rdf::MaterializeRdfsClosure(&graph);

  std::vector<AnalyticSpec> specs = OverviewSpecs();
  AnalyticStream stream(3);
  for (int i = 0; i < 40; ++i) specs.push_back(stream.Next());
  std::string why;
  for (const AnalyticSpec& spec : specs) {
    const std::string sparql = Sparql(spec);
    Expect(!sparql.empty(), "translate " + spec.Hifun());
    const Table t = Run(&graph, sparql);
    Expect(CheckAnalytic(t, spec, r, &why), spec.Hifun() + ": " + why);
  }

  const CellHashes hashes(r);
  JoinStream joins(5);
  for (int i = 0; i < 24; ++i) {
    const JoinSpec spec = joins.Next();
    Table t = Run(&graph, spec.Sparql());
    const Fingerprint want = ExpectJoin(spec, r, hashes);
    Expect(FingerprintOf(t) == want, "join " + spec.Sparql());
    if (t.rows.empty()) continue;
    t.rows[0].back() += "0";
    Expect(!(FingerprintOf(t) == want), "perturbed join cell flagged");
    t.rows.pop_back();
    Expect(!(FingerprintOf(t) == want), "missing join row flagged");
  }
}

void TestReaders() {
  Table t;
  std::string why;
  Expect(ParseJsonResults(
             R"({"head":{"vars":["a","b"]},"results":{"bindings":[)"
             R"({"a":{"type":"uri",)"
             R"("value":"http://www.ics.forth.gr/example#x"},)"
             R"("b":{"type":"literal","value":"q\"\\z","datatype":"d"}}]}})",
             &t, &why),
         "json with escapes: " + why);
  Expect(t.rows.size() == 1 && t.rows[0][0] == "x" && t.rows[0][1] == "q\"\\z",
         "json cells canonical");
  Expect(!ParseJsonResults(R"({"head":{"vars":["a"]},"results":{"bindings":[{)",
                           &t, &why),
         "truncated json rejected");
  Expect(ParseTsvResults("?a\t?b\n<http://o/y>\t\"7\"^^<http://t>\n", &t, &why),
         "tsv: " + why);
  Expect(t.rows.size() == 1 && t.rows[0][0] == "http://o/y" &&
             t.rows[0][1] == "7",
         "tsv cells canonical");
  Expect(!ParseTsvResults("?a\t?b\n<x>\n", &t, &why), "short tsv row rejected");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestReaders();
  perfbench::TestRunningExampleOracle();
  perfbench::TestOracleAgainstEngine();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", perfbench::g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
