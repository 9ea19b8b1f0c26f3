// Request streams of the three workloads and the independent oracle every
// answer is checked against. Analytic requests are HIFUN queries (the
// front-end's facet counts and analytic answers); join exports are plain
// SPARQL SELECTs. Expected answers come from loops over the records only.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dataset.h"
#include "wire.h"

namespace perfbench {

enum class Group {
  kNone,              // eps
  kManufacturer,      // manufacturer
  kOrigin,            // origin o manufacturer
  kContinent,         // locatedAt o origin o manufacturer
  kYear,              // YEAR(releaseDate)
  kManufacturerYear,  // (manufacturer x YEAR(releaseDate))
  kOriginYear,        // (origin o manufacturer x YEAR(releaseDate))
};
enum class Op { kCount, kSum, kAvg, kMin, kMax };

/// One analytic (HIFUN) request. Restrictions apply to the laptops being
/// measured; the measure is the price, or ID (COUNT only).
struct AnalyticSpec {
  Group group = Group::kManufacturer;
  bool over_product = false;  ///< root class Product instead of Laptop
  bool measure_id = false;
  std::vector<Op> ops;
  int usb_min = 0;
  int price_min = 0;
  int price_max = std::numeric_limits<int>::max();
  int origin_country = -1;  ///< manufacturer.origin restriction
  double having_avg_gt = -1;  ///< HAVING AVG > x when >= 0
  int overview = -1;  ///< index into OverviewSpecs(), -1 for a drill-down

  std::string Hifun() const;
};

/// Relative tolerance for AVG values (the engine divides a double sum).
inline constexpr double kAvgRelTolerance = 1e-9;

/// The overview queries every session starts from, in a fixed order.
const std::vector<AnalyticSpec>& OverviewSpecs();

/// A seeded analyst: sessions of nine clicks that open on an overview
/// query, drill down, return to the overview and drill down again. Every
/// session issues each of the seven drill-down templates once, in a seeded
/// order, and the overview clicks cycle through OverviewSpecs(); so the mix
/// of query kinds is the same whatever the seed. Each template's constants
/// follow a seeded spread sequence, so their mix hardly varies either.
class AnalyticStream {
 public:
  explicit AnalyticStream(uint64_t seed);
  AnalyticSpec Next();

 private:
  static constexpr int kSessionClicks = 9;
  std::mt19937_64 rng_;
  int position_ = 0;
  int overview_ = 0;
  uint64_t session_ = 0;
  double shift_[7];  ///< per drill-down template
  std::vector<int> drills_;
};

/// Aggregates of one group of measured values.
struct Acc {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void Add(int64_t v);
};

/// The expected answer of an analytic request, from the records alone:
/// the groups (keyed by their canonical cells joined with '|', HAVING
/// applied) and the restricted item count, by a loop of its own.
struct AnalyticAnswer {
  std::map<std::string, Acc> groups;
  int64_t items = 0;
};
AnalyticAnswer ExpectAnalytic(const AnalyticSpec& spec,
                              const Records& records);

/// Checks a served analytic answer: same groups, exact COUNT/SUM/MIN/MAX,
/// AVG within kAvgRelTolerance, and group COUNTs summing to the restricted
/// item count.
bool CheckAnalytic(const Table& table, const AnalyticSpec& spec,
                   const AnalyticAnswer& want, std::string* why);
/// The same against answers computed from `records` on the spot.
bool CheckAnalytic(const Table& table, const AnalyticSpec& spec,
                   const Records& records, std::string* why);

/// One join export: a 2-5 pattern chain/star SELECT with seeded constants.
struct JoinSpec {
  int shape = 0;  ///< 0..3, see Sparql()
  int lo = 0, hi = 0;
  int place = 0;  ///< continent, country or drive class, by shape
  bool tsv = false;

  std::string Sparql() const;
};

/// Join exports in rounds of 8: every shape in both formats. Each pair's
/// answer-size quantile follows a seeded spread sequence over its range, so
/// the size mix hardly depends on the seed.
class JoinStream {
 public:
  explicit JoinStream(uint64_t seed);
  JoinSpec Next();

 private:
  std::mt19937_64 rng_;
  uint64_t count_ = 0;
  double shift_[8];  ///< per shape and format
  int place_shift_;
};

/// Precomputed CellHash of every name and literal a join row can carry.
struct CellHashes {
  explicit CellHashes(const Records& records);
  std::vector<uint64_t> laptop, company, drive, country, integer, date;
};

Fingerprint ExpectJoin(const JoinSpec& spec, const Records& records,
                       const CellHashes& hashes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
