#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

const char* GroupText(Group g) {
  switch (g) {
    case Group::kNone: return "eps";
    case Group::kManufacturer: return "manufacturer";
    case Group::kOrigin: return "origin o manufacturer";
    case Group::kContinent: return "locatedAt o origin o manufacturer";
    case Group::kYear: return "YEAR(releaseDate)";
    case Group::kManufacturerYear: return "(manufacturer x YEAR(releaseDate))";
    case Group::kOriginYear:
      return "(origin o manufacturer x YEAR(releaseDate))";
  }
  return "";
}

size_t KeyColumns(Group g) {
  switch (g) {
    case Group::kNone: return 0;
    case Group::kManufacturerYear:
    case Group::kOriginYear: return 2;
    default: return 1;
  }
}

const char* OpText(Op op) {
  switch (op) {
    case Op::kCount: return "COUNT";
    case Op::kSum: return "SUM";
    case Op::kAvg: return "AVG";
    case Op::kMin: return "MIN";
    case Op::kMax: return "MAX";
  }
  return "";
}

bool Passes(const AnalyticSpec& s, const Laptop& l, const Records& r) {
  return l.usb >= s.usb_min && l.price >= s.price_min &&
         l.price <= s.price_max &&
         (s.origin_country < 0 ||
          r.companies[l.manufacturer].origin == s.origin_country);
}

/// A laptop's group as one integer, so the expected groups are summed
/// without building a key string per laptop.
int64_t GroupId(Group g, const Laptop& l, const Records& r) {
  const int country = r.companies[l.manufacturer].origin;
  switch (g) {
    case Group::kNone: return 0;
    case Group::kManufacturer: return l.manufacturer;
    case Group::kOrigin: return country;
    case Group::kContinent: return r.countries[country].continent;
    case Group::kYear: return l.year;
    case Group::kManufacturerYear:
      return int64_t{l.manufacturer} * 10'000 + l.year;
    case Group::kOriginYear: return int64_t{country} * 10'000 + l.year;
  }
  return 0;
}

/// The canonical cells of a group, joined with '|'.
std::string GroupKey(Group g, int64_t id) {
  switch (g) {
    case Group::kNone: return "";
    case Group::kManufacturer: return CompanyName(static_cast<size_t>(id));
    case Group::kOrigin: return CountryName(static_cast<size_t>(id));
    case Group::kContinent: return kContinents[id];
    case Group::kYear: return std::to_string(id);
    case Group::kManufacturerYear:
      return CompanyName(static_cast<size_t>(id / 10'000)) + "|" +
             std::to_string(id % 10'000);
    case Group::kOriginYear:
      return CountryName(static_cast<size_t>(id / 10'000)) + "|" +
             std::to_string(id % 10'000);
  }
  return "";
}

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

bool ShapeOk(const Table& t, const AnalyticSpec& s, std::string* why) {
  const size_t want = KeyColumns(s.group) + s.ops.size();
  if (t.vars.size() != want) {
    *why = "expected " + std::to_string(want) + " columns, got " +
           std::to_string(t.vars.size());
    return false;
  }
  return true;
}

/// The answer's COUNT column summed.
bool SumCounts(const Table& t, const AnalyticSpec& s, int64_t* sum,
               std::string* why) {
  size_t col = KeyColumns(s.group);
  for (Op o : s.ops) {
    if (o == Op::kCount) break;
    ++col;
  }
  if (col >= t.vars.size()) {
    *why = "no COUNT column";
    return false;
  }
  *sum = 0;
  for (const auto& row : t.rows) {
    int64_t v = 0;
    if (!ParseInt(row[col], &v)) {
      *why = "COUNT cell '" + row[col] + "' is not an integer";
      return false;
    }
    *sum += v;
  }
  return true;
}

/// The u-quantile (u in [0, 1)) of a log-uniform distribution on [lo, hi].
double LogUniform(double u, double lo, double hi) {
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

/// Point n of the base-2 van der Corput sequence, turned by `shift` in
/// [0, 1). The first n points of it cover [0, 1) almost evenly, so the mix
/// of constants a run draws hardly depends on the seed, which only turns it.
double SpreadQuantile(uint64_t n, double shift) {
  double v = shift;
  for (double f = 0.5; n > 0; n >>= 1, f *= 0.5) {
    if ((n & 1) != 0) v += f;
  }
  return v >= 1 ? v - 1 : v;
}

/// A seeded shift in [0, 1).
double UnitShift(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

/// The integer at quantile u (in [0, 1)) of [lo, hi].
int AtQuantile(double u, int lo, int hi) {
  return lo + std::min(hi - lo, static_cast<int>(u * (hi - lo + 1)));
}

}  // namespace

std::string AnalyticSpec::Hifun() const {
  std::string m = measure_id ? "ID" : "price";
  if (usb_min > 0) m += " / USBPorts >= " + std::to_string(usb_min);
  if (price_min > 0) m += " / >= " + std::to_string(price_min);
  if (price_max != std::numeric_limits<int>::max()) {
    m += " / <= " + std::to_string(price_max);
  }
  if (origin_country >= 0) {
    m += " / manufacturer.origin = ex:" + CountryName(origin_country);
  }
  std::string op;
  for (Op o : ops) op += std::string(op.empty() ? "" : "+") + OpText(o);
  if (having_avg_gt >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " / > %.1f", having_avg_gt);
    op += buf;
  }
  std::string text = "(";
  text += GroupText(group);
  text += ", " + m + ", " + op + ") over ";
  text += over_product ? "Product" : "Laptop";
  return text;
}

const std::vector<AnalyticSpec>& OverviewSpecs() {
  static const std::vector<AnalyticSpec> specs = [] {
    std::vector<AnalyticSpec> v(7);
    v[0].ops = {Op::kCount};
    v[0].measure_id = true;
    v[1].ops = {Op::kAvg};
    v[2].group = Group::kOrigin;
    v[2].ops = {Op::kAvg, Op::kCount};
    v[3].group = Group::kContinent;
    v[3].ops = {Op::kSum, Op::kMin, Op::kMax};
    v[4].over_product = true;
    v[4].measure_id = true;
    v[4].ops = {Op::kCount};
    v[5].group = Group::kYear;
    v[5].measure_id = true;
    v[5].ops = {Op::kCount};
    v[6].group = Group::kManufacturerYear;
    v[6].ops = {Op::kAvg};
    for (size_t i = 0; i < v.size(); ++i) v[i].overview = static_cast<int>(i);
    return v;
  }();
  return specs;
}

AnalyticStream::AnalyticStream(uint64_t seed) : rng_(seed) {
  for (double& shift : shift_) shift = UnitShift(&rng_);
}

AnalyticSpec AnalyticStream::Next() {
  const int pos = position_;
  position_ = (position_ + 1) % kSessionClicks;
  const auto& overview = OverviewSpecs();
  if (pos == 0 || pos == 4) {
    return overview[static_cast<size_t>(overview_++) % overview.size()];
  }
  if (drills_.empty()) {
    drills_ = {0, 1, 2, 3, 4, 5, 6};
    std::shuffle(drills_.begin(), drills_.end(), rng_);
    ++session_;
  }
  const int drill = drills_.back();
  drills_.pop_back();
  // Each template's constants follow a spread sequence of its own, one
  // point per session.
  const double u = SpreadQuantile(session_, shift_[drill]);
  const int usb = 1 + static_cast<int>((session_ + drill) % 5);
  AnalyticSpec s;
  switch (drill) {
    case 0:
      s.group = Group::kYear;
      s.usb_min = usb;
      s.price_max = AtQuantile(u, 1000, 2999);
      s.ops = {Op::kAvg, Op::kCount};
      break;
    case 1:
      s.price_min = AtQuantile(u, 300, 2500);
      s.ops = {Op::kAvg, Op::kMax};
      break;
    case 2:
      s.having_avg_gt = 1550.5 + AtQuantile(u, 0, 200);
      s.ops = {Op::kAvg};
      break;
    case 3:
      s.origin_country = AtQuantile(u, 0, 29);
      s.ops = {Op::kAvg, Op::kMin};
      break;
    case 4:
      s.group = Group::kManufacturerYear;
      s.price_min = AtQuantile(u, 300, 2000);
      s.ops = {Op::kAvg};
      break;
    case 5:
      s.group = Group::kOriginYear;
      s.usb_min = usb;
      s.price_max = AtQuantile(u, 1000, 2999);
      s.ops = {Op::kSum, Op::kCount};
      break;
    default:
      s.group = Group::kOrigin;
      s.price_min = AtQuantile(u, 300, 1500);
      s.price_max = s.price_min + UniformInt(&rng_, 200, 1400);
      s.ops = {Op::kMin, Op::kMax, Op::kCount};
      break;
  }
  return s;
}

void Acc::Add(int64_t v) {
  ++count;
  sum += v;
  if (v < min) min = v;
  if (v > max) max = v;
}

AnalyticAnswer ExpectAnalytic(const AnalyticSpec& s, const Records& r) {
  std::map<int64_t, Acc> by_id;
  for (const Laptop& l : r.laptops) {
    if (Passes(s, l, r)) by_id[GroupId(s.group, l, r)].Add(l.price);
  }
  if (s.over_product) {  // drives are Products by the RDFS closure
    for (const Drive& d : r.drives) by_id[d.manufacturer].Add(0);
  }
  AnalyticAnswer want;
  for (const auto& [id, acc] : by_id) {
    const double avg =
        static_cast<double>(acc.sum) / static_cast<double>(acc.count);
    if (s.having_avg_gt < 0 || avg > s.having_avg_gt) {
      want.groups.emplace(GroupKey(s.group, id), acc);
    }
  }
  // The restricted item count by a loop of its own, not via the groups.
  for (const Laptop& l : r.laptops) want.items += Passes(s, l, r) ? 1 : 0;
  if (s.over_product) want.items += static_cast<int64_t>(r.drives.size());
  return want;
}

bool CheckAnalytic(const Table& t, const AnalyticSpec& s, const Records& r,
                   std::string* why) {
  return CheckAnalytic(t, s, ExpectAnalytic(s, r), why);
}

bool CheckAnalytic(const Table& t, const AnalyticSpec& s,
                   const AnalyticAnswer& want, std::string* why) {
  if (!ShapeOk(t, s, why)) return false;
  if (t.rows.size() != want.groups.size()) {
    *why = "expected " + std::to_string(want.groups.size()) + " groups, got " +
           std::to_string(t.rows.size());
    return false;
  }
  const size_t keys = KeyColumns(s.group);
  for (const auto& row : t.rows) {
    std::string key;
    for (size_t k = 0; k < keys; ++k) key += (k > 0 ? "|" : "") + row[k];
    auto it = want.groups.find(key);
    if (it == want.groups.end()) {
      *why = "unexpected group '" + key + "'";
      return false;
    }
    const Acc& a = it->second;
    for (size_t i = 0; i < s.ops.size(); ++i) {
      const std::string& cell = row[keys + i];
      if (s.ops[i] == Op::kAvg) {
        const double got = std::strtod(cell.c_str(), nullptr);
        const double exp =
            static_cast<double>(a.sum) / static_cast<double>(a.count);
        if (!(std::fabs(got - exp) <= kAvgRelTolerance * std::fabs(exp))) {
          *why = "group '" + key + "' AVG " + cell + " != " +
                 std::to_string(exp);
          return false;
        }
        continue;
      }
      const int64_t exp = s.ops[i] == Op::kCount ? a.count
                          : s.ops[i] == Op::kSum ? a.sum
                          : s.ops[i] == Op::kMin ? a.min
                                                 : a.max;
      int64_t got = 0;
      if (!ParseInt(cell, &got) || got != exp) {
        *why = "group '" + key + "' " + OpText(s.ops[i]) + " " + cell +
               " != " + std::to_string(exp);
        return false;
      }
    }
  }
  bool has_count = false;
  for (Op o : s.ops) has_count |= o == Op::kCount;
  if (has_count && s.having_avg_gt < 0) {
    int64_t total = 0;
    if (!SumCounts(t, s, &total, why)) return false;
    if (total != want.items) {
      *why = "group COUNTs sum to " + std::to_string(total) + ", not the " +
             std::to_string(want.items) + " restricted items";
      return false;
    }
  }
  return true;
}

std::string JoinSpec::Sparql() const {
  const std::string lo_s = std::to_string(lo), hi_s = std::to_string(hi);
  std::string q = "PREFIX ex: <" + std::string(kNs) + ">\n";
  switch (shape) {
    case 0:
      return q + "SELECT ?l ?m ?p ?u WHERE { ?l ex:manufacturer ?m . "
                 "?l ex:price ?p . ?l ex:USBPorts ?u . FILTER(?p >= " +
             lo_s + " && ?p < " + hi_s + ") }";
    case 1:
      return q + "SELECT ?l ?m ?c ?p WHERE { ?l ex:manufacturer ?m . "
                 "?m ex:origin ?c . ?c ex:locatedAt ex:" +
             kContinents[place] + " . ?l ex:price ?p . FILTER(?p < " + hi_s +
             ") }";
    case 2:
      return q + "SELECT ?l ?h ?hm ?d WHERE { ?l ex:hardDrive ?h . "
                 "?h ex:manufacturer ?hm . ?hm ex:origin ex:" +
             CountryName(place) +
             " . ?l ex:releaseDate ?d . ?l ex:price ?p . FILTER(?p >= " +
             lo_s + ") }";
    default:
      return q + "SELECT ?l ?h ?p WHERE { ?l ex:hardDrive ?h . ?h a ex:" +
             kDriveClasses[place] + " . ?l ex:price ?p . FILTER(?p >= " +
             lo_s + " && ?p < " + hi_s + ") }";
  }
}

JoinStream::JoinStream(uint64_t seed) : rng_(seed) {
  for (double& shift : shift_) shift = UnitShift(&rng_);
  place_shift_ = static_cast<int>(rng_() % 30);
}

JoinSpec JoinStream::Next() {
  const uint64_t n = count_++;
  const uint64_t round = n / 8;
  JoinSpec s;
  s.shape = static_cast<int>(n % 4);
  s.tsv = (n / 4) % 2 == 1;
  // The answer-size quantile follows a spread sequence per shape and format;
  // the continent, country or drive class cycles.
  const double u = SpreadQuantile(round, shift_[n % 8]);
  const int cycle = static_cast<int>((round + place_shift_) % 30);
  const int top = kMinPrice + kPriceSpan;
  switch (s.shape) {
    case 0: {  // ~1k..100k rows: price window of log-uniform width
      const int w = static_cast<int>(LogUniform(u, 27, kPriceSpan));
      s.lo = kMinPrice + UniformInt(&rng_, 0, kPriceSpan - w);
      s.hi = s.lo + w;
      break;
    }
    case 1:  // ~1k..33k rows: one continent, prices below hi
      s.place = cycle % 3;
      s.hi = kMinPrice + static_cast<int>(LogUniform(u, 82, kPriceSpan));
      break;
    case 2:  // ~1k..3k rows: drives made in one country
      s.place = cycle;
      s.lo = 2100 - static_cast<int>(u * (2100 - kMinPrice));
      break;
    default: {  // ~1k..33k rows: one drive class, price window
      s.place = cycle % 3;
      const int w = static_cast<int>(LogUniform(u, 82, kPriceSpan));
      s.lo = kMinPrice + UniformInt(&rng_, 0, kPriceSpan - w);
      s.hi = std::min(s.lo + w, top);
      break;
    }
  }
  return s;
}

CellHashes::CellHashes(const Records& r) {
  for (size_t i = 0; i < r.laptops.size(); ++i) {
    laptop.push_back(CellHash(LaptopName(i)));
    date.push_back(CellHash(DateLexical(r.laptops[i])));
  }
  for (size_t i = 0; i < r.companies.size(); ++i) {
    company.push_back(CellHash(CompanyName(i)));
  }
  for (size_t i = 0; i < r.drives.size(); ++i) {
    drive.push_back(CellHash(DriveName(i)));
  }
  for (size_t i = 0; i < r.countries.size(); ++i) {
    country.push_back(CellHash(CountryName(i)));
  }
  for (int i = 0; i < kMinPrice + kPriceSpan; ++i) {
    integer.push_back(CellHash(std::to_string(i)));
  }
}

Fingerprint ExpectJoin(const JoinSpec& s, const Records& r,
                       const CellHashes& h) {
  Fingerprint fp;
  auto row = [](std::initializer_list<uint64_t> cells) {
    uint64_t v = kRowSeed;
    for (uint64_t c : cells) v = RowStep(v, c);
    return v;
  };
  for (size_t i = 0; i < r.laptops.size(); ++i) {
    const Laptop& l = r.laptops[i];
    const Company& maker = r.companies[l.manufacturer];
    switch (s.shape) {
      case 0:
        if (l.price >= s.lo && l.price < s.hi) {
          fp.Add(row({h.laptop[i], h.company[l.manufacturer],
                      h.integer[l.price], h.integer[l.usb]}));
        }
        break;
      case 1:
        if (r.countries[maker.origin].continent == s.place &&
            l.price < s.hi) {
          fp.Add(row({h.laptop[i], h.company[l.manufacturer],
                      h.country[maker.origin], h.integer[l.price]}));
        }
        break;
      case 2: {
        const Drive& d = r.drives[l.drive];
        if (r.companies[d.manufacturer].origin == s.place &&
            l.price >= s.lo) {
          fp.Add(row({h.laptop[i], h.drive[l.drive],
                      h.company[d.manufacturer], h.date[i]}));
        }
        break;
      }
      default:
        if (r.drives[l.drive].cls == s.place && l.price >= s.lo &&
            l.price < s.hi) {
          fp.Add(row({h.laptop[i], h.drive[l.drive], h.integer[l.price]}));
        }
        break;
    }
  }
  return fp;
}

}  // namespace perfbench
