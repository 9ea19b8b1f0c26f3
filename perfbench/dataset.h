// The benchmark's ground truth: seeded product records in the running
// example's schema (laptops, hard drives, companies, founders, countries,
// continents) and their N-Triples rendering. The engine only ever sees the
// N-Triples text and the committed triples; every expected answer is
// computed from these records.
#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Namespace of every generated resource and property (the running
/// example's ex: namespace).
inline constexpr char kNs[] = "http://www.ics.forth.gr/example#";

inline constexpr const char* kDriveClasses[] = {"SSD", "NVMe", "HDD"};
inline constexpr const char* kContinents[] = {"NorthAmerica", "Asia",
                                              "Europe"};
inline constexpr int kMinPrice = 300;
inline constexpr int kPriceSpan = 2700;  ///< prices lie in [300, 3000)

struct Laptop {
  int manufacturer = 0;  ///< company index
  int drive = 0;         ///< drive index
  int price = 0;
  int usb = 0;  ///< 1..5
  int year = 0, month = 0, day = 0;
};
struct Drive {
  int cls = 0;           ///< index into kDriveClasses
  int manufacturer = 0;  ///< company index
};
struct Company {
  int origin = 0;   ///< country index
  int founder = 0;  ///< person index
};
struct Country {
  int continent = 0;  ///< index into kContinents
  int gdp = 0;
};

struct Records {
  std::vector<Country> countries;
  std::vector<int> person_birthplace;  ///< person index -> country index
  std::vector<Company> companies;
  std::vector<Drive> drives;
  std::vector<Laptop> laptops;
};

struct Shape {
  size_t laptops = 100'000;
  size_t companies = 1'005;
  size_t persons = 200;
  size_t countries = 30;
};

Records GenerateRecords(uint64_t seed, const Shape& shape);

/// Asserted triples only (schema + instances); the RDFS closure is left to
/// the engine.
std::string RenderNTriples(const Records& records);

std::string LaptopName(size_t i);
std::string CompanyName(size_t i);
std::string DriveName(size_t i);
std::string CountryName(size_t i);
std::string DateLexical(const Laptop& l);  ///< "YYYY-MM-DDT00:00:00"

/// Uniform integer in [lo, hi].
int UniformInt(std::mt19937_64* rng, int lo, int hi);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
