#include "dataset.h"

#include <cstdio>

namespace perfbench {

namespace {

constexpr int kFirstYear = 2018;
constexpr int kYears = 6;
constexpr char kRdfType[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr char kRdfProperty[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property";
constexpr char kRdfsClass[] = "http://www.w3.org/2000/01/rdf-schema#Class";
constexpr char kSubClassOf[] =
    "http://www.w3.org/2000/01/rdf-schema#subClassOf";
constexpr char kDomain[] = "http://www.w3.org/2000/01/rdf-schema#domain";
constexpr char kRange[] = "http://www.w3.org/2000/01/rdf-schema#range";
constexpr char kXsdInteger[] = "http://www.w3.org/2001/XMLSchema#integer";
constexpr char kXsdDateTime[] = "http://www.w3.org/2001/XMLSchema#dateTime";

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void Ex(const std::string& s, const std::string& p, const std::string& o) {
    Iri(kNs + s, kNs + p, kNs + o);
  }
  void Type(const std::string& s, const std::string& cls) {
    Iri(kNs + s, kRdfType, kNs + cls);
  }
  void Iri(const std::string& s, const std::string& p, const std::string& o) {
    *out_ += "<" + s + "> <" + p + "> <" + o + "> .\n";
  }
  void Lit(const std::string& s, const std::string& p, const std::string& lex,
           const char* datatype) {
    *out_ += "<" + std::string(kNs) + s + "> <" + kNs + p + "> \"" + lex +
             "\"^^<" + datatype + "> .\n";
  }
  void Int(const std::string& s, const std::string& p, long v) {
    Lit(s, p, std::to_string(v), kXsdInteger);
  }

 private:
  std::string* out_;
};

void RenderSchema(Writer* w) {
  for (const char* c : {"Product", "Laptop", "HDType", "SSD", "NVMe", "HDD",
                        "Company", "Person", "Location", "Country",
                        "Continent"}) {
    w->Iri(kNs + std::string(c), kRdfType, kRdfsClass);
  }
  const char* sub[][2] = {{"Laptop", "Product"}, {"HDType", "Product"},
                          {"SSD", "HDType"},     {"NVMe", "HDType"},
                          {"HDD", "HDType"},     {"Country", "Location"},
                          {"Continent", "Location"}};
  for (const auto& s : sub) {
    w->Iri(kNs + std::string(s[0]), kSubClassOf, kNs + std::string(s[1]));
  }
  struct Prop {
    const char* name;
    const char* domain;
    const char* range;
  };
  const Prop props[] = {
      {"manufacturer", "Product", "Company"},
      {"hardDrive", "Laptop", "HDType"},
      {"price", "Product", nullptr},
      {"USBPorts", "Laptop", nullptr},
      {"releaseDate", "Product", nullptr},
      {"origin", "Company", "Country"},
      {"founder", "Company", "Person"},
      {"birthplace", "Person", "Country"},
      {"locatedAt", "Country", "Continent"},
      {"GDPPerCapita", "Country", nullptr},
  };
  for (const Prop& p : props) {
    const std::string iri = kNs + std::string(p.name);
    w->Iri(iri, kRdfType, kRdfProperty);
    w->Iri(iri, kDomain, kNs + std::string(p.domain));
    if (p.range != nullptr) w->Iri(iri, kRange, kNs + std::string(p.range));
  }
}

Laptop RandomLaptop(std::mt19937_64* rng, size_t companies, size_t drives) {
  Laptop l;
  l.manufacturer = UniformInt(rng, 0, static_cast<int>(companies) - 1);
  l.drive = UniformInt(rng, 0, static_cast<int>(drives) - 1);
  l.price = kMinPrice + UniformInt(rng, 0, kPriceSpan - 1);
  l.usb = UniformInt(rng, 1, 5);
  l.year = kFirstYear + UniformInt(rng, 0, kYears - 1);
  l.month = UniformInt(rng, 1, 12);
  l.day = UniformInt(rng, 1, 28);
  return l;
}

}  // namespace

int UniformInt(std::mt19937_64* rng, int lo, int hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>((*rng)() % span);
}

std::string LaptopName(size_t i) { return "laptop" + std::to_string(i); }
std::string CompanyName(size_t i) { return "company" + std::to_string(i); }
std::string DriveName(size_t i) { return "hd" + std::to_string(i); }
std::string CountryName(size_t i) { return "country" + std::to_string(i); }

std::string DateLexical(const Laptop& l) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT00:00:00", l.year, l.month,
                l.day);
  return buf;
}

Records GenerateRecords(uint64_t seed, const Shape& shape) {
  std::mt19937_64 rng(seed);
  Records r;
  // Continents and origins are dealt out evenly, so the size of a
  // continent's or a country's share does not depend on the seed.
  r.countries.resize(shape.countries);
  for (size_t i = 0; i < r.countries.size(); ++i) {
    r.countries[i].continent = static_cast<int>(i % 3);
    r.countries[i].gdp = 5000 + UniformInt(&rng, 0, 79'999);
  }
  r.person_birthplace.resize(shape.persons);
  for (int& b : r.person_birthplace) {
    b = UniformInt(&rng, 0, static_cast<int>(shape.countries) - 1);
  }
  r.companies.resize(shape.companies);
  for (size_t i = 0; i < r.companies.size(); ++i) {
    r.companies[i].origin = static_cast<int>(i % shape.countries);
    r.companies[i].founder =
        UniformInt(&rng, 0, static_cast<int>(shape.persons) - 1);
  }
  r.drives.resize(shape.laptops / 4);
  for (Drive& d : r.drives) {
    d.cls = UniformInt(&rng, 0, 2);
    d.manufacturer =
        UniformInt(&rng, 0, static_cast<int>(shape.companies) - 1);
  }
  r.laptops.reserve(shape.laptops);
  for (size_t i = 0; i < shape.laptops; ++i) {
    r.laptops.push_back(
        RandomLaptop(&rng, r.companies.size(), r.drives.size()));
  }
  return r;
}

std::string RenderNTriples(const Records& r) {
  std::string out;
  out.reserve(r.laptops.size() * 6 * 110);
  Writer w(&out);
  RenderSchema(&w);
  for (const char* c : kContinents) w.Type(c, "Continent");
  for (size_t i = 0; i < r.countries.size(); ++i) {
    const std::string c = CountryName(i);
    w.Type(c, "Country");
    w.Ex(c, "locatedAt", kContinents[r.countries[i].continent]);
    w.Int(c, "GDPPerCapita", r.countries[i].gdp);
  }
  for (size_t i = 0; i < r.person_birthplace.size(); ++i) {
    const std::string p = "person" + std::to_string(i);
    w.Type(p, "Person");
    w.Ex(p, "birthplace", CountryName(r.person_birthplace[i]));
  }
  for (size_t i = 0; i < r.companies.size(); ++i) {
    const std::string c = CompanyName(i);
    w.Type(c, "Company");
    w.Ex(c, "origin", CountryName(r.companies[i].origin));
    w.Ex(c, "founder", "person" + std::to_string(r.companies[i].founder));
  }
  for (size_t i = 0; i < r.drives.size(); ++i) {
    const std::string d = DriveName(i);
    w.Type(d, kDriveClasses[r.drives[i].cls]);
    w.Ex(d, "manufacturer", CompanyName(r.drives[i].manufacturer));
  }
  for (size_t i = 0; i < r.laptops.size(); ++i) {
    const Laptop& l = r.laptops[i];
    const std::string s = LaptopName(i);
    w.Type(s, "Laptop");
    w.Ex(s, "manufacturer", CompanyName(l.manufacturer));
    w.Ex(s, "hardDrive", DriveName(l.drive));
    w.Int(s, "price", l.price);
    w.Int(s, "USBPorts", l.usb);
    w.Lit(s, "releaseDate", DateLexical(l), kXsdDateTime);
  }
  return out;
}

}  // namespace perfbench
