// Client-side reading of SPARQL result documents (JSON and TSV) into
// canonical cells, order-independent row fingerprints, and the nearest-rank
// percentile used for every reported latency.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A result table as the client reads it. Cells are canonical: an IRI in
/// the ex: namespace becomes its local name, any other IRI stays whole,
/// and a literal becomes its lexical form (datatype dropped), so the JSON
/// and TSV renderings of one answer read identically.
struct Table {
  std::vector<std::string> vars;
  std::vector<std::vector<std::string>> rows;
};

bool ParseJsonResults(std::string_view body, Table* out, std::string* error);
bool ParseTsvResults(std::string_view body, Table* out, std::string* error);

/// Order-independent fingerprint of a multiset of rows: the row count and
/// the wrapping sum of a per-row hash. Cells of a row are hashed in column
/// order, so a swapped column changes the fingerprint.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(uint64_t row_hash);
  bool operator==(const Fingerprint&) const = default;
};

/// FNV-1a of one canonical cell.
uint64_t CellHash(std::string_view cell);
/// Folds the next cell's hash into a row hash (start from kRowSeed).
inline constexpr uint64_t kRowSeed = 0x84222325cbf29ce4ull;
uint64_t RowStep(uint64_t row, uint64_t cell_hash);

Fingerprint FingerprintOf(const Table& table);

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 for an empty
/// sample. Sorts a copy.
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
