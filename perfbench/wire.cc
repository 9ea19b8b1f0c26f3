#include "wire.h"

#include <algorithm>
#include <cmath>

#include "dataset.h"

namespace perfbench {

namespace {

std::string Canonical(std::string_view iri_or_lex, bool is_iri) {
  const std::string_view ns = kNs;
  if (is_iri && iri_or_lex.substr(0, ns.size()) == ns) {
    return std::string(iri_or_lex.substr(ns.size()));
  }
  return std::string(iri_or_lex);
}

/// Recursive-descent reader for the SPARQL JSON results shape. Unknown
/// members are skipped, so only the structure the spec fixes is assumed.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool Read(Table* out) {
    if (!Expect('{')) return false;
    if (Peek('}')) return Fail("empty document");
    while (true) {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      if (key == "head") {
        if (!Head(out)) return false;
      } else if (key == "results") {
        if (!Results(out)) return false;
      } else if (!Skip()) {
        return false;
      }
      if (Peek(',')) continue;
      if (!Expect('}')) return false;
      break;
    }
    Ws();
    if (pos_ != s_.size()) return Fail("trailing bytes");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Head(Table* out) {
    if (!Expect('{')) return false;
    if (Peek('}')) return true;
    while (true) {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      if (key == "vars") {
        if (!Expect('[')) return false;
        if (!Peek(']')) {
          while (true) {
            std::string v;
            if (!String(&v)) return false;
            out->vars.push_back(std::move(v));
            if (Peek(',')) continue;
            if (!Expect(']')) return false;
            break;
          }
        }
      } else if (!Skip()) {
        return false;
      }
      if (Peek(',')) continue;
      return Expect('}');
    }
  }

  bool Results(Table* out) {
    if (!Expect('{')) return false;
    if (Peek('}')) return true;
    while (true) {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      if (key == "bindings") {
        if (!Bindings(out)) return false;
      } else if (!Skip()) {
        return false;
      }
      if (Peek(',')) continue;
      return Expect('}');
    }
  }

  bool Bindings(Table* out) {
    if (out->vars.empty()) return Fail("bindings before head.vars");
    if (!Expect('[')) return false;
    if (Peek(']')) return true;
    std::string var;
    while (true) {
      std::vector<std::string> row(out->vars.size());
      std::vector<bool> seen(out->vars.size(), false);
      if (!Expect('{')) return false;
      if (!Peek('}')) {
        while (true) {
          if (!String(&var) || !Expect(':')) return false;
          auto it = std::find(out->vars.begin(), out->vars.end(), var);
          if (it == out->vars.end()) return Fail("binding of unknown var");
          const size_t col = static_cast<size_t>(it - out->vars.begin());
          if (seen[col]) return Fail("var bound twice in a row");
          seen[col] = true;
          if (!Cell(&row[col])) return false;
          if (Peek(',')) continue;
          if (!Expect('}')) return false;
          break;
        }
      }
      out->rows.push_back(std::move(row));
      if (Peek(',')) continue;
      return Expect(']');
    }
  }

  bool Cell(std::string* cell) {
    if (!Expect('{')) return false;
    std::string key, type, value;
    while (true) {
      if (!String(&key) || !Expect(':')) return false;
      if (key == "type") {
        if (!String(&type)) return false;
      } else if (key == "value") {
        if (!String(&value)) return false;
      } else if (!Skip()) {
        return false;
      }
      if (Peek(',')) continue;
      if (!Expect('}')) return false;
      break;
    }
    if (type != "uri" && type != "literal" && type != "bnode" &&
        type != "typed-literal") {
      return Fail("bad term type '" + type + "'");
    }
    *cell = Canonical(value, type == "uri");
    return true;
  }

  bool String(std::string* out) {
    Ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const size_t run = s_.find_first_of("\"\\", pos_);
      if (run == std::string_view::npos) break;
      out->append(s_.substr(pos_, run - pos_));
      pos_ = run;
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (pos_ + 1 >= s_.size()) break;
      const char e = s_[pos_ + 1];
      pos_ += 2;
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Fail("bad \\u escape");
          }
          pos_ += 4;
          if (code >= 0x80) return Fail("non-ASCII \\u escape");
          *out += static_cast<char>(code);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  /// Skips any JSON value.
  bool Skip() {
    Ws();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Peek(close)) return true;
      while (true) {
        if (c == '{') {
          std::string key;
          if (!String(&key) || !Expect(':')) return false;
        }
        if (!Skip()) return false;
        if (Peek(',')) continue;
        return Expect(close);
      }
    }
    const size_t end = s_.find_first_of(",}] \t\r\n", pos_);
    if (end == pos_) return Fail("bad scalar");
    pos_ = end == std::string_view::npos ? s_.size() : end;
    return true;
  }

  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  /// Consumes `c` if it is the next non-space byte.
  bool Peek(char c) {
    Ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) {
    if (Peek(c)) return true;
    return Fail(std::string("expected '") + c + "'");
  }
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string error_;
};

/// One N-Triples-syntax TSV cell: <iri>, "lex", "lex"^^<dt>, "lex"@lang,
/// _:b, or a bare number.
bool TsvCell(std::string_view cell, std::string* out) {
  if (cell.empty()) {
    out->clear();
    return true;
  }
  if (cell.front() == '<') {
    if (cell.back() != '>') return false;
    *out = Canonical(cell.substr(1, cell.size() - 2), true);
    return true;
  }
  if (cell.front() == '"') {
    out->clear();
    size_t i = 1;
    for (; i < cell.size() && cell[i] != '"'; ++i) {
      if (cell[i] == '\\' && i + 1 < cell.size()) {
        const char e = cell[++i];
        *out += e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
      } else {
        *out += cell[i];
      }
    }
    return i < cell.size();
  }
  *out = std::string(cell);
  return true;
}

}  // namespace

bool ParseJsonResults(std::string_view body, Table* out, std::string* error) {
  *out = Table();
  JsonReader reader(body);
  if (reader.Read(out)) return true;
  *error = "json: " + reader.error();
  return false;
}

bool ParseTsvResults(std::string_view body, Table* out, std::string* error) {
  *out = Table();
  size_t nl = body.find('\n');
  if (nl == std::string_view::npos) {
    *error = "tsv: no header line";
    return false;
  }
  std::string_view header = body.substr(0, nl);
  while (!header.empty()) {
    const size_t tab = header.find('\t');
    std::string_view var = header.substr(0, tab);
    if (var.empty() || var.front() != '?') {
      *error = "tsv: bad header";
      return false;
    }
    out->vars.emplace_back(var.substr(1));
    if (tab == std::string_view::npos) break;
    header.remove_prefix(tab + 1);
  }
  size_t pos = nl + 1;
  while (pos < body.size()) {
    nl = body.find('\n', pos);
    if (nl == std::string_view::npos) {
      *error = "tsv: unterminated row";
      return false;
    }
    std::string_view line = body.substr(pos, nl - pos);
    pos = nl + 1;
    std::vector<std::string> row;
    row.reserve(out->vars.size());
    while (true) {
      const size_t tab = line.find('\t');
      row.emplace_back();
      if (!TsvCell(line.substr(0, tab), &row.back())) {
        *error = "tsv: bad cell";
        return false;
      }
      if (tab == std::string_view::npos) break;
      line.remove_prefix(tab + 1);
    }
    if (row.size() != out->vars.size()) {
      *error = "tsv: row width " + std::to_string(row.size()) + " != " +
               std::to_string(out->vars.size());
      return false;
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

void Fingerprint::Add(uint64_t row_hash) {
  // splitmix64 finalizer so that similar rows spread over the sum.
  uint64_t z = row_hash + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  ++rows;
  sum += z;
}

uint64_t CellHash(std::string_view cell) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : cell) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t RowStep(uint64_t row, uint64_t cell_hash) {
  return (row ^ cell_hash) * 0x9fb21c651e98df25ull + 0x632be59bd9b4e019ull;
}

Fingerprint FingerprintOf(const Table& table) {
  Fingerprint fp;
  for (const auto& row : table.rows) {
    uint64_t h = kRowSeed;
    for (const std::string& cell : row) h = RowStep(h, CellHash(cell));
    fp.Add(h);
  }
  return fp;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

}  // namespace perfbench
