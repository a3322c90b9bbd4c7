#include "util/csv.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/file_io.hpp"

namespace hpcem {

std::size_t CsvTable::column(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw ParseError("CSV column not found: " + std::string(name));
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) throw ParseError("unterminated quote");
  cells.push_back(std::move(cur));
  return cells;
}

std::string csv_quote(std::string_view cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quote) return std::string(cell);
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += '"';
  return out;
}

CsvTable parse_csv(std::string_view text) {
  CsvTable table;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool first = true;
  while (pos <= text.size()) {
    ++line_no;
    std::size_t nl = text.find('\n', pos);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      std::vector<std::string> cells;
      try {
        cells = split_csv_line(line);
      } catch (const ParseError& e) {
        throw ParseError("CSV line " + std::to_string(line_no) + ": " +
                         e.what());
      }
      if (first) {
        table.header = std::move(cells);
        first = false;
      } else {
        if (cells.size() != table.header.size()) {
          throw ParseError("CSV line " + std::to_string(line_no) +
                           ": row width mismatch: expected " +
                           std::to_string(table.header.size()) + ", got " +
                           std::to_string(cells.size()));
        }
        table.rows.push_back(std::move(cells));
        table.lines.push_back(line_no);
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return table;
}

CsvTable read_csv_file(const std::filesystem::path& path) {
  const auto text = read_text_file(path.string());
  if (!text) throw ParseError("cannot open CSV file: " + path.string());
  return parse_csv(*text);
}

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  require(!header_.empty(), "CsvWriter: header must be non-empty");
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  require(cells.size() == header_.size(),
          "CsvWriter::add_row: row width must match header");
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << csv_quote(header_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << csv_quote(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

void CsvWriter::write_file(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write CSV file: " + path.string());
  out << str();
  if (!out) throw ParseError("I/O error writing CSV file: " + path.string());
}

}  // namespace hpcem
