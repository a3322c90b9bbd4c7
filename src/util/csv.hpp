// Minimal CSV reading/writing for traces and telemetry export.
//
// Scope: comma-separated, optional double-quote quoting with "" escapes,
// header row, no embedded newlines inside quoted fields on read.  That is
// all the library's own traces need; it is not a general CSV engine.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace hpcem {

/// One parsed CSV table: a header plus rows of string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  /// 1-based source line of each row (blank lines are skipped, so rows
  /// and lines can drift apart).
  std::vector<std::size_t> lines;

  /// Index of a named column; throws ParseError if absent.
  [[nodiscard]] std::size_t column(std::string_view name) const;
};

/// Split a single CSV line into cells (handles quoted cells).
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Quote a cell if it contains comma/quote/newline.
[[nodiscard]] std::string csv_quote(std::string_view cell);

/// Parse CSV text; first line is the header.
[[nodiscard]] CsvTable parse_csv(std::string_view text);

/// Read and parse a CSV file; throws ParseError on I/O failure.
[[nodiscard]] CsvTable read_csv_file(const std::filesystem::path& path);

/// Incremental CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  /// Append a row; must match the header width.
  void add_row(std::vector<std::string> cells);

  /// Render the whole table to a string.
  [[nodiscard]] std::string str() const;

  /// Write to file; throws ParseError on I/O failure.
  void write_file(const std::filesystem::path& path) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hpcem
