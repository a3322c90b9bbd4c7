// Unit tests for CSV parsing and writing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(CsvSplit, PlainCells) {
  const auto cells = split_csv_line("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(CsvSplit, EmptyCells) {
  const auto cells = split_csv_line("a,,c,");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[1], "");
  EXPECT_EQ(cells[3], "");
}

TEST(CsvSplit, QuotedCellsWithCommas) {
  const auto cells = split_csv_line("\"a,b\",c");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], "a,b");
}

TEST(CsvSplit, EscapedQuotes) {
  const auto cells = split_csv_line("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], "say \"hi\"");
}

TEST(CsvSplit, UnterminatedQuoteThrows) {
  EXPECT_THROW(split_csv_line("\"open,x"), ParseError);
}

TEST(CsvQuote, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("with space"), "with space");
  EXPECT_EQ(csv_quote("has\"quote"), "\"has\"\"quote\"");
}

TEST(CsvParse, HeaderAndRows) {
  const CsvTable t = parse_csv("x,y\n1,2\n3,4\n");
  ASSERT_EQ(t.header.size(), 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][0], "3");
  EXPECT_EQ(t.column("y"), 1u);
  EXPECT_THROW(t.column("z"), ParseError);
}

TEST(CsvParse, SkipsBlankLinesAndCrLf) {
  const CsvTable t = parse_csv("x,y\r\n\r\n1,2\r\n");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][1], "2");
}

TEST(CsvParse, UnterminatedQuoteNamesItsLine) {
  try {
    (void)parse_csv("x,y\n1,2\n\n\"open,3\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "CSV line 4: unterminated quote");
  }
}

TEST(CsvParse, WidthMismatchThrows) {
  EXPECT_THROW(parse_csv("x,y\n1,2,3\n"), ParseError);
  EXPECT_THROW(parse_csv("x,y\n1\n"), ParseError);
}

TEST(CsvWriter, RoundTrip) {
  CsvWriter w({"name", "value"});
  w.add_row({"alpha", "1"});
  w.add_row({"with,comma", "2"});
  EXPECT_EQ(w.row_count(), 2u);
  const CsvTable t = parse_csv(w.str());
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][0], "with,comma");
}

TEST(CsvWriter, RowWidthEnforced) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only-one"}), InvalidArgument);
}

TEST(CsvWriter, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter({}), InvalidArgument);
}

TEST(CsvFile, WriteAndReadBack) {
  const auto path =
      std::filesystem::temp_directory_path() / "hpcem_csv_test.csv";
  CsvWriter w({"k", "v"});
  w.add_row({"power", "3220"});
  w.write_file(path);
  const CsvTable t = read_csv_file(path);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][1], "3220");
  std::filesystem::remove(path);
}

TEST(CsvFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/x.csv"), ParseError);
}

TEST(CsvFile, DirectoryThrowsCannotOpen) {
  const auto dir = std::filesystem::temp_directory_path();
  try {
    (void)read_csv_file(dir);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open CSV file: " + dir.string());
  }
}

}  // namespace
}  // namespace hpcem
