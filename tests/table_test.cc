// Regression tests for src/util/table.h, in particular Table::Fmt with
// cells longer than its 128-byte fast-path buffer (previously truncated).
#include "src/util/table.h"

#include <gtest/gtest.h>

#include <string>

namespace occamy {
namespace {

TEST(TableFmt, ShortCell) {
  EXPECT_EQ(Table::Fmt("%d", 42), "42");
  EXPECT_EQ(Table::Fmt("%.2f ms", 1.2345), "1.23 ms");
}

TEST(TableFmt, CellLongerThanFastPathBuffer) {
  const std::string big(300, 'x');
  const std::string cell = Table::Fmt("<%s>", big.c_str());
  EXPECT_EQ(cell.size(), big.size() + 2);
  EXPECT_EQ(cell, "<" + big + ">");
}

TEST(TableFmt, ExactBufferBoundary) {
  // 127 chars fits the 128-byte buffer with its NUL; 128 takes the slow path.
  const std::string fits(127, 'a');
  EXPECT_EQ(Table::Fmt("%s", fits.c_str()), fits);
  const std::string spills(128, 'b');
  EXPECT_EQ(Table::Fmt("%s", spills.c_str()), spills);
}

TEST(Table, PrintsLongCellsWithoutTruncation) {
  Table t({"k", "v"});
  t.AddRow({"long", Table::Fmt("%s", std::string(200, 'z').c_str())});
  const std::string text = t.Render();
  EXPECT_NE(text.find(std::string(200, 'z')), std::string::npos);
  EXPECT_EQ(text.substr(0, text.find('\n')), "k     v" + std::string(200 - 1 + 2, ' '));
}

}  // namespace
}  // namespace occamy
