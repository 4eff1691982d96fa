#include "util/table.hpp"

#include <gtest/gtest.h>

namespace zmail {
namespace {

TEST(Table, RendersHeaderAndSeparator) {
  Table t({"a", "bb"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| bb "), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, ColumnsAlignToWidestCell) {
  Table t({"x", "y"});
  t.add_row({"longvalue", "1"});
  t.add_row({"2", "another"});
  const std::string s = t.str();
  // Every line has the same length.
  std::size_t prev = std::string::npos;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find('\n', start);
    const std::size_t len = end - start;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    start = end + 1;
  }
}

TEST(Table, NumFormatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::int64_t{-42}), "-42");
  EXPECT_EQ(Table::num(std::uint64_t{7}), "7");
  EXPECT_EQ(Table::pct(0.256, 1), "25.6%");
  EXPECT_EQ(Table::sci(12345.0, 2), "1.23e+04");
}

}  // namespace
}  // namespace zmail
