// Console table rendering for experiment output.
//
// Every bench binary prints its results through Table so that EXPERIMENTS.md
// rows can be regenerated mechanically and diffed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zmail {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  // Convenience cell formatters.
  static std::string num(double v, int precision = 3);
  static std::string num(std::int64_t v);
  static std::string num(std::uint64_t v);
  static std::string pct(double fraction, int precision = 2);  // 0.25 -> "25.00%"
  static std::string sci(double v, int precision = 2);

  // Unicode block-character sparkline of `values` scaled to its own
  // min..max range, `width` cells wide (values are bucket-averaged when
  // there are more than `width` of them).  Empty input -> empty string;
  // a flat series renders as all-low blocks.
  static std::string sparkline(const std::vector<double>& values,
                               std::size_t width = 48);

  // Render with aligned columns and a separator under the header.
  std::string str() const;
  // Print `str()` to stdout with a title line.
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace zmail
