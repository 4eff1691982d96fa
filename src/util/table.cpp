#include "util/table.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/assert.hpp"

namespace zmail {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ZMAIL_ASSERT(!headers_.empty());
}

Table& Table::add_row(std::vector<std::string> cells) {
  ZMAIL_ASSERT_MSG(cells.size() == headers_.size(),
                   "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::num(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string Table::num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

std::string Table::str() const {
  std::vector<std::size_t> w(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      if (row[c].size() > w[c]) w[c] = row[c].size();

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += ' ';
      line += row[c];
      line.append(w[c] - row[c].size(), ' ');
      line += " |";
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string sep = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    sep.append(w[c] + 2, '-');
    sep += '|';
  }
  out += sep + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Table::sparkline(const std::vector<double>& values,
                             std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty() || width == 0) return "";

  // Bucket-average down to at most `width` cells.
  std::vector<double> cells;
  const std::size_t n = values.size();
  if (n <= width) {
    cells = values;
  } else {
    cells.resize(width);
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t lo = c * n / width;
      std::size_t hi = (c + 1) * n / width;
      if (hi <= lo) hi = lo + 1;
      double sum = 0.0;
      for (std::size_t i = lo; i < hi; ++i) sum += values[i];
      cells[c] = sum / static_cast<double>(hi - lo);
    }
  }

  double mn = cells[0], mx = cells[0];
  for (double v : cells) {
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  const double span = mx - mn;
  std::string out;
  for (double v : cells) {
    const std::size_t level =
        span > 0.0 ? static_cast<std::size_t>((v - mn) / span * 7.0 + 0.5)
                   : 0;
    out += kBlocks[level < 8 ? level : 7];
  }
  return out;
}

void Table::print(const std::string& title) const {
  std::printf("\n== %s ==\n%s", title.c_str(), str().c_str());
  std::fflush(stdout);
}

}  // namespace zmail
