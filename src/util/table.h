// Fixed-width text tables: the one printer behind the paper-figure output
// of `occamy_sim figure` (src/exp/figures.h) and the remaining benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace occamy {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  template <typename... Args>
  static std::string Fmt(const char* fmt, Args... args) {
    char buf[128];
    const int needed = std::snprintf(buf, sizeof(buf), fmt, args...);
    if (needed < 0) return std::string();
    if (static_cast<size_t>(needed) < sizeof(buf)) return std::string(buf);
    // Cell did not fit the fixed buffer: size exactly and reformat.
    std::string out(static_cast<size_t>(needed), '\0');
    std::snprintf(out.data(), out.size() + 1, fmt, args...);
    return out;
  }

  // Header, dashed separator, then the rows; every column is left-aligned
  // and padded to its widest cell plus two spaces.
  std::string Render() const {
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    std::string out = RenderRow(headers_, width);
    for (size_t c = 0; c < width.size(); ++c) out += std::string(width[c] + 2, '-');
    out += '\n';
    for (const auto& row : rows_) out += RenderRow(row, width);
    return out;
  }

  void Print() const {
    std::fputs(Render().c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  static std::string RenderRow(const std::vector<std::string>& cells,
                               const std::vector<size_t>& width) {
    std::string out;
    for (size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      // Cells past the header count have no width; they get the two
      // separating spaces only.
      const size_t w = c < width.size() ? width[c] : cells[c].size();
      out += std::string(w + 2 - cells[c].size(), ' ');
    }
    out += '\n';
    return out;
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string TableHeader(const std::string& title) { return "\n=== " + title + " ===\n"; }

inline void PrintHeader(const std::string& title) {
  std::fputs(TableHeader(title).c_str(), stdout);
}

}  // namespace occamy
