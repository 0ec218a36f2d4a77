// Plain-text table rendering for the CLI's reports and the benches.
//
// `mcrtl table`/`mcrtl experiment` reproduce the paper's tables and figures;
// this helper keeps their formatting identical (aligned columns, header
// rule, optional title).
#pragma once

#include <string>
#include <vector>

namespace mcrtl {

/// Column alignment for TextTable.
enum class Align { Left, Right };

/// A minimal monospace table: set a header, append rows of strings, render.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header,
                     std::vector<Align> aligns = {});

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render with single-space-padded, '|'-separated aligned columns and a
  /// dashed rule under the header.
  std::string render() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mcrtl
