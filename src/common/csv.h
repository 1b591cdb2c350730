// Minimal CSV reading and writing used by the dataset and experiment I/O.
// Supports quoted fields, embedded commas and embedded quotes ("" escaping).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace pathrank {

/// Writes rows of string fields as RFC-4180-style CSV.
class CsvWriter {
 public:
  /// Creates (truncates) `path`. Throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; fields are quoted only when required.
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and closes the file. Throws std::runtime_error when any
  /// write, or the final flush, failed (a full disk, say). The destructor
  /// closes without checking, so a writer whose file must be complete
  /// calls Close().
  void Close();

 private:
  struct Impl;
  Impl* impl_;
};

/// Parses an entire CSV file into memory. Suitable for the modest file sizes
/// this project manipulates (networks up to ~10^5 edges).
class CsvReader {
 public:
  /// Reads and parses `path`. Throws std::runtime_error on I/O failure.
  explicit CsvReader(const std::string& path);

  /// Number of parsed rows (including any header row).
  size_t num_rows() const { return rows_.size(); }

  /// Returns row `i`.
  const std::vector<std::string>& row(size_t i) const { return rows_[i]; }

  /// 1-based source line of row `i`. Not simply i + 1: empty lines are
  /// skipped at parse time, so this is what loader diagnostics must
  /// report for the message to point at the right line in the file.
  size_t line(size_t i) const { return lines_[i]; }

  /// All rows.
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<size_t> lines_;
};

/// Parses one CSV line into fields (exposed for testing).
std::vector<std::string> ParseCsvLine(const std::string& line);

/// Escapes one field for CSV output (exposed for testing).
std::string EscapeCsvField(const std::string& field);

}  // namespace pathrank
