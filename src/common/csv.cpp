#include "common/csv.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pathrank {

struct CsvWriter::Impl {
  std::string path;
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->out.open(path, std::ios::out | std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << EscapeCsvField(fields[i]);
  }
  impl_->out << '\n';
}

void CsvWriter::Close() {
  // close() flushes the buffer; a failed write, earlier or in that flush,
  // leaves the stream failed.
  impl_->out.close();
  if (!impl_->out) {
    throw std::runtime_error("CsvWriter: write failed: " + impl_->path);
  }
}

std::string EscapeCsvField(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else {
      if (c == '"') {
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(std::move(cur));
        cur.clear();
      } else if (c == '\r') {
        // Tolerate CRLF input.
      } else {
        cur += c;
      }
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

CsvReader::CsvReader(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("CsvReader: cannot open " + path);
  }
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;  // skipped — which is why lines_ exists
    rows_.push_back(ParseCsvLine(line));
    lines_.push_back(line_number);
  }
}

}  // namespace pathrank
