#include "columnar/record_batch.h"

#include <algorithm>
#include <sstream>

namespace feisu {

RecordBatch::RecordBatch(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

RecordBatch::RecordBatch(Schema schema, std::vector<ColumnVector> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {}

const ColumnVector* RecordBatch::ColumnByName(const std::string& name) const {
  int idx = schema_.FieldIndex(name);
  if (idx < 0) return nullptr;
  return &columns_[idx];
}

Status RecordBatch::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    if (!v.is_null() && v.type() != columns_[i].type() &&
        !(v.is_numeric() && columns_[i].type() == DataType::kDouble)) {
      return Status::InvalidArgument("type mismatch for column " +
                                     schema_.field(i).name);
    }
    columns_[i].AppendValue(v);
  }
  return Status::OK();
}

void RecordBatch::Reserve(size_t rows) {
  for (auto& col : columns_) col.Reserve(rows);
}

Status RecordBatch::Append(const RecordBatch& other) {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("schema mismatch in Append");
  }
  // Schemas are equal, so column types match.
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Append(other.columns_[c]);
  }
  return Status::OK();
}

RecordBatch RecordBatch::Filter(const BitVector& selection) const {
  std::vector<ColumnVector> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.Filter(selection));
  return RecordBatch(schema_, std::move(out));
}

RecordBatch RecordBatch::Take(const std::vector<uint32_t>& indices) const {
  std::vector<ColumnVector> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.Take(indices));
  return RecordBatch(schema_, std::move(out));
}

size_t RecordBatch::ByteSize() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.ByteSize();
  return bytes;
}

std::string RecordBatch::ToString(size_t max_rows) const {
  std::vector<size_t> widths(num_columns(), 0);
  std::vector<std::string> header(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    header[c] = schema_.field(c).name;
    widths[c] = header[c].size();
  }
  size_t rows = std::min(num_rows(), max_rows);
  std::vector<std::vector<std::string>> cells(
      rows, std::vector<std::string>(num_columns()));
  for (size_t r = 0; r < rows; ++r) {
    auto& row = cells[r];
    for (size_t c = 0; c < num_columns(); ++c) {
      row[c] = columns_[c].GetValue(r).ToString();
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
  };
  emit_row(header);
  os << "|";
  for (size_t c = 0; c < num_columns(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : cells) emit_row(row);
  if (num_rows() > rows) {
    os << "... (" << num_rows() - rows << " more rows)\n";
  }
  return os.str();
}

}  // namespace feisu
