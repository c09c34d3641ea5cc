#ifndef FEISU_COLUMNAR_SCHEMA_H_
#define FEISU_COLUMNAR_SCHEMA_H_

#include <string>
#include <vector>

#include "columnar/data_type.h"

namespace feisu {

/// One column in a table schema.
struct Field {
  std::string name;
  DataType type = DataType::kInt64;
  bool nullable = true;
};

/// An ordered list of named, typed fields. Lookup by name is a linear scan
/// (schemas hold a few dozen fields at most), so the schema keeps no index
/// and a copy allocates only its field vector: schemas are built and copied
/// for every partial batch a leaf task emits.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the first field with this name, or -1 if absent.
  int FieldIndex(const std::string& name) const;
  bool HasField(const std::string& name) const {
    return FieldIndex(name) >= 0;
  }

  /// Schema containing only the named fields, in the given order. Unknown
  /// names are skipped.
  Schema Select(const std::vector<std::string>& names) const;

  bool operator==(const Schema& other) const;

  /// "name:TYPE, name:TYPE, ..." rendering.
  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

}  // namespace feisu

#endif  // FEISU_COLUMNAR_SCHEMA_H_
