#include "columnar/schema.h"

#include <sstream>

namespace feisu {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Select(const std::vector<std::string>& names) const {
  std::vector<Field> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    int idx = FieldIndex(name);
    if (idx >= 0) out.push_back(fields_[idx]);
  }
  return Schema(std::move(out));
}

bool Schema::operator==(const Schema& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name != other.fields_[i].name ||
        fields_[i].type != other.fields_[i].type ||
        fields_[i].nullable != other.fields_[i].nullable) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) os << ", ";
    os << fields_[i].name << ":" << DataTypeName(fields_[i].type);
  }
  return os.str();
}

}  // namespace feisu
