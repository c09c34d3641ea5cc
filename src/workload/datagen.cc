#include "workload/datagen.h"

namespace feisu {

const std::vector<PaperDataset>& PaperTableI() {
  static const std::vector<PaperDataset> kDatasets{
      {"T1", 30.0, "62 TB", 200, "A"},
      {"T2", 130.0, "200 TB", 200, "B"},
      {"T3", 10.0, "7 TB", 57, "A"},
  };
  return kDatasets;
}

Schema MakeLogSchema(size_t num_fields) {
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (size_t i = 0; i < num_fields; ++i) {
    // Appended, not `"c" + std::to_string(i)`: GCC 12 at -O3 reports a
    // false -Wrestrict overlap in that concatenation.
    std::string name = "c";
    name += std::to_string(i);
    if (i % 7 == 1) {
      fields.push_back({name, DataType::kString, true});   // URL / keyword
    } else if (i % 11 == 3) {
      fields.push_back({name, DataType::kDouble, true});   // latency et al.
    } else {
      fields.push_back({name, DataType::kInt64, true});    // counters/flags
    }
  }
  return Schema(std::move(fields));
}

Schema MakeWebpageSchema(size_t num_fields) {
  // T3's attributes are a subset of T1's (paper §VI-A): reuse the first
  // `num_fields` fields of the log schema.
  Schema log_schema = MakeLogSchema();
  std::vector<Field> fields(log_schema.fields().begin(),
                            log_schema.fields().begin() +
                                static_cast<long>(num_fields));
  return Schema(std::move(fields));
}

RecordBatch GenerateRows(const Schema& schema, size_t n, Rng* rng) {
  RecordBatch batch(schema);
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    batch.mutable_column(c)->Reserve(n);
  }
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnVector* col = batch.mutable_column(c);
    for (size_t row = 0; row < n; ++row) {
      if (rng->NextBool(0.01)) {
        col->AppendNull();
        continue;
      }
      switch (schema.field(c).type) {
        case DataType::kInt64:
          if (c % 3 == 0) {
            // Flag/status-like attributes: tiny skewed domain, long runs —
            // this is what makes the columnar format compression-friendly.
            col->AppendInt64(static_cast<int64_t>(rng->NextZipf(4, 2.0)));
          } else {
            // Small domain so repeated point/range predicates select real
            // subsets (paper workloads filter on columnar attributes).
            col->AppendInt64(static_cast<int64_t>(rng->NextZipf(101, 0.8)));
          }
          break;
        case DataType::kDouble:
          col->AppendDouble(rng->NextDouble() * 1000.0);
          break;
        case DataType::kString:
          if (c % 2 == 0) {
            // Category-like strings: low cardinality, dictionary-friendly.
            col->AppendString("cat_" + std::to_string(rng->NextZipf(40, 1.0)));
          } else {
            col->AppendString("kw_" +
                              std::to_string(rng->NextZipf(5000, 1.1)));
          }
          break;
        case DataType::kBool:
          col->AppendBool(rng->NextBool(0.5));
          break;
      }
    }
  }
  return batch;
}

}  // namespace feisu
