// Seeded fixture for the per-row-getvalue rule in src/expr/: a comparison
// or arithmetic kernel that boxes both operands per row through GetValue
// is the slow path the typed evaluator kernels replace, and must be
// flagged.
#include <cstddef>

namespace feisu_lint_fixture {

struct Col {
  double GetValue(size_t row) const { return static_cast<double>(row); }
};

size_t CountLess(const Col& lhs, const Col& rhs, size_t n) {
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (lhs.GetValue(i) < rhs.GetValue(i)) ++matches;
  }
  return matches;
}

}  // namespace feisu_lint_fixture
