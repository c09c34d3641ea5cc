#include "expr/evaluator.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "columnar/block.h"

namespace feisu {

const ColumnVector* LookupColumn(const Expr& ref, const RecordBatch& batch) {
  // Qualified refs ("t.c") first match a join-qualified output column,
  // then fall back to the bare name.
  if (!ref.table().empty()) {
    const ColumnVector* col = batch.ColumnByName(ref.QualifiedName());
    if (col != nullptr) return col;
  }
  return batch.ColumnByName(ref.column());
}

namespace {

// Kleene AND/OR/NOT over the answers `leaf` gives for every other node.
// A leaf returns false to decline (the compressed-domain walk, when no
// kernel applies); the walk then declines as a whole. Both predicate
// walks combine here.
template <typename Leaf>
Result<bool> CombineKleene(const Expr& expr, const Leaf& leaf,
                           TriStateVector* out) {
  if (expr.kind() != ExprKind::kLogical) return leaf(expr, out);
  TriStateVector lhs;
  FEISU_ASSIGN_OR_RETURN(bool ok, CombineKleene(*expr.child(0), leaf, &lhs));
  if (!ok) return false;
  if (expr.logical_op() == LogicalOp::kNot) {
    // Kleene NOT: swap TRUE and FALSE, UNKNOWN stays UNKNOWN.
    std::swap(lhs.is_true, lhs.is_false);
    *out = std::move(lhs);
    return true;
  }
  TriStateVector rhs;
  FEISU_ASSIGN_OR_RETURN(ok, CombineKleene(*expr.child(1), leaf, &rhs));
  if (!ok) return false;
  if (expr.logical_op() == LogicalOp::kAnd) {
    // Kleene AND: true iff both true; false iff either false.
    out->is_true = BitVector::And(lhs.is_true, rhs.is_true);
    out->is_false = BitVector::Or(lhs.is_false, rhs.is_false);
  } else {
    out->is_true = BitVector::Or(lhs.is_true, rhs.is_true);
    out->is_false = BitVector::And(lhs.is_false, rhs.is_false);
  }
  return true;
}

// One operand of a comparison or an arithmetic node: a scalar literal
// broadcast over every row, or a column (borrowed or computed).
struct Operand {
  const Value* literal = nullptr;
  ExprColumn col;

  const ColumnVector& column() const { return col.get(); }
  DataType type() const {
    return literal != nullptr ? literal->type() : column().type();
  }
  bool is_null_literal() const {
    return literal != nullptr && literal->is_null();
  }
};

Status ResolveOperand(const Expr& expr, const RecordBatch& batch,
                      Operand* out) {
  if (expr.kind() == ExprKind::kLiteral) {
    out->literal = &expr.value();
    return Status::OK();
  }
  FEISU_ASSIGN_OR_RETURN(out->col, EvaluateColumn(expr, batch));
  return Status::OK();
}

// Rows where both operands are non-NULL (a NULL literal: none).
BitVector BothValid(const Operand& lhs, const Operand& rhs, size_t n) {
  if (lhs.is_null_literal() || rhs.is_null_literal()) {
    return BitVector(n, false);
  }
  BitVector valid(n, true);
  if (lhs.literal == nullptr) valid.And(lhs.column().validity());
  if (rhs.literal == nullptr) valid.And(rhs.column().validity());
  return valid;
}

// Bit i = pred(i) over n rows.
template <typename Pred>
BitVector MatchBits(size_t n, const Pred& pred) {
  std::vector<uint64_t> words((n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    words[i >> 6] |= static_cast<uint64_t>(pred(i)) << (i & 63);
  }
  return BitVector::FromWords(std::move(words), n);
}

// Calls `fn` with a per-row accessor of a numeric operand's values in the
// common double domain (Value::AsDouble), typed per storage. A NULL slot
// holds 0, so it reads as 0.0.
template <typename Fn>
auto VisitNumeric(const Operand& o, const Fn& fn) {
  if (o.literal != nullptr) {
    double v = o.literal->AsDouble();
    return fn([v](size_t) { return v; });
  }
  const ColumnVector& col = o.column();
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t* p = col.ints().data();
      return fn([p](size_t i) { return static_cast<double>(p[i]); });
    }
    case DataType::kDouble: {
      const double* p = col.doubles().data();
      return fn([p](size_t i) { return p[i]; });
    }
    case DataType::kBool: {
      const uint8_t* p = col.bools().data();
      return fn([p](size_t i) { return p[i] != 0 ? 1.0 : 0.0; });
    }
    case DataType::kString:
      break;
  }
  return fn([](size_t) { return 0.0; });  // unreachable: numeric operands
}

// Calls `fn` with a per-row accessor of a string operand.
template <typename Fn>
BitVector VisitString(const Operand& o, const Fn& fn) {
  if (o.literal != nullptr) {
    const std::string* v = &o.literal->string_value();
    return fn([v](size_t) -> const std::string& { return *v; });
  }
  const std::string* p = o.column().strings().data();
  return fn([p](size_t i) -> const std::string& { return p[i]; });
}

// `a OP b` over numbers in the CompareNumbers order, with OP fixed at
// compile time so each loop is one straight-line comparison.
template <CompareOp kOp, typename A, typename B>
BitVector NumericMatch(size_t n, const A& a, const B& b) {
  return MatchBits(n, [&](size_t i) {
    return CompareOpHolds(kOp, CompareNumbers(a(i), b(i)));
  });
}

// The raw match bitmap of `lhs OP rhs` over n rows, in Value::Compare's
// order, ignoring validity: a NULL slot compares whatever it holds and
// the Kleene finish masks it out. Neither operand is a NULL literal.
BitVector CompareMatch(CompareOp op, const Operand& lhs, const Operand& rhs,
                       size_t n) {
  const bool lstr = lhs.type() == DataType::kString;
  const bool rstr = rhs.type() == DataType::kString;
  if (lstr && rstr) {
    return VisitString(lhs, [&](const auto& a) {
      return VisitString(rhs, [&](const auto& b) {
        if (op == CompareOp::kContains) {
          return MatchBits(n, [&](size_t i) {
            return a(i).find(b(i)) != std::string::npos;
          });
        }
        return MatchBits(n, [&](size_t i) {
          return CompareOpHolds(op, a(i).compare(b(i)));
        });
      });
    });
  }
  // CONTAINS on a non-string never matches; a string against a number
  // orders by type tag, the same answer on every row.
  if (op == CompareOp::kContains) return BitVector(n, false);
  if (lstr || rstr) {
    return BitVector(n, CompareOpHolds(op, lhs.type() < rhs.type() ? -1 : 1));
  }
  return VisitNumeric(lhs, [&](const auto& a) {
    return VisitNumeric(rhs, [&](const auto& b) {
      switch (op) {
        case CompareOp::kEq:
          return NumericMatch<CompareOp::kEq>(n, a, b);
        case CompareOp::kNe:
          return NumericMatch<CompareOp::kNe>(n, a, b);
        case CompareOp::kLt:
          return NumericMatch<CompareOp::kLt>(n, a, b);
        case CompareOp::kLe:
          return NumericMatch<CompareOp::kLe>(n, a, b);
        case CompareOp::kGt:
          return NumericMatch<CompareOp::kGt>(n, a, b);
        case CompareOp::kGe:
          return NumericMatch<CompareOp::kGe>(n, a, b);
        case CompareOp::kContains:
          break;
      }
      return BitVector(n, false);
    });
  });
}

// One comparison leaf, three-valued: the typed match kernel, then the
// shared Kleene finish over both operands' validity.
Result<TriStateVector> EvaluateComparison(const Expr& expr,
                                          const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  Operand lhs;
  Operand rhs;
  FEISU_RETURN_IF_ERROR(ResolveOperand(*expr.child(0), batch, &lhs));
  FEISU_RETURN_IF_ERROR(ResolveOperand(*expr.child(1), batch, &rhs));
  TriStateVector out;
  if (lhs.is_null_literal() || rhs.is_null_literal()) {
    out.is_true = BitVector(n, false);  // a NULL literal: all UNKNOWN
    out.is_false = BitVector(n, false);
    return out;
  }
  FinishPredicateBits(CompareMatch(expr.compare_op(), lhs, rhs, n),
                      BothValid(lhs, rhs, n), &out);
  return out;
}

// `lhs OP rhs` over n rows into a column of `out_type`. A row is NULL when
// either operand is, and division or modulo by zero is NULL too; every
// other row is computed in doubles (Value::AsDouble) and an INT64 result
// truncates.
ColumnVector EvaluateArithmetic(ArithOp op, const Operand& lhs,
                                const Operand& rhs, size_t n,
                                DataType out_type) {
  BitVector valid = BothValid(lhs, rhs, n);
  ColumnVector out(out_type);
  VisitNumeric(lhs, [&](const auto& a) {
    VisitNumeric(rhs, [&](const auto& b) {
      if (op == ArithOp::kDiv) {
        valid.And(MatchBits(n, [&](size_t i) { return b(i) != 0; }));
      } else if (op == ArithOp::kMod) {
        valid.And(MatchBits(
            n, [&](size_t i) { return static_cast<int64_t>(b(i)) != 0; }));
      }
      auto value = [&](size_t i) -> double {
        switch (op) {
          case ArithOp::kAdd:
            return a(i) + b(i);
          case ArithOp::kSub:
            return a(i) - b(i);
          case ArithOp::kMul:
            return a(i) * b(i);
          case ArithOp::kDiv:
            return a(i) / b(i);
          case ArithOp::kMod:
            break;
        }
        return static_cast<double>(static_cast<int64_t>(a(i)) %
                                   static_cast<int64_t>(b(i)));
      };
      // NULL rows are skipped: a divisor there may be zero.
      auto fill = [&](auto* rows) {
        using T = std::remove_pointer_t<decltype(rows)>;
        valid.ForEachSetBit(
            [&](size_t i) { rows[i] = static_cast<T>(value(i)); });
      };
      if (out_type == DataType::kInt64) {
        out.AppendBulk<int64_t>(valid, fill);
      } else {
        out.AppendBulk<double>(valid, fill);
      }
      return 0;
    });
    return 0;
  });
  return out;
}

// A predicate node that is not AND/OR/NOT.
Result<TriStateVector> EvaluatePredicateLeaf(const Expr& expr,
                                             const RecordBatch& batch) {
  size_t n = batch.num_rows();
  switch (expr.kind()) {
    case ExprKind::kComparison:
      return EvaluateComparison(expr, batch);
    case ExprKind::kLiteral: {
      TriStateVector out;
      if (expr.value().is_null()) {
        out.is_true = BitVector(n, false);
        out.is_false = BitVector(n, false);
        return out;
      }
      bool truthy = (expr.value().type() == DataType::kBool &&
                     expr.value().bool_value()) ||
                    (expr.value().is_numeric() &&
                     expr.value().AsDouble() != 0 &&
                     expr.value().type() != DataType::kBool);
      out.is_true = BitVector(n, truthy);
      out.is_false = BitVector(n, !truthy);
      return out;
    }
    case ExprKind::kColumnRef: {
      const ColumnVector* col = LookupColumn(expr, batch);
      if (col == nullptr) {
        return Status::NotFound("unknown column " + expr.QualifiedName());
      }
      if (col->type() != DataType::kBool) {
        return Status::InvalidArgument("predicate column must be BOOL");
      }
      TriStateVector out;
      FinishPredicateBits(
          MatchBits(n, [&](size_t i) { return col->bools()[i] != 0; }),
          col->validity(), &out);
      return out;
    }
    default:
      return Status::InvalidArgument("expression is not a predicate: " +
                                     expr.ToString());
  }
}

}  // namespace

Result<bool> TryEvaluatePredicateEncoded(const Expr& expr,
                                         const ColumnarBlock& block,
                                         TriStateVector* out) {
  auto leaf = [&block](const Expr& e, TriStateVector* tri) -> Result<bool> {
    if (e.kind() != ExprKind::kComparison) return false;
    const ExprPtr& l = e.child(0);
    const ExprPtr& r = e.child(1);
    if (l->kind() != ExprKind::kColumnRef || r->kind() != ExprKind::kLiteral) {
      return false;
    }
    int idx = -1;
    if (!l->table().empty()) {
      idx = block.schema().FieldIndex(l->QualifiedName());
    }
    if (idx < 0) idx = block.schema().FieldIndex(l->column());
    if (idx < 0) return false;
    return TryEvaluateEncodedCompare(
        block.schema().field(idx).type,
        block.encoded_column(static_cast<size_t>(idx)), e.compare_op(),
        r->value(), tri);
  };
  FEISU_ASSIGN_OR_RETURN(bool handled, CombineKleene(expr, leaf, out));
  if (!handled) NoteEncodedPredicateFallback();
  return handled;
}

Result<DataType> InferType(const Expr& expr, const Schema& schema) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      int idx = -1;
      if (!expr.table().empty()) idx = schema.FieldIndex(expr.QualifiedName());
      if (idx < 0) idx = schema.FieldIndex(expr.column());
      if (idx < 0) {
        return Status::NotFound("unknown column " + expr.QualifiedName());
      }
      return schema.field(idx).type;
    }
    case ExprKind::kLiteral:
      if (expr.value().is_null()) return DataType::kInt64;
      return expr.value().type();
    case ExprKind::kComparison:
    case ExprKind::kLogical:
      return DataType::kBool;
    case ExprKind::kArithmetic: {
      FEISU_ASSIGN_OR_RETURN(DataType lhs, InferType(*expr.child(0), schema));
      FEISU_ASSIGN_OR_RETURN(DataType rhs, InferType(*expr.child(1), schema));
      if (lhs == DataType::kString || rhs == DataType::kString) {
        return Status::InvalidArgument("arithmetic on string");
      }
      if (expr.arith_op() == ArithOp::kDiv) return DataType::kDouble;
      if (lhs == DataType::kDouble || rhs == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
    case ExprKind::kAggregate:
      switch (expr.agg_func()) {
        case AggFunc::kCount:
          return DataType::kInt64;
        case AggFunc::kAvg:
          return DataType::kDouble;
        default: {
          if (expr.children().empty()) return DataType::kInt64;
          return InferType(*expr.child(0), schema);
        }
      }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unreachable");
}

Result<ColumnVector> EvaluateExpr(const Expr& expr,
                                  const RecordBatch& batch) {
  size_t n = batch.num_rows();
  switch (expr.kind()) {
    case ExprKind::kAggregate:
      return Status::InvalidArgument(
          "aggregate expression in scalar context");
    case ExprKind::kColumnRef: {
      const ColumnVector* col = LookupColumn(expr, batch);
      if (col == nullptr) {
        return Status::NotFound("unknown column " + expr.QualifiedName());
      }
      return *col;
    }
    case ExprKind::kLiteral: {
      const Value& v = expr.value();
      ColumnVector out(v.is_null() ? DataType::kInt64 : v.type());
      VisitStorageType(out.type(), [&]<typename T>(std::type_identity<T>) {
        T cell{};
        if constexpr (std::is_same_v<T, uint8_t>) {
          if (!v.is_null()) cell = v.bool_value() ? 1 : 0;
        } else if constexpr (std::is_same_v<T, int64_t>) {
          if (!v.is_null()) cell = v.int64_value();
        } else if constexpr (std::is_same_v<T, double>) {
          cell = v.double_value();
        } else {
          cell = v.string_value();
        }
        out.AppendBulk<T>(BitVector(n, !v.is_null()),
                          [&](T* rows) { std::fill(rows, rows + n, cell); });
      });
      return out;
    }
    case ExprKind::kArithmetic: {
      Operand lhs;
      Operand rhs;
      FEISU_RETURN_IF_ERROR(ResolveOperand(*expr.child(0), batch, &lhs));
      FEISU_RETURN_IF_ERROR(ResolveOperand(*expr.child(1), batch, &rhs));
      FEISU_ASSIGN_OR_RETURN(DataType out_type,
                             InferType(expr, batch.schema()));
      return EvaluateArithmetic(expr.arith_op(), lhs, rhs, n, out_type);
    }
    case ExprKind::kComparison:
    case ExprKind::kLogical: {
      // UNKNOWN rows (neither TRUE nor FALSE) project as NULL.
      FEISU_ASSIGN_OR_RETURN(TriStateVector tri,
                             EvaluatePredicate3VL(expr, batch));
      ColumnVector out(DataType::kBool);
      out.AppendBulk<uint8_t>(
          BitVector::Or(tri.is_true, tri.is_false), [&](uint8_t* rows) {
            tri.is_true.ForEachSetBit([rows](size_t i) { rows[i] = 1; });
          });
      return out;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unreachable");
}

Result<ExprColumn> EvaluateColumn(const Expr& expr,
                                  const RecordBatch& batch) {
  ExprColumn out;
  if (expr.kind() == ExprKind::kColumnRef) {
    out.borrowed = LookupColumn(expr, batch);
    if (out.borrowed == nullptr) {
      return Status::NotFound("unknown column " + expr.QualifiedName());
    }
    return out;
  }
  FEISU_ASSIGN_OR_RETURN(out.computed, EvaluateExpr(expr, batch));
  return out;
}

Result<TriStateVector> EvaluatePredicate3VL(const Expr& expr,
                                             const RecordBatch& batch) {
  auto leaf = [&batch](const Expr& e, TriStateVector* tri) -> Result<bool> {
    FEISU_ASSIGN_OR_RETURN(*tri, EvaluatePredicateLeaf(e, batch));
    return true;
  };
  TriStateVector out;
  FEISU_RETURN_IF_ERROR(CombineKleene(expr, leaf, &out).status());
  return out;
}

Result<BitVector> EvaluatePredicate(const Expr& expr,
                                    const RecordBatch& batch) {
  FEISU_ASSIGN_OR_RETURN(TriStateVector tri,
                         EvaluatePredicate3VL(expr, batch));
  return std::move(tri.is_true);
}

bool StatsMayMatch(CompareOp op, const ColumnStats& stats,
                   const Value& literal) {
  if (literal.is_null()) return false;
  if (stats.min.is_null() || stats.max.is_null()) {
    // No stats (all-NULL column or unknown): only NULL rows, which never
    // match a comparison.
    return false;
  }
  switch (op) {
    case CompareOp::kEq:
      return literal.Compare(stats.min) >= 0 &&
             literal.Compare(stats.max) <= 0;
    case CompareOp::kNe:
      // Only prunable if every row equals the literal.
      return !(stats.min == stats.max && stats.min == literal);
    case CompareOp::kLt:
      return stats.min.Compare(literal) < 0;
    case CompareOp::kLe:
      return stats.min.Compare(literal) <= 0;
    case CompareOp::kGt:
      return stats.max.Compare(literal) > 0;
    case CompareOp::kGe:
      return stats.max.Compare(literal) >= 0;
    case CompareOp::kContains:
      return true;  // substring match can't be pruned by min/max
  }
  return true;
}

}  // namespace feisu
