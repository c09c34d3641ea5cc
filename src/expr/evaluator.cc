#include "expr/evaluator.h"

#include <optional>
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

// A numeric column viewed as a contiguous double array, matching the
// per-row Value::AsDouble view exactly (bool -> 0/1, int64 -> cast).
// Non-double columns convert into `scratch`; doubles alias their storage.
// NULL slots hold 0, so they read as 0.0.
const double* AsDoubleArray(const ColumnVector& col,
                            std::vector<double>* scratch) {
  switch (col.type()) {
    case DataType::kDouble:
      return col.doubles().data();
    case DataType::kInt64: {
      const auto& v = col.ints();
      scratch->resize(v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        (*scratch)[i] = static_cast<double>(v[i]);
      }
      return scratch->data();
    }
    case DataType::kBool: {
      const auto& v = col.bools();
      scratch->resize(v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        (*scratch)[i] = v[i] != 0 ? 1.0 : 0.0;
      }
      return scratch->data();
    }
    case DataType::kString:
      break;
  }
  return nullptr;
}

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

// One side of a comparison: a scalar literal broadcast over every row, a
// column of the batch, or a column computed from a sub-expression.
struct Operand {
  const Value* literal = nullptr;
  const ColumnVector* borrowed = nullptr;
  std::optional<ColumnVector> computed;

  const ColumnVector& column() const {
    return computed ? *computed : *borrowed;
  }
  DataType type() const {
    return literal != nullptr ? literal->type() : column().type();
  }
};

Status ResolveOperand(const Expr& expr, const RecordBatch& batch,
                      Operand* out) {
  if (expr.kind() == ExprKind::kLiteral) {
    out->literal = &expr.value();
    return Status::OK();
  }
  if (expr.kind() == ExprKind::kColumnRef) {
    out->borrowed = LookupColumn(expr, batch);
    if (out->borrowed == nullptr) {
      return Status::NotFound("unknown column " + expr.QualifiedName());
    }
    return Status::OK();
  }
  FEISU_ASSIGN_OR_RETURN(out->computed, EvaluateExpr(expr, batch));
  return Status::OK();
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
// common double domain (Value::AsDouble), typed per storage.
template <typename Fn>
BitVector VisitNumeric(const Operand& o, const Fn& fn) {
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
  if ((lhs.literal != nullptr && lhs.literal->is_null()) ||
      (rhs.literal != nullptr && rhs.literal->is_null())) {
    out.is_true = BitVector(n, false);  // a NULL literal: all UNKNOWN
    out.is_false = BitVector(n, false);
    return out;
  }
  BitVector valid(n, true);
  if (lhs.literal == nullptr) valid.And(lhs.column().validity());
  if (rhs.literal == nullptr) valid.And(rhs.column().validity());
  FinishPredicateBits(CompareMatch(expr.compare_op(), lhs, rhs, n), valid,
                      &out);
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
      DataType type =
          expr.value().is_null() ? DataType::kInt64 : expr.value().type();
      ColumnVector out(type);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) out.AppendValue(expr.value());
      return out;
    }
    case ExprKind::kArithmetic: {
      FEISU_ASSIGN_OR_RETURN(ColumnVector lhs,
                             EvaluateExpr(*expr.child(0), batch));
      FEISU_ASSIGN_OR_RETURN(ColumnVector rhs,
                             EvaluateExpr(*expr.child(1), batch));
      FEISU_ASSIGN_OR_RETURN(DataType out_type,
                             InferType(expr, batch.schema()));
      ColumnVector out(out_type);
      out.Reserve(n);
      // Typed double arrays, no per-row boxing: a row is NULL when either
      // input is, and the NULL slots' stored 0 is never used.
      BitVector valid = BitVector::And(lhs.validity(), rhs.validity());
      std::vector<double> lscratch, rscratch;
      const double* a = AsDoubleArray(lhs, &lscratch);
      const double* b = AsDoubleArray(rhs, &rscratch);
      const bool int_out = out_type == DataType::kInt64;
      auto emit = [&](double v) {
        if (int_out) {
          out.AppendInt64(static_cast<int64_t>(v));
        } else {
          out.AppendDouble(v);
        }
      };
      const ArithOp op = expr.arith_op();
      for (size_t i = 0; i < n; ++i) {
        if (!valid.Get(i)) {
          out.AppendNull();
          continue;
        }
        switch (op) {
          case ArithOp::kAdd:
            emit(a[i] + b[i]);
            break;
          case ArithOp::kSub:
            emit(a[i] - b[i]);
            break;
          case ArithOp::kMul:
            emit(a[i] * b[i]);
            break;
          case ArithOp::kDiv:  // out_type is always kDouble for division
            if (b[i] == 0) {
              out.AppendNull();
            } else {
              out.AppendDouble(a[i] / b[i]);
            }
            break;
          case ArithOp::kMod: {
            int64_t d = static_cast<int64_t>(b[i]);
            if (d == 0) {
              out.AppendNull();
            } else {
              emit(static_cast<double>(static_cast<int64_t>(a[i]) % d));
            }
            break;
          }
        }
      }
      return out;
    }
    case ExprKind::kComparison:
    case ExprKind::kLogical: {
      // UNKNOWN rows (neither TRUE nor FALSE) project as NULL.
      FEISU_ASSIGN_OR_RETURN(TriStateVector tri,
                             EvaluatePredicate3VL(expr, batch));
      ColumnVector out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (tri.is_true.Get(i) || tri.is_false.Get(i)) {
          out.AppendBool(tri.is_true.Get(i));
        } else {
          out.AppendNull();
        }
      }
      return out;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unreachable");
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
