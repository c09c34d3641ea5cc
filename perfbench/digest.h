#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>

#include "columnar/record_batch.h"

namespace perfbench {

/// Hash of an answer's exact bytes: schema types, row order, NULLs and
/// every value (doubles by bit pattern). The engine's determinism contract
/// makes a query's answer bytes equal to those of its solo run, so two
/// executions of one query must agree on this hash.
uint64_t AnswerHash(const feisu::RecordBatch& batch);

/// Order-independent digest term for item `item` answered with `hash`;
/// a run's digest is the wrapping sum of its terms.
uint64_t DigestTerm(uint64_t item, uint64_t hash);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
