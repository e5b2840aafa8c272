// Frozen single-join conjunctive-query evaluation: Evaluate as it shipped
// before bucket elimination, one BodyJoin over the whole body projected
// onto the head. The trusted oracle the bucket plan's differential test
// pins Evaluate to. Do not optimize this file.

#ifndef CSPDB_ORACLES_REFERENCE_EVAL_CQ_H_
#define CSPDB_ORACLES_REFERENCE_EVAL_CQ_H_

#include "db/conjunctive_query.h"
#include "db/relation.h"
#include "relational/structure.h"

namespace cspdb {

/// Q on `db`: every satisfying binding of the whole body enumerated by
/// one BodyJoin, each projected onto the head. Same contract as
/// Evaluate: an atom over a predicate absent from `db` yields an empty
/// result, and the schema lists head positions 0..n-1.
DbRelation ReferenceEvaluateCq(const ConjunctiveQuery& q, const Structure& db);

}  // namespace cspdb

#endif  // CSPDB_ORACLES_REFERENCE_EVAL_CQ_H_
