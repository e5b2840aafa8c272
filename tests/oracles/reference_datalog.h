// Frozen tuple-at-a-time Datalog evaluator: the FactStore + RuleMatcher
// engine that datalog/eval.cc shipped before its rule bodies ran on the
// indexed body join (db/body_join.h). It matches each body atom by
// scanning every fact of its predicate, with no index. It exists solely as
// the trusted oracle for the Datalog differential test: same facts, same
// iteration, derivation and delta counters. Do not optimize this file.

#ifndef CSPDB_ORACLES_REFERENCE_DATALOG_H_
#define CSPDB_ORACLES_REFERENCE_DATALOG_H_

#include "datalog/eval.h"
#include "datalog/program.h"
#include "relational/structure.h"

namespace cspdb {

/// The pre-change naive evaluation: every rule re-fired on all facts each
/// round until no new fact appears.
DatalogResult ReferenceEvaluateNaive(const DatalogProgram& program,
                                     const Structure& edb);

/// The pre-change semi-naive evaluation: after round 0, each rule fires
/// once per IDB body atom, that atom restricted to the previous round's
/// new facts and every other atom reading all facts so far.
DatalogResult ReferenceEvaluateSemiNaive(const DatalogProgram& program,
                                         const Structure& edb);

}  // namespace cspdb

#endif  // CSPDB_ORACLES_REFERENCE_DATALOG_H_
