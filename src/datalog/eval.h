// Bottom-up least-fixpoint evaluation of Datalog programs over an EDB
// database given as a relational structure (paper, Section 4: "the
// bottom-up evaluation of the least fixed-point of the program terminates
// within a polynomial number of steps").

#ifndef CSPDB_DATALOG_EVAL_H_
#define CSPDB_DATALOG_EVAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/program.h"
#include "db/relation.h"
#include "exec/cancellation.h"
#include "relational/structure.h"

namespace cspdb {

/// Derived IDB facts plus evaluation counters.
struct DatalogResult {
  /// Facts per IDB predicate (EDB predicates are not duplicated here).
  std::unordered_map<std::string, TupleSet> idb;

  int64_t iterations = 0;   ///< fixpoint rounds
  int64_t derivations = 0;  ///< rule firings (including duplicates)

  /// New facts admitted per fixpoint round (delta_sizes[i] is round i's
  /// count; sums to the total IDB size). The shape counter behind the
  /// semi-naive-vs-naive ablation; mirrored to "datalog.delta_facts".
  std::vector<int64_t> delta_sizes;

  /// Facts derived for `predicate` (empty set if none).
  const TupleSet& Facts(const std::string& predicate) const;

  /// True if the program's goal predicate derived any fact. For a 0-ary
  /// goal this is the Boolean answer.
  bool GoalDerived(const DatalogProgram& program) const;
};

/// The least fixpoint as the flat relations the evaluation derived it
/// in: what EvaluateSemiNaive computes before it builds DatalogResult's
/// TupleSet view. A caller that reads only some predicates (the service
/// reads the goal and a count) reads them here, without the view.
struct DatalogFixpoint {
  /// Facts per IDB predicate, in the order they were admitted; every IDB
  /// predicate has an entry, empty if it derived nothing.
  std::unordered_map<std::string, DbRelation> idb;

  int64_t iterations = 0;   ///< as in DatalogResult
  int64_t derivations = 0;  ///< as in DatalogResult
  std::vector<int64_t> delta_sizes;  ///< as in DatalogResult

  /// True if the evaluation reached the least fixpoint: its last round
  /// admitted nothing. False only for an evaluation a cancellation token
  /// stopped between rounds; its facts are those admitted so far.
  bool Complete() const;

  /// Facts derived for `predicate`, or null if it is not an IDB predicate.
  const DbRelation* Rows(const std::string& predicate) const;

  /// Facts derived over every IDB predicate.
  int64_t TotalFacts() const;

  /// The TupleSet view: the same facts and counters as a DatalogResult.
  DatalogResult ToResult() const;
};

/// Naive evaluation: every rule re-fired on all facts each round until no
/// new fact appears.
DatalogResult EvaluateNaive(const DatalogProgram& program,
                            const Structure& edb);

/// Semi-naive evaluation: after the first round, each rule is fired once
/// per body IDB atom with that atom restricted to the previous round's
/// delta. Produces the same facts as EvaluateNaive with fewer firings.
/// The same evaluation as SemiNaiveFixpoint, returned as its view.
DatalogResult EvaluateSemiNaive(const DatalogProgram& program,
                                const Structure& edb);

/// Semi-naive evaluation, returned as the flat relations it derived. A
/// non-null `cancel` is polled before each round, and a cancelled token
/// stops the evaluation there (see DatalogFixpoint::Complete).
DatalogFixpoint SemiNaiveFixpoint(
    const DatalogProgram& program, const Structure& edb,
    const exec::CancellationToken* cancel = nullptr);

}  // namespace cspdb

#endif  // CSPDB_DATALOG_EVAL_H_
