// Depth-first evaluation of a conjunctive body over flat relations: the
// one join kernel behind conjunctive-query evaluation (Evaluate, paper
// Section 2) and bottom-up Datalog, whose rule bodies are conjunctive
// queries re-evaluated up to the least fixpoint (Section 4).
//
// A BodyJoin orders its atoms once, bound-first: the lead atom (the
// semi-naive delta atom) goes first, then greedily the atom with the most
// variables bound by the atoms before it. An atom with bound columns
// probes a KeyIndex over those columns instead of scanning its relation,
// and a variable repeated inside an atom is compared in place. Each
// satisfying binding's head projection goes into a deduplicating
// DbRelation, with no allocation per binding.
//
// The order decides how fast the satisfying bindings are found, never
// which ones: they are the homomorphisms from the body into the
// relations, a set the order does not enter. So the answers and the
// binding count (a Datalog rule's derivations) do not depend on it.

#ifndef CSPDB_DB_BODY_JOIN_H_
#define CSPDB_DB_BODY_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "db/join_key.h"
#include "db/relation.h"
#include "relational/structure.h"

namespace cspdb {

/// Relation `rel` of `s` as a flat DbRelation over columns 0..arity-1.
DbRelation FlatRelation(const Structure& s, int rel);

/// KeyIndexes over columns of relations, built on first use and shared by
/// every BodyJoin that probes the same columns of the same relation.
/// DbRelations only grow, so an index whose relation has grown since it
/// was built is rebuilt by the next Get: an index over a fixed (EDB)
/// relation is built once, one over a relation extended every round
/// (IDB) once per round.
class JoinIndexes {
 public:
  /// The slot of the index over `columns` of `*rel`.
  int Slot(const DbRelation* rel, const std::vector<int>& columns);

  /// The index in `slot`, current for its relation's rows.
  const db_internal::KeyIndex& Get(int slot);

 private:
  struct Entry {
    const DbRelation* rel;
    std::vector<int> columns;  // KeyIndex keeps a reference: deque-stable
    std::size_t rows = 0;      // rel->size() when `index` was built
    std::unique_ptr<db_internal::KeyIndex> index;
  };
  std::map<std::pair<const DbRelation*, std::vector<int>>, int> slots_;
  std::deque<Entry> entries_;
};

/// One atom of a conjunctive body: its variable ids (repeats allowed) and
/// the relation it ranges over, of arity args->size() (the schema is not
/// read). A null `rows` is an empty relation.
struct BodyAtom {
  const std::vector<int>* args;
  const DbRelation* rows;
};

/// A conjunctive body `head :- atoms` compiled into a bound-first plan.
/// The plan keeps the relation pointers, and each run reads their current
/// rows. Between runs, a relation the plan probes through an index may
/// only grow; the lead atom's relation is only scanned, so it may change
/// freely.
class BodyJoin {
 public:
  /// Plans the body over variables 0..num_variables-1 with atom `lead`
  /// first (-1: none) and registers its probe indexes in `*indexes`,
  /// which must outlive the plan. Every head variable must occur in the
  /// body.
  BodyJoin(const std::vector<BodyAtom>& atoms, const std::vector<int>& head,
           int num_variables, int lead, JoinIndexes* indexes);

  /// Enumerates every satisfying binding of the body, adds its head
  /// projection to `*out` unless `known` holds it, and returns the number
  /// of bindings.
  int64_t Run(DbRelation* out, const DbRelation* known = nullptr);

 private:
  struct Step {
    const DbRelation* rows;
    int index = -1;            // JoinIndexes slot over the bound columns
    std::vector<int> probe;    // the bound variable of each key column
    std::vector<std::pair<int, int>> bind;  // (column, variable first seen)
    std::vector<std::pair<int, int>> same;  // (column, column binding it)
  };

  void Descend(std::size_t depth);

  std::vector<Step> steps_;
  std::vector<int> head_;
  JoinIndexes* indexes_;
  // State of the current Run.
  std::vector<const db_internal::KeyIndex*> probes_;
  std::vector<int> binding_;
  std::vector<int> head_row_;
  DbRelation* out_ = nullptr;
  const DbRelation* known_ = nullptr;
  int64_t bindings_ = 0;
};

}  // namespace cspdb

#endif  // CSPDB_DB_BODY_JOIN_H_
