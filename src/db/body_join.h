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
//
// A run given a CancellationToken polls it every few thousand rows
// visited and, once it fires, stops enumerating: the head rows added so
// far are a subset of the run's answer.

#ifndef CSPDB_DB_BODY_JOIN_H_
#define CSPDB_DB_BODY_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "db/join_key.h"
#include "db/relation.h"
#include "exec/cancellation.h"
#include "relational/structure.h"

namespace cspdb {

/// Relation `rel` of `s` as a flat DbRelation over columns 0..arity-1.
DbRelation FlatRelation(const Structure& s, int rel);

/// KeyIndexes over columns of relations, built on first use and shared by
/// every BodyJoin that probes the same columns of the same relation. An
/// index covers a row prefix, and a Get for a different prefix rebuilds
/// it: an index over a fixed (EDB) relation is built once, one over the
/// facts earlier rounds admitted (IDB) once per round.
class JoinIndexes {
 public:
  /// The slot of the index over `columns` of `*rel`.
  int Slot(const DbRelation* rel, const std::vector<int>& columns);

  /// The index in `slot` over its relation's rows [0, rows). A Get for
  /// another prefix replaces the index, so the atoms of one run that share
  /// a slot must share their row bound.
  const db_internal::KeyIndex& Get(int slot, std::size_t rows);

 private:
  struct Entry {
    const DbRelation* rel;
    std::vector<int> columns;  // KeyIndex keeps a reference: deque-stable
    std::size_t rows = 0;      // the prefix `index` covers
    std::unique_ptr<db_internal::KeyIndex> index;
  };
  // A plan registers a few slots, so a scan finds one.
  std::deque<Entry> entries_;
};

/// One atom of a conjunctive body: its variable ids (repeats allowed) and
/// the relation it ranges over, of arity args->size() (the schema is not
/// read). A null `rows` is an empty relation. The atom ranges over rows
/// [*begin, *end) of `rows`, read when each run starts; a null `begin`
/// reads as 0, and a null `end` as the relation's size then.
struct BodyAtom {
  const std::vector<int>* args;
  const DbRelation* rows;
  const std::size_t* begin = nullptr;
  const std::size_t* end = nullptr;

  /// The first row a run starting now reads.
  std::size_t First() const { return begin == nullptr ? 0 : *begin; }
  /// One past the last row a run starting now reads.
  std::size_t Last() const {
    if (end != nullptr) return *end;
    return rows == nullptr ? 0 : rows->size();
  }
};

/// A conjunctive body `head :- atoms` compiled into a bound-first plan.
/// The plan keeps the relation pointers and row bounds, and each run
/// reads the rows within the bounds as they stand when it starts. Between
/// runs, relations may only grow: an index is reused while the prefix it
/// covers is unchanged. A run may add its head rows to a relation its
/// atoms range over (a Datalog rule whose head predicate occurs in its
/// body): rows past an atom's bound are never read, and every read goes
/// through the relation's current buffer, which an append can move.
class BodyJoin {
 public:
  /// Plans the body over variables 0..num_variables-1 with atom `lead`
  /// first (-1: none) and registers its probe indexes in `*indexes`,
  /// which must outlive the plan. Every head variable must occur in the
  /// body.
  BodyJoin(const std::vector<BodyAtom>& atoms, const std::vector<int>& head,
           int num_variables, int lead, JoinIndexes* indexes);

  /// Enumerates every satisfying binding of the body, adds its head
  /// projection to `*out` (one dedup probe each), and returns the number
  /// of bindings. A non-null `cancel` is polled every few thousand rows
  /// visited; once it fires, the run stops with the bindings found so far.
  int64_t Run(DbRelation* out,
              const exec::CancellationToken* cancel = nullptr);

 private:
  struct Step {
    BodyAtom atom;
    int index = -1;            // JoinIndexes slot over the bound columns
    std::vector<int> probe;    // the bound variable of each key column
    std::vector<std::pair<int, int>> bind;  // (column, variable first seen)
    std::vector<std::pair<int, int>> same;  // (column, column binding it)
    // The rows [first, last) of the current run.
    std::size_t first = 0;
    std::size_t last = 0;
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
  int64_t bindings_ = 0;
  const exec::CancellationToken* cancel_ = nullptr;
  int64_t until_poll_ = 0;  // rows left to visit before the next poll
  // Set by a poll that found the token fired; ends the run.
  bool stopped_ = false;
};

}  // namespace cspdb

#endif  // CSPDB_DB_BODY_JOIN_H_
