// The classical AI formulation of constraint satisfaction (paper,
// Section 2): an instance (V, D, C) of variables, values, and constraints
// (t, R) pairing a tuple of variables with an allowed relation on values.

#ifndef CSPDB_CSP_INSTANCE_H_
#define CSPDB_CSP_INSTANCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/relation.h"
#include "relational/structure.h"
#include "util/check.h"

namespace cspdb {

/// A constraint relation's tuples in insertion order: one flat buffer of
/// `size()` rows, `arity()` values each. Rows read as DbRelation row
/// views, so no tuple is a heap object of its own. CspInstance is the
/// only writer.
class RowList {
 public:
  int arity() const { return arity_; }

  /// Number of rows.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The `i`-th row in insertion order.
  DbRelation::RowRef row(std::size_t i) const {
    CSPDB_DCHECK(i < size_);
    return DbRelation::RowRef(data_.data() + i * arity_, arity_);
  }

  /// Range-for over the rows: `for (DbRelation::RowRef t : c.allowed)`.
  DbRelation::RowIterator begin() const {
    return DbRelation::RowIterator(data_.data(), arity_, 0);
  }
  DbRelation::RowIterator end() const {
    return DbRelation::RowIterator(data_.data(), arity_, size_);
  }

  /// The rows back to back (size() * arity() values).
  const std::vector<int>& data() const { return data_; }

  /// The rows as owning tuples, in insertion order. Implicit, so
  /// `std::vector<Tuple> tuples = c.allowed;` copies the relation out.
  operator std::vector<Tuple>() const;

 private:
  friend class CspInstance;

  int arity_ = 0;
  std::size_t size_ = 0;
  std::vector<int> data_;  // size_ rows of arity_ values, row after row
};

/// A constraint relation's membership set: its distinct tuples as one
/// flat array of rows in lexicographic order. `count` is a binary search,
/// and reading the rows in index order visits the relation sorted.
class SortedRows {
 public:
  SortedRows() = default;

  /// Removes repeated rows from `*rows` (flat, `arity` values per row,
  /// `arity` >= 1), keeping the first occurrence of each in insertion
  /// order, and holds the distinct rows sorted. One index sort does both;
  /// rows that arrive sorted and distinct skip it.
  SortedRows(int arity, std::vector<int>* rows);

  int arity() const { return arity_; }

  /// Number of distinct tuples.
  std::size_t size() const { return size_; }

  /// The `i`-th smallest tuple, as `arity()` consecutive values.
  const int* row(std::size_t i) const { return rows_.data() + i * arity_; }

  /// The rows back to back, sorted (size() * arity() values).
  const std::vector<int>& data() const { return rows_; }

  /// 1 if `t` is one of the rows, else 0 (so for every tuple of another
  /// arity). Inline: solvers and validators call it per search node.
  std::size_t count(const Tuple& t) const {
    return static_cast<int>(t.size()) == arity_ && contains(t.data()) ? 1
                                                                      : 0;
  }

  /// True if the `arity()` values at `key` are one of the rows.
  bool contains(const int* key) const {
    if (size_ == 0) return false;
    auto less = [&](const int* r) {
      for (int k = 0; k < arity_; ++k) {
        if (r[k] != key[k]) return r[k] < key[k];
      }
      return false;
    };
    // Branch-free lower bound: `base` ends on the last row below `key`,
    // or on the first row if none is.
    const int* base = rows_.data();
    for (std::size_t n = size_; n > 1; n -= n / 2) {
      const int* mid = base + n / 2 * arity_;
      base = less(mid) ? mid : base;
    }
    if (less(base)) base += arity_;
    return base != rows_.data() + rows_.size() &&
           std::equal(key, key + arity_, base);
  }

  /// Set equality.
  friend bool operator==(const SortedRows& a, const SortedRows& b) {
    return a.size_ == b.size_ && a.rows_ == b.rows_;
  }

 private:
  int arity_ = 0;
  std::size_t size_ = 0;
  std::vector<int> rows_;  // size_ rows of arity_ values, row after row
};

/// One constraint (t, R): `scope` is the variable tuple t, `allowed` the
/// relation R of value tuples of the same arity. Read as a database
/// relation over the scope (Proposition 2.1), `allowed` is stored the way
/// DbRelation stores one: flat rows.
struct Constraint {
  std::vector<int> scope;
  RowList allowed;         ///< insertion order, deduplicated
  SortedRows allowed_set;  ///< same rows, sorted membership rows

  /// Slots holding the first occurrence of each scope variable, in scope
  /// order. Revision loops iterate these instead of rescanning the scope
  /// for duplicates on every pass (scopes are immutable once added).
  std::vector<int> distinct_slots;

  int arity() const { return static_cast<int>(scope.size()); }
};

/// A CSP instance (V, D, C). Variables are 0..num_variables-1 and values
/// 0..num_values-1. Constraints on an identical variable tuple are
/// consolidated by intersection, as the paper assumes w.l.o.g., so every
/// scope occurs at most once.
class CspInstance {
 public:
  CspInstance(int num_variables, int num_values);

  /// Adds the constraint (scope, rows), `rows` holding the relation's
  /// tuples back to back, scope.size() values each. Repeated tuples keep
  /// their first occurrence. If a constraint with the same scope already
  /// exists its relation is intersected with `rows`, keeping its own
  /// order. Returns the index of the (possibly pre-existing) constraint.
  int AddConstraintRows(std::vector<int> scope, std::vector<int> rows);

  /// AddConstraintRows with the tuples given one by one.
  int AddConstraint(std::vector<int> scope, const std::vector<Tuple>& allowed);

  int num_variables() const { return num_variables_; }
  int num_values() const { return num_values_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const Constraint& constraint(int i) const;

  /// Indices of constraints whose scope contains variable `v`.
  const std::vector<int>& ConstraintsOn(int v) const;

  /// True if the full assignment (size num_variables) satisfies every
  /// constraint.
  bool IsSolution(const std::vector<int>& assignment) const;

  /// True if the partial assignment (entries may be kUnassigned) satisfies
  /// every constraint whose scope is fully assigned. This is the notion of
  /// "partial solution" underlying i-consistency (paper, Definition 5.2).
  bool IsPartialSolution(const std::vector<int>& partial) const;

  /// The Section 2 normalization: returns an equivalent instance in which
  /// every constraint scope consists of distinct variables (tuples with
  /// disagreeing repeated positions are deleted and the repeated column
  /// projected out). Solutions are preserved exactly.
  CspInstance NormalizedDistinctScopes() const;

  /// Optional variable names for display.
  void SetVariableName(int v, std::string name);
  std::string VariableName(int v) const;

  /// Optional value names for display.
  void SetValueName(int d, std::string name);
  std::string ValueName(int d) const;

  /// Multi-line dump for debugging and examples.
  std::string DebugString() const;

 private:
  // Id of the constraint whose scope is `scope`, or -1.
  int FindScope(const std::vector<int>& scope) const;
  // Enters constraints_[id], the newest constraint, into scope_slots_.
  void IndexScope(int id);

  int num_variables_ = 0;
  int num_values_ = 0;
  std::vector<Constraint> constraints_;
  // Open-addressed index of the constraints by scope: each slot holds a
  // constraint id + 1, or 0 when empty. Power-of-two size, at most half
  // full, so a lookup or an insert allocates nothing.
  std::vector<uint32_t> scope_slots_;
  std::vector<std::vector<int>> constraints_on_;
  std::vector<std::string> variable_names_;
  std::vector<std::string> value_names_;
};

}  // namespace cspdb

#endif  // CSPDB_CSP_INSTANCE_H_
