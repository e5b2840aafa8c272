// The classical AI formulation of constraint satisfaction (paper,
// Section 2): an instance (V, D, C) of variables, values, and constraints
// (t, R) pairing a tuple of variables with an allowed relation on values.

#ifndef CSPDB_CSP_INSTANCE_H_
#define CSPDB_CSP_INSTANCE_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "relational/structure.h"

namespace cspdb {

/// A constraint relation's membership set: its distinct tuples as one
/// flat array of rows in lexicographic order. `count` is a binary search,
/// and reading the rows in index order visits the relation sorted.
class SortedRows {
 public:
  SortedRows() = default;

  /// Removes repeated tuples from `*tuples` (each of arity `arity`),
  /// keeping the first occurrence of each in insertion order, and holds
  /// the distinct tuples as sorted rows. One index sort does both.
  SortedRows(int arity, std::vector<Tuple>* tuples);

  int arity() const { return arity_; }

  /// Number of distinct tuples.
  std::size_t size() const { return size_; }

  /// The `i`-th smallest tuple, as `arity()` consecutive values.
  const int* row(std::size_t i) const { return rows_.data() + i * arity_; }

  /// 1 if `t` is one of the rows, else 0 (so for every tuple of another
  /// arity). Inline: solvers and validators call it per search node.
  std::size_t count(const Tuple& t) const {
    if (static_cast<int>(t.size()) != arity_ || size_ == 0) return 0;
    const int* key = t.data();
    auto less = [&](const int* r) {
      for (int k = 0; k < arity_; ++k) {
        if (r[k] != key[k]) return r[k] < key[k];
      }
      return false;
    };
    // Branch-free lower bound: `base` ends on the last row below `t`, or
    // on the first row if none is.
    const int* base = rows_.data();
    for (std::size_t n = size_; n > 1; n -= n / 2) {
      const int* mid = base + n / 2 * arity_;
      base = less(mid) ? mid : base;
    }
    if (less(base)) base += arity_;
    return base != rows_.data() + rows_.size() &&
                   std::equal(key, key + arity_, base)
               ? 1
               : 0;
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
/// relation R of value tuples of the same arity.
struct Constraint {
  std::vector<int> scope;
  std::vector<Tuple> allowed;   ///< insertion order, deduplicated
  SortedRows allowed_set;       ///< same tuples, sorted membership rows

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

  /// Adds the constraint (scope, allowed). If a constraint with the same
  /// scope already exists its relation is intersected with `allowed`.
  /// Returns the index of the (possibly pre-existing) constraint.
  int AddConstraint(std::vector<int> scope, std::vector<Tuple> allowed);

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
  int num_variables_ = 0;
  int num_values_ = 0;
  std::vector<Constraint> constraints_;
  std::map<std::vector<int>, int> scope_index_;  // scope -> constraint id
  std::vector<std::vector<int>> constraints_on_;
  std::vector<std::string> variable_names_;
  std::vector<std::string> value_names_;
};

}  // namespace cspdb

#endif  // CSPDB_CSP_INSTANCE_H_
