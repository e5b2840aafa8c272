// Relational-algebra operators (natural join, projection, selection,
// semijoin) and the join-evaluation view of CSP solvability
// (paper, Proposition 2.1).

#ifndef CSPDB_DB_ALGEBRA_H_
#define CSPDB_DB_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "csp/instance.h"
#include "db/relation.h"

namespace cspdb {

/// Natural join of r and s on their shared attributes (hash join).
/// Result schema: r's schema followed by s's non-shared attributes.
DbRelation NaturalJoin(const DbRelation& r, const DbRelation& s);

/// Projection onto `attrs` (each must occur in r's schema); deduplicates.
DbRelation Project(const DbRelation& r, const std::vector<int>& attrs);

/// Rows of r where attribute `attr` equals `value`.
DbRelation SelectEquals(const DbRelation& r, int attr, int value);

/// Semijoin r ⋉ s: rows of r that agree with at least one row of s on the
/// shared attributes.
DbRelation Semijoin(const DbRelation& r, const DbRelation& s);

/// Left-to-right natural join of all relations. `peak_rows`, if non-null,
/// receives the largest intermediate-result cardinality (the quantity the
/// Yannakakis benchmark compares).
DbRelation JoinAll(const std::vector<DbRelation>& relations,
                   int64_t* peak_rows = nullptr);

/// Greedy join ordering: starts from the smallest relation and repeatedly
/// joins the relation sharing the most attributes with the accumulated
/// schema (smallest size as tie-break), avoiding cross products until
/// forced. Same result as JoinAll, typically far smaller intermediates —
/// the one-line query optimizer every join-evaluation story needs.
DbRelation JoinAllGreedy(const std::vector<DbRelation>& relations,
                         int64_t* peak_rows = nullptr);

/// The constraints of a CSP instance as database relations: the scope is
/// the schema, the allowed tuples are the rows. Requires distinct-variable
/// scopes (apply CspInstance::NormalizedDistinctScopes first if needed).
std::vector<DbRelation> ConstraintsAsRelations(const CspInstance& csp);

/// Proposition 2.1: a CSP instance is solvable iff the natural join of its
/// constraint relations is nonempty. Decides solvability by evaluating the
/// join; variables not covered by any constraint are unconstrained and
/// ignored. Normalizes scopes internally.
bool SolvableByJoin(const CspInstance& csp, int64_t* peak_rows = nullptr);

/// The full solution set of the instance as a relation over all
/// variables: the natural join of the constraint relations, crossed with
/// the complete domain for unconstrained variables. Exponential in the
/// worst case — this *is* the paper's point about join evaluation; use
/// for small instances and differential tests.
DbRelation SolutionsAsRelation(const CspInstance& csp);

}  // namespace cspdb

#endif  // CSPDB_DB_ALGEBRA_H_
