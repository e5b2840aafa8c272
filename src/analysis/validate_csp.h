// Validation of CSP instances and solver certificates. ValidateSolution
// is the audit behind every tractability theorem the repo reproduces:
// whatever route produced an assignment (search, bucket elimination,
// hypertree join, consistency + greedy extension), it is re-checked as a
// genuine satisfying assignment against the original instance — tuple
// membership in each constraint's relation — never against solver state.

#ifndef CSPDB_ANALYSIS_VALIDATE_CSP_H_
#define CSPDB_ANALYSIS_VALIDATE_CSP_H_

#include <vector>

#include "analysis/diagnostics.h"
#include "csp/instance.h"
#include "relational/structure.h"

namespace cspdb {

/// Checks `csp` against the instance invariants:
///  - every constraint scope references declared variables (in
///    [0, num_variables)) and matches its relation's arity;
///  - every allowed tuple uses declared values (in [0, num_values)) and
///    has the scope's arity;
///  - the insertion-order tuple list is duplicate-free and agrees with
///    the sorted membership rows;
///  - scopes are unique across constraints (the Section 2 w.l.o.g.
///    consolidation) and the per-variable constraint index
///    (ConstraintsOn) is exact.
/// Emits a warning for an empty constraint relation (trivially
/// unsolvable) and for an empty scope.
Diagnostics ValidateCspInstance(const CspInstance& csp);

/// Checks that `assignment` is a genuine solution of `csp`: one value per
/// variable, every value declared, and for every constraint the projected
/// value tuple is a member of the constraint's relation. Reports each
/// violated constraint separately.
Diagnostics ValidateSolution(const CspInstance& csp,
                             const std::vector<int>& assignment);

/// Checks that `h` (one image per element of `a`) is a genuine
/// homomorphism from `a` to `b`: the structures share a vocabulary, every
/// image is an element of `b`, and every tuple of every relation of `a`
/// maps into the corresponding relation of `b`.
Diagnostics ValidateHomomorphism(const Structure& a, const Structure& b,
                                 const std::vector<int>& h);

}  // namespace cspdb

#endif  // CSPDB_ANALYSIS_VALIDATE_CSP_H_
