// Validation of tree and (generalized) hypertree decompositions against
// the artifacts they decompose. These are the mechanical forms of the
// paper's Section 6 definitions — vertex/tuple coverage, running
// intersection (per-vertex connected subtrees), tree-ness — plus the
// Gottlob-Leone-Scarcello guard-coverage condition for hypertrees, and an
// optional check of a claimed width against the decomposition's actual
// width. Each violated condition is reported as its own Diagnostic. These
// validators are the only implementation of the definitions: the boolean
// IsValid* predicates in src/treewidth/ are their verdict (no error).

#ifndef CSPDB_ANALYSIS_VALIDATE_DECOMPOSITION_H_
#define CSPDB_ANALYSIS_VALIDATE_DECOMPOSITION_H_

#include "analysis/diagnostics.h"
#include "db/acyclic.h"
#include "relational/structure.h"
#include "treewidth/gaifman.h"
#include "treewidth/hypertree.h"
#include "treewidth/tree_decomposition.h"

namespace cspdb {

/// Checks `td` against the tree-decomposition conditions for graph `g`:
///  - bags are nonempty, sorted, duplicate-free subsets of the vertex set;
///  - the tree edges connect valid nodes and form a forest (no cycles);
///  - every vertex occurs in some bag;
///  - both endpoints of every graph edge share a bag;
///  - the bags containing any given vertex induce a connected subtree
///    (running intersection);
///  - if `claimed_width` >= 0, it equals td.Width().
Diagnostics ValidateTreeDecomposition(const Graph& g,
                                      const TreeDecomposition& td,
                                      int claimed_width = -1);

/// The structure form: as above, but tuple coverage replaces edge
/// coverage — every tuple of every relation of `a` must be contained in a
/// single bag (strictly stronger than covering the Gaifman edges).
Diagnostics ValidateTreeDecompositionForStructure(const Structure& a,
                                                  const TreeDecomposition& td,
                                                  int claimed_width = -1);

/// Checks `htd` against the generalized-hypertree-decomposition
/// conditions for hypergraph `h`:
///  - chi/lambda have one entry per node; bags are sorted and
///    duplicate-free; guard indices reference real hyperedges;
///  - the tree edges form a forest over valid nodes;
///  - every hyperedge is contained in some bag (constraint coverage);
///  - every bag is covered by the union of its guard's hyperedges;
///  - per-vertex bags induce connected subtrees (running intersection);
///  - if `claimed_width` >= 0, it equals htd.Width().
Diagnostics ValidateHypertreeDecomposition(const Hypergraph& h,
                                           const HypertreeDecomposition& htd,
                                           int claimed_width = -1);

}  // namespace cspdb

#endif  // CSPDB_ANALYSIS_VALIDATE_DECOMPOSITION_H_
