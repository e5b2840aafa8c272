// Hypertree decompositions (paper, Section 6 discussion of Gottlob,
// Leone, Scarcello [30]): the "topological" width notion that strictly
// dominates treewidth and querywidth for tractability of CSP/join
// evaluation. A generalized hypertree decomposition of a hypergraph H is
// a tree whose nodes carry a bag chi(t) of vertices and a guard lambda(t)
// of hyperedges covering the bag; its width is the largest guard size.
// Width 1 coincides with alpha-acyclicity, and CSP instances with a
// width-k decomposition are solvable in polynomial time by joining each
// node's guards and running Yannakakis on the resulting acyclic instance.
//
// Exact hypertree width is expensive (recognizing width <= k is
// polynomial for fixed k but costly); this module provides the standard
// upper-bound construction — cover the bags of a tree decomposition by
// hyperedges, with an exact minimum set cover per bag — plus validity
// checkers and the width-1 = acyclicity correspondence.

#ifndef CSPDB_TREEWIDTH_HYPERTREE_H_
#define CSPDB_TREEWIDTH_HYPERTREE_H_

#include <optional>
#include <vector>

#include "csp/instance.h"
#include "db/acyclic.h"
#include "treewidth/tree_decomposition.h"

namespace cspdb {

/// A (generalized) hypertree decomposition: a rooted tree with one bag
/// chi and one guard lambda (hyperedge indices into the source
/// hypergraph) per node.
struct HypertreeDecomposition {
  std::vector<std::vector<int>> chi;     ///< sorted vertex bags
  std::vector<std::vector<int>> lambda;  ///< guard edge indices per node
  std::vector<std::pair<int, int>> edges;  ///< tree edges

  /// Max guard size; 0 for an empty decomposition.
  int Width() const;
};

/// Checks the generalized-hypertree-decomposition conditions against `h`:
/// (1) every hyperedge is contained in some bag; (2) per-vertex bags form
/// a connected subtree; (3) every bag is covered by the union of its
/// guard's hyperedges; and bags are sorted sets, so a repeated vertex is
/// invalid. This is the verdict of ValidateHypertreeDecomposition
/// (analysis/validate_decomposition.h): true iff it reports no error.
bool IsValidGeneralizedHypertree(const Hypergraph& h,
                                 const HypertreeDecomposition& htd);

/// A tree decomposition whose bags are the hyperedges of an acyclic
/// hypergraph, connected along its join forest. Valid for the primal
/// graph; every bag is one hyperedge, so covering it yields width 1.
TreeDecomposition JoinForestToTreeDecomposition(const Hypergraph& h,
                                                const JoinForest& forest);

/// The exact minimum number of hyperedges of `h` needed to cover
/// `vertices` (DFS over candidate edges; exponential in the cover size,
/// fine for small bags). Returns std::nullopt if some vertex occurs in no
/// hyperedge.
std::optional<std::vector<int>> MinimumEdgeCover(
    const Hypergraph& h, const std::vector<int>& vertices);

/// Upper-bound construction: takes a tree decomposition of the primal
/// graph (or, for acyclic h, its join forest) and covers each bag with a
/// minimum edge cover. Returns std::nullopt if some bag is uncoverable
/// (a vertex in no hyperedge).
std::optional<HypertreeDecomposition> HypertreeFromTreeDecomposition(
    const Hypergraph& h, const TreeDecomposition& td);

/// The width of the best decomposition this module can construct:
/// width 1 via the join forest when `h` is alpha-acyclic, otherwise the
/// cover of a min-fill tree decomposition. An upper bound on the true
/// (generalized) hypertree width.
std::optional<int> HypertreeWidthUpperBound(const Hypergraph& h);

/// Solves a CSP instance along a hypertree decomposition of its
/// constraint hypergraph: joins each node's guard constraints, projects
/// onto the bag, and evaluates the resulting acyclic join with the
/// Yannakakis full reducer — the Gottlob-Leone-Scarcello polynomial
/// algorithm for bounded hypertree width. The decomposition must be valid
/// for the instance's (normalized) constraint hypergraph.
std::optional<std::vector<int>> SolveByHypertreeDecomposition(
    const CspInstance& csp, const HypertreeDecomposition& htd);

/// Convenience: normalize the instance, build the decomposition with
/// HypertreeFromTreeDecomposition (join forest if acyclic, min-fill
/// otherwise), and solve. `width_out`, if non-null, receives the
/// decomposition width used.
std::optional<std::vector<int>> SolveWithHypertreeHeuristic(
    const CspInstance& csp, int* width_out = nullptr);

}  // namespace cspdb

#endif  // CSPDB_TREEWIDTH_HYPERTREE_H_
