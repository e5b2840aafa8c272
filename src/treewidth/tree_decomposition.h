// Tree decompositions of graphs and relational structures (paper,
// Section 6): labeled trees whose bags cover every tuple and whose
// per-vertex occurrences form subtrees.

#ifndef CSPDB_TREEWIDTH_TREE_DECOMPOSITION_H_
#define CSPDB_TREEWIDTH_TREE_DECOMPOSITION_H_

#include <utility>
#include <vector>

#include "relational/structure.h"
#include "treewidth/gaifman.h"

namespace cspdb {

/// A tree decomposition: node i carries the (sorted) bag `bags[i]`;
/// `edges` are the tree edges. A decomposition with zero nodes is valid
/// only for the empty graph.
struct TreeDecomposition {
  std::vector<std::vector<int>> bags;
  std::vector<std::pair<int, int>> edges;

  /// Max bag size minus one; -1 for an empty decomposition.
  int Width() const;
};

/// Checks the three conditions of the paper's definition against a graph:
/// (1) bags are nonempty subsets of the vertex set and every vertex
/// occurs; (2) both endpoints of every graph edge share a bag; (3) the
/// bags containing any given vertex induce a connected subtree (and the
/// node/edge set is a tree/forest). This is the verdict of
/// ValidateTreeDecomposition (analysis/validate_decomposition.h): true iff
/// it reports no error.
bool IsValidDecomposition(const Graph& g, const TreeDecomposition& td);

/// The structure form (condition 2 strengthened per the paper): every
/// tuple of every relation is contained in some bag. With (1) and (3)
/// this is equivalent to validity for the Gaifman graph, since a tree
/// decomposition holds every clique inside one bag; the tuple check
/// states the paper's condition directly. The verdict of
/// ValidateTreeDecompositionForStructure: true iff it reports no error.
bool IsValidForStructure(const Structure& a, const TreeDecomposition& td);

}  // namespace cspdb

#endif  // CSPDB_TREEWIDTH_TREE_DECOMPOSITION_H_
