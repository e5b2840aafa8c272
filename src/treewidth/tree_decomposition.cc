#include "treewidth/tree_decomposition.h"

#include <algorithm>

#include "analysis/validate_decomposition.h"

namespace cspdb {

int TreeDecomposition::Width() const {
  int w = -1;
  for (const auto& bag : bags) {
    w = std::max(w, static_cast<int>(bag.size()) - 1);
  }
  return w;
}

bool IsValidDecomposition(const Graph& g, const TreeDecomposition& td) {
  return !HasErrors(ValidateTreeDecomposition(g, td));
}

bool IsValidForStructure(const Structure& a, const TreeDecomposition& td) {
  return !HasErrors(ValidateTreeDecompositionForStructure(a, td));
}

}  // namespace cspdb
