#include "treewidth/hypertree.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>
#include <utility>

#include "analysis/validate_csp.h"
#include "analysis/validate_decomposition.h"
#include "db/algebra.h"
#include "relational/homomorphism.h"
#include "treewidth/gaifman.h"
#include "treewidth/heuristics.h"
#include "util/check.h"

namespace cspdb {
namespace {

// BFS order over the decomposition's tree (forest), parents before
// children. Returns (order, parent-per-node).
std::pair<std::vector<int>, std::vector<int>> BfsOrder(
    int nodes, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> adj(nodes);
  for (const auto& [x, y] : edges) {
    adj[x].push_back(y);
    adj[y].push_back(x);
  }
  std::vector<int> order;
  std::vector<int> parent(nodes, -1);
  std::vector<char> seen(nodes, 0);
  for (int root = 0; root < nodes; ++root) {
    if (seen[root]) continue;
    seen[root] = 1;
    std::deque<int> queue{root};
    while (!queue.empty()) {
      int t = queue.front();
      queue.pop_front();
      order.push_back(t);
      for (int u : adj[t]) {
        if (!seen[u]) {
          seen[u] = 1;
          parent[u] = t;
          queue.push_back(u);
        }
      }
    }
  }
  return {order, parent};
}

}  // namespace

int HypertreeDecomposition::Width() const {
  int w = 0;
  for (const auto& guard : lambda) {
    w = std::max(w, static_cast<int>(guard.size()));
  }
  return w;
}

bool IsValidGeneralizedHypertree(const Hypergraph& h,
                                 const HypertreeDecomposition& htd) {
  return !HasErrors(ValidateHypertreeDecomposition(h, htd));
}

TreeDecomposition JoinForestToTreeDecomposition(const Hypergraph& h,
                                                const JoinForest& forest) {
  TreeDecomposition td;
  td.bags.resize(h.edges.size());
  for (std::size_t i = 0; i < h.edges.size(); ++i) {
    td.bags[i] = h.edges[i];
    std::sort(td.bags[i].begin(), td.bags[i].end());
  }
  for (std::size_t e = 0; e < forest.parent.size(); ++e) {
    if (forest.parent[e] >= 0) {
      td.edges.push_back({static_cast<int>(e), forest.parent[e]});
    }
  }
  return td;
}

std::optional<std::vector<int>> MinimumEdgeCover(
    const Hypergraph& h, const std::vector<int>& vertices) {
  std::vector<int> todo = vertices;
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) return std::vector<int>{};

  // Candidate edges per vertex.
  for (int v : todo) {
    bool occurs = false;
    for (const auto& edge : h.edges) {
      if (std::find(edge.begin(), edge.end(), v) != edge.end()) {
        occurs = true;
        break;
      }
    }
    if (!occurs) return std::nullopt;
  }

  // Iterative deepening over cover size; branch on the first uncovered
  // vertex.
  std::vector<int> chosen;
  std::vector<int> best;
  // Depth-limited DFS returns true on success.
  std::function<bool(std::vector<char>&, int)> dfs =
      [&](std::vector<char>& covered, int budget) -> bool {
    int first_uncovered = -1;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      if (!covered[i]) {
        first_uncovered = static_cast<int>(i);
        break;
      }
    }
    if (first_uncovered < 0) return true;
    if (budget == 0) return false;
    int v = todo[first_uncovered];
    for (std::size_t e = 0; e < h.edges.size(); ++e) {
      if (std::find(h.edges[e].begin(), h.edges[e].end(), v) ==
          h.edges[e].end()) {
        continue;
      }
      std::vector<char> next = covered;
      for (std::size_t i = 0; i < todo.size(); ++i) {
        if (!next[i] &&
            std::find(h.edges[e].begin(), h.edges[e].end(), todo[i]) !=
                h.edges[e].end()) {
          next[i] = 1;
        }
      }
      chosen.push_back(static_cast<int>(e));
      if (dfs(next, budget - 1)) return true;
      chosen.pop_back();
    }
    return false;
  };

  for (int budget = 1; budget <= static_cast<int>(h.edges.size());
       ++budget) {
    std::vector<char> covered(todo.size(), 0);
    chosen.clear();
    if (dfs(covered, budget)) return chosen;
  }
  return std::nullopt;  // unreachable: every vertex occurs somewhere
}

std::optional<HypertreeDecomposition> HypertreeFromTreeDecomposition(
    const Hypergraph& h, const TreeDecomposition& td) {
  // Vertices that occur in some hyperedge; others are dropped from bags
  // (they are unconstrained and cannot be covered).
  std::unordered_set<int> constrained;
  for (const auto& edge : h.edges) {
    constrained.insert(edge.begin(), edge.end());
  }
  HypertreeDecomposition htd;
  htd.edges = td.edges;
  htd.chi.reserve(td.bags.size());
  htd.lambda.reserve(td.bags.size());
  for (const auto& bag : td.bags) {
    std::vector<int> chi;
    for (int v : bag) {
      if (constrained.count(v) > 0) chi.push_back(v);
    }
    auto cover = MinimumEdgeCover(h, chi);
    if (!cover.has_value()) return std::nullopt;
    htd.chi.push_back(std::move(chi));
    htd.lambda.push_back(std::move(*cover));
  }
  CSPDB_AUDIT(AuditOrDie("hypertree decomposition from tree decomposition",
                         ValidateHypertreeDecomposition(h, htd)));
  return htd;
}

std::optional<int> HypertreeWidthUpperBound(const Hypergraph& h) {
  if (h.edges.empty()) return 0;
  std::optional<HypertreeDecomposition> htd;
  auto forest = BuildJoinForest(h);
  if (forest.has_value()) {
    htd = HypertreeFromTreeDecomposition(
        h, JoinForestToTreeDecomposition(h, *forest));
  } else {
    // Min-fill tree decomposition of the primal graph.
    int n = 0;
    for (const auto& edge : h.edges) {
      for (int v : edge) n = std::max(n, v + 1);
    }
    Graph primal(n);
    for (const auto& edge : h.edges) {
      for (std::size_t i = 0; i < edge.size(); ++i) {
        for (std::size_t j = i + 1; j < edge.size(); ++j) {
          primal.AddEdge(edge[i], edge[j]);
        }
      }
    }
    htd = HypertreeFromTreeDecomposition(h, MinFillDecomposition(primal));
  }
  if (!htd.has_value()) return std::nullopt;
  return htd->Width();
}

namespace {

// SolveByHypertreeDecomposition on `csp` once converted: `relations` are
// its normalized constraints as relations and `h` their hypergraph.
std::optional<std::vector<int>> SolveConverted(
    const CspInstance& csp, const std::vector<DbRelation>& relations,
    const Hypergraph& h, const HypertreeDecomposition& htd) {
  CSPDB_CHECK_MSG(IsValidGeneralizedHypertree(h, htd),
                  "decomposition invalid for this instance");

  int nodes = static_cast<int>(htd.chi.size());
  // Assign every constraint to one covering node.
  std::vector<std::vector<int>> assigned(nodes);
  for (std::size_t c = 0; c < relations.size(); ++c) {
    int home = -1;
    for (int t = 0; t < nodes && home < 0; ++t) {
      bool inside = true;
      for (int v : h.edges[c]) {
        if (!std::binary_search(htd.chi[t].begin(), htd.chi[t].end(), v)) {
          inside = false;
          break;
        }
      }
      if (inside) home = t;
    }
    CSPDB_CHECK(home >= 0);  // guaranteed by validity
    assigned[home].push_back(static_cast<int>(c));
  }

  // Node relations: join of guards and assigned constraints, projected
  // onto the bag.
  std::vector<DbRelation> node_rel;
  node_rel.reserve(nodes);
  for (int t = 0; t < nodes; ++t) {
    if (htd.chi[t].empty()) {
      node_rel.push_back(DbRelation({}));
      node_rel.back().AddRow(Tuple{});  // universally true
      continue;
    }
    std::vector<DbRelation> parts;
    for (int e : htd.lambda[t]) parts.push_back(relations[e]);
    for (int c : assigned[t]) parts.push_back(relations[c]);
    DbRelation joined = JoinAll(parts);
    node_rel.push_back(Project(joined, htd.chi[t]));
    if (node_rel.back().empty()) return std::nullopt;
  }

  // Full reducer along the decomposition tree, then backtrack-free
  // extraction parents-first.
  auto [order, parent] = BfsOrder(nodes, htd.edges);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int t = *it;
    if (parent[t] >= 0) {
      node_rel[parent[t]] = Semijoin(node_rel[parent[t]], node_rel[t]);
      if (node_rel[parent[t]].empty()) return std::nullopt;
    }
  }
  for (int t : order) {
    if (parent[t] >= 0) {
      node_rel[t] = Semijoin(node_rel[t], node_rel[parent[t]]);
      if (node_rel[t].empty()) return std::nullopt;
    }
  }

  std::vector<int> solution(csp.num_variables(), kUnassigned);
  for (int t : order) {
    const DbRelation& rel = node_rel[t];
    // Find a row agreeing with everything already assigned in this bag.
    bool found = false;
    for (auto row : rel.rows()) {
      bool ok = true;
      for (std::size_t q = 0; q < rel.schema().size(); ++q) {
        int var = rel.schema()[q];
        if (solution[var] != kUnassigned && solution[var] != row[q]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (std::size_t q = 0; q < rel.schema().size(); ++q) {
          solution[rel.schema()[q]] = row[q];
        }
        found = true;
        break;
      }
    }
    if (!found && !rel.schema().empty()) return std::nullopt;
  }
  for (int v = 0; v < csp.num_variables(); ++v) {
    if (solution[v] == kUnassigned) solution[v] = 0;
  }
  CSPDB_CHECK(csp.IsSolution(solution));
  CSPDB_AUDIT(AuditOrDie("hypertree-decomposition solution",
                         ValidateSolution(csp, solution)));
  return solution;
}

}  // namespace

std::optional<std::vector<int>> SolveByHypertreeDecomposition(
    const CspInstance& csp, const HypertreeDecomposition& htd) {
  if (csp.num_variables() > 0 && csp.num_values() == 0) return std::nullopt;
  const std::vector<DbRelation> relations =
      ConstraintsAsRelations(csp.NormalizedDistinctScopes());
  return SolveConverted(csp, relations, HypergraphOfSchemas(relations), htd);
}

std::optional<std::vector<int>> SolveWithHypertreeHeuristic(
    const CspInstance& csp, int* width_out) {
  if (csp.num_variables() > 0 && csp.num_values() == 0) return std::nullopt;
  CspInstance normalized = csp.NormalizedDistinctScopes();
  for (const Constraint& c : normalized.constraints()) {
    if (c.allowed.empty()) return std::nullopt;
  }
  if (normalized.constraints().empty()) {
    if (width_out != nullptr) *width_out = 0;
    return std::vector<int>(csp.num_variables(), 0);
  }
  std::vector<DbRelation> relations = ConstraintsAsRelations(normalized);
  Hypergraph h = HypergraphOfSchemas(relations);
  std::optional<HypertreeDecomposition> htd;
  auto forest = BuildJoinForest(h);
  if (forest.has_value()) {
    htd = HypertreeFromTreeDecomposition(
        h, JoinForestToTreeDecomposition(h, *forest));
  } else {
    htd = HypertreeFromTreeDecomposition(
        h, MinFillDecomposition(GaifmanGraphOfCsp(normalized)));
  }
  CSPDB_CHECK(htd.has_value());  // every scope variable occurs in an edge
  if (width_out != nullptr) *width_out = htd->Width();
  return SolveConverted(csp, relations, h, *htd);
}

}  // namespace cspdb
