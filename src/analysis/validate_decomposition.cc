#include "analysis/validate_decomposition.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

namespace cspdb {
namespace {

// Union-find for forest checks.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  // Returns false if x and y were already connected (a cycle).
  bool Union(int x, int y) {
    int rx = Find(x), ry = Find(y);
    if (rx == ry) return false;
    parent_[rx] = ry;
    return true;
  }

 private:
  std::vector<int> parent_;
};

bool BagContains(const std::vector<int>& bag, int v) {
  return std::binary_search(bag.begin(), bag.end(), v);
}

// Checks one node-list of tree edges for validity and acyclicity.
// Returns the adjacency lists; emits diagnostics through `sink`.
std::vector<std::vector<int>> CheckForest(
    int nodes, const std::vector<std::pair<int, int>>& edges,
    DiagnosticSink* sink) {
  std::vector<std::vector<int>> adj(nodes);
  UnionFind uf(nodes);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    auto [x, y] = edges[i];
    const std::string at = "tree edge " + std::to_string(i);
    if (x < 0 || x >= nodes || y < 0 || y >= nodes) {
      sink->Error(at, "endpoint outside node range [0, " +
                          std::to_string(nodes) + ")");
      continue;
    }
    if (x == y) {
      sink->Error(at, "self-loop at node " + std::to_string(x));
      continue;
    }
    if (!uf.Union(x, y)) {
      sink->Error(at, "closes a cycle (decomposition is not a forest)");
      continue;
    }
    adj[x].push_back(y);
    adj[y].push_back(x);
  }
  return adj;
}

// Checks that the nodes whose bag contains `v` induce a connected
// subgraph of the decomposition tree (running intersection).
void CheckVertexConnected(int v, const std::vector<std::vector<int>>& bags,
                          const std::vector<std::vector<int>>& adj,
                          bool require_occurrence, DiagnosticSink* sink) {
  int nodes = static_cast<int>(bags.size());
  std::vector<int> holders;
  for (int i = 0; i < nodes; ++i) {
    if (BagContains(bags[i], v)) holders.push_back(i);
  }
  const std::string at = "vertex " + std::to_string(v);
  if (holders.empty()) {
    if (require_occurrence) sink->Error(at, "occurs in no bag");
    return;
  }
  std::vector<char> is_holder(nodes, 0);
  for (int h : holders) is_holder[h] = 1;
  std::vector<char> seen(nodes, 0);
  std::deque<int> queue{holders[0]};
  seen[holders[0]] = 1;
  int reached = 0;
  while (!queue.empty()) {
    int x = queue.front();
    queue.pop_front();
    ++reached;
    for (int y : adj[x]) {
      if (is_holder[y] && !seen[y]) {
        seen[y] = 1;
        queue.push_back(y);
      }
    }
  }
  if (reached != static_cast<int>(holders.size())) {
    sink->Error(at, "bags containing it induce " +
                        std::to_string(holders.size() - reached + 1) +
                        " components (running intersection violated)");
  }
}

// Bag well-formedness shared by both decomposition kinds. `allow_empty`
// covers hypertree bags, which may legitimately be empty after dropping
// unconstrained vertices.
void CheckBags(const std::vector<std::vector<int>>& bags, int num_vertices,
               bool allow_empty, DiagnosticSink* sink) {
  for (std::size_t i = 0; i < bags.size(); ++i) {
    const std::vector<int>& bag = bags[i];
    const std::string at = "bag " + std::to_string(i);
    if (bag.empty() && !allow_empty) {
      sink->Error(at, "empty bag");
      continue;
    }
    if (!std::is_sorted(bag.begin(), bag.end())) {
      sink->Error(at, "not sorted");
      continue;
    }
    for (std::size_t q = 0; q < bag.size(); ++q) {
      if (bag[q] < 0 || bag[q] >= num_vertices) {
        sink->Error(at, "vertex " + std::to_string(bag[q]) +
                            " outside [0, " + std::to_string(num_vertices) +
                            ")");
      }
      if (q > 0 && bag[q] == bag[q - 1]) {
        sink->Error(at, "duplicate vertex " + std::to_string(bag[q]));
      }
    }
  }
}

void CheckClaimedWidth(int claimed, int actual, DiagnosticSink* sink) {
  if (claimed >= 0 && claimed != actual) {
    sink->Error("width", "claimed width " + std::to_string(claimed) +
                             " but actual width is " + std::to_string(actual));
  }
}

}  // namespace

Diagnostics ValidateTreeDecomposition(const Graph& g,
                                      const TreeDecomposition& td,
                                      int claimed_width) {
  Diagnostics diagnostics;
  DiagnosticSink sink("tree_decomposition", &diagnostics);
  if (td.bags.empty()) {
    if (g.n != 0) {
      sink.Error("", "empty decomposition for a graph with " +
                         std::to_string(g.n) + " vertices");
    }
    CheckClaimedWidth(claimed_width, td.Width(), &sink);
    return diagnostics;
  }
  CheckBags(td.bags, g.n, /*allow_empty=*/false, &sink);
  auto adj = CheckForest(static_cast<int>(td.bags.size()), td.edges, &sink);

  for (int u = 0; u < g.n; ++u) {
    for (int v : g.adj[u]) {
      if (v < u) continue;
      bool covered = false;
      for (const auto& bag : td.bags) {
        if (BagContains(bag, u) && BagContains(bag, v)) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        sink.Error("edge {" + std::to_string(u) + "," + std::to_string(v) +
                       "}",
                   "no bag contains both endpoints");
      }
    }
  }
  for (int v = 0; v < g.n; ++v) {
    CheckVertexConnected(v, td.bags, adj, /*require_occurrence=*/true, &sink);
  }
  CheckClaimedWidth(claimed_width, td.Width(), &sink);
  return diagnostics;
}

Diagnostics ValidateTreeDecompositionForStructure(const Structure& a,
                                                  const TreeDecomposition& td,
                                                  int claimed_width) {
  Diagnostics diagnostics;
  DiagnosticSink sink("tree_decomposition", &diagnostics);
  if (td.bags.empty()) {
    if (a.domain_size() != 0) {
      sink.Error("", "empty decomposition for a structure with " +
                         std::to_string(a.domain_size()) + " elements");
    }
    CheckClaimedWidth(claimed_width, td.Width(), &sink);
    return diagnostics;
  }
  CheckBags(td.bags, a.domain_size(), /*allow_empty=*/false, &sink);
  auto adj = CheckForest(static_cast<int>(td.bags.size()), td.edges, &sink);

  for (int r = 0; r < a.vocabulary().size(); ++r) {
    for (const Tuple& t : a.tuples(r)) {
      bool covered = false;
      for (const auto& bag : td.bags) {
        bool inside = true;
        for (int e : t) {
          if (!BagContains(bag, e)) {
            inside = false;
            break;
          }
        }
        if (inside) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        sink.Error("relation '" + a.vocabulary().symbol(r).name + "' tuple " +
                       TupleString(t),
                   "contained in no bag");
      }
    }
  }
  for (int v = 0; v < a.domain_size(); ++v) {
    CheckVertexConnected(v, td.bags, adj, /*require_occurrence=*/true, &sink);
  }
  CheckClaimedWidth(claimed_width, td.Width(), &sink);
  return diagnostics;
}

Diagnostics ValidateHypertreeDecomposition(const Hypergraph& h,
                                           const HypertreeDecomposition& htd,
                                           int claimed_width) {
  Diagnostics diagnostics;
  DiagnosticSink sink("hypertree_decomposition", &diagnostics);
  int nodes = static_cast<int>(htd.chi.size());
  if (htd.lambda.size() != htd.chi.size()) {
    sink.Error("", "chi has " + std::to_string(htd.chi.size()) +
                       " nodes, lambda has " +
                       std::to_string(htd.lambda.size()));
    return diagnostics;
  }

  int num_vertices = 0;
  for (const auto& edge : h.edges) {
    for (int v : edge) num_vertices = std::max(num_vertices, v + 1);
  }
  for (const auto& bag : htd.chi) {
    for (int v : bag) num_vertices = std::max(num_vertices, v + 1);
  }
  CheckBags(htd.chi, num_vertices, /*allow_empty=*/true, &sink);
  auto adj = CheckForest(nodes, htd.edges, &sink);

  // Guard coverage: chi(t) must be inside the union of lambda(t)'s edges.
  for (int t = 0; t < nodes; ++t) {
    const std::string at = "node " + std::to_string(t);
    std::unordered_set<int> covered;
    for (int e : htd.lambda[t]) {
      if (e < 0 || e >= static_cast<int>(h.edges.size())) {
        sink.Error(at, "guard references nonexistent hyperedge " +
                           std::to_string(e));
        continue;
      }
      covered.insert(h.edges[e].begin(), h.edges[e].end());
    }
    for (int v : htd.chi[t]) {
      if (covered.count(v) == 0) {
        sink.Error(at, "bag vertex " + std::to_string(v) +
                           " not covered by the guard's hyperedges");
      }
    }
  }

  // Constraint coverage: every hyperedge inside some bag.
  for (std::size_t e = 0; e < h.edges.size(); ++e) {
    bool found = false;
    for (int t = 0; t < nodes && !found; ++t) {
      bool inside = true;
      for (int v : h.edges[e]) {
        if (!BagContains(htd.chi[t], v)) {
          inside = false;
          break;
        }
      }
      found = inside;
    }
    if (!found) {
      sink.Error("hyperedge " + std::to_string(e),
                 "contained in no bag (constraint uncovered)");
    }
  }

  // Running intersection over the vertices that occur in some hyperedge.
  std::unordered_set<int> vertices;
  for (const auto& edge : h.edges) {
    vertices.insert(edge.begin(), edge.end());
  }
  std::vector<int> sorted_vertices(vertices.begin(), vertices.end());
  std::sort(sorted_vertices.begin(), sorted_vertices.end());
  for (int v : sorted_vertices) {
    CheckVertexConnected(v, htd.chi, adj, /*require_occurrence=*/false,
                         &sink);
  }
  CheckClaimedWidth(claimed_width, htd.Width(), &sink);
  return diagnostics;
}

}  // namespace cspdb
