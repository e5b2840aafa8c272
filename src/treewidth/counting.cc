#include "treewidth/counting.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "relational/structure.h"
#include "treewidth/gaifman.h"
#include "treewidth/heuristics.h"
#include "util/check.h"

namespace cspdb {
namespace {

// A nonnegative-weighted relation: schema plus weight per row.
struct WeightedRelation {
  std::vector<int> schema;  // distinct attribute ids
  std::unordered_map<Tuple, int64_t, TupleHash> rows;
};

int Position(const WeightedRelation& r, int attr) {
  for (std::size_t i = 0; i < r.schema.size(); ++i) {
    if (r.schema[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

// Weighted natural join: weights multiply.
WeightedRelation Join(const WeightedRelation& a,
                      const WeightedRelation& b) {
  std::vector<int> a_shared, b_shared, b_extra;
  for (std::size_t i = 0; i < b.schema.size(); ++i) {
    int p = Position(a, b.schema[i]);
    if (p >= 0) {
      a_shared.push_back(p);
      b_shared.push_back(static_cast<int>(i));
    } else {
      b_extra.push_back(static_cast<int>(i));
    }
  }
  WeightedRelation out;
  out.schema = a.schema;
  for (int i : b_extra) out.schema.push_back(b.schema[i]);

  // Index b on the shared key.
  std::unordered_map<Tuple, std::vector<const std::pair<const Tuple,
                                                        int64_t>*>,
                     TupleHash>
      index;
  for (const auto& row : b.rows) {
    Tuple key;
    key.reserve(b_shared.size());
    for (int p : b_shared) key.push_back(row.first[p]);
    index[key].push_back(&row);
  }
  for (const auto& [tuple, weight] : a.rows) {
    Tuple key;
    key.reserve(a_shared.size());
    for (int p : a_shared) key.push_back(tuple[p]);
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (const auto* brow : it->second) {
      Tuple combined = tuple;
      for (int p : b_extra) combined.push_back(brow->first[p]);
      out.rows[std::move(combined)] += weight * brow->second;
    }
  }
  return out;
}

// Sums out one attribute.
WeightedRelation SumOut(const WeightedRelation& r, int attr) {
  int pos = Position(r, attr);
  CSPDB_CHECK(pos >= 0);
  WeightedRelation out;
  for (std::size_t i = 0; i < r.schema.size(); ++i) {
    if (static_cast<int>(i) != pos) out.schema.push_back(r.schema[i]);
  }
  for (const auto& [tuple, weight] : r.rows) {
    Tuple reduced;
    reduced.reserve(tuple.size() - 1);
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      if (static_cast<int>(i) != pos) reduced.push_back(tuple[i]);
    }
    out.rows[std::move(reduced)] += weight;
  }
  return out;
}

}  // namespace

int64_t CountSolutionsByElimination(const CspInstance& csp,
                                    const std::vector<int>& order) {
  int n = csp.num_variables();
  CSPDB_CHECK(static_cast<int>(order.size()) == n);
  if (n == 0) return 1;
  if (csp.num_values() == 0) return 0;

  std::vector<int> position(n, -1);
  for (int i = 0; i < n; ++i) {
    CSPDB_CHECK(order[i] >= 0 && order[i] < n);
    CSPDB_CHECK_MSG(position[order[i]] == -1, "ordering repeats a variable");
    position[order[i]] = i;
  }

  CspInstance normalized = csp.NormalizedDistinctScopes();
  std::vector<std::vector<WeightedRelation>> buckets(n);
  std::vector<char> covered(n, 0);
  auto place = [&](WeightedRelation rel) {
    CSPDB_CHECK(!rel.schema.empty());
    int latest = rel.schema[0];
    for (int a : rel.schema) {
      if (position[a] > position[latest]) latest = a;
    }
    buckets[position[latest]].push_back(std::move(rel));
  };
  for (const Constraint& c : normalized.constraints()) {
    WeightedRelation rel;
    rel.schema = c.scope;
    for (DbRelation::RowRef t : c.allowed) rel.rows[t.ToTuple()] = 1;
    for (int v : c.scope) covered[v] = 1;
    if (rel.rows.empty()) return 0;
    place(std::move(rel));
  }

  int64_t scalar = 1;
  for (int i = n - 1; i >= 0; --i) {
    if (buckets[i].empty()) continue;
    WeightedRelation acc = std::move(buckets[i][0]);
    for (std::size_t j = 1; j < buckets[i].size(); ++j) {
      acc = Join(acc, buckets[i][j]);
    }
    if (acc.rows.empty()) return 0;
    acc = SumOut(acc, order[i]);
    if (acc.schema.empty()) {
      // Fully eliminated: a scalar factor.
      int64_t total = 0;
      for (const auto& [tuple, weight] : acc.rows) {
        (void)tuple;
        total += weight;
      }
      if (total == 0) return 0;
      scalar *= total;
    } else {
      place(std::move(acc));
    }
  }

  // Unconstrained variables pick any value.
  for (int v = 0; v < n; ++v) {
    if (!covered[v]) scalar *= csp.num_values();
  }
  return scalar;
}

int64_t CountSolutionsWithTreewidthHeuristic(const CspInstance& csp) {
  Graph primal = GaifmanGraphOfCsp(csp);
  // Buckets are processed last-position-first; reverse the min-fill
  // order so the cheap eliminations happen first.
  std::vector<int> order = MinFillOrdering(primal);
  std::reverse(order.begin(), order.end());
  return CountSolutionsByElimination(csp, order);
}

}  // namespace cspdb
