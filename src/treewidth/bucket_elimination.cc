#include "treewidth/bucket_elimination.h"

#include <algorithm>
#include <utility>

#include "analysis/validate_csp.h"
#include "db/algebra.h"
#include "db/relation.h"
#include "obs/obs.h"
#include "relational/homomorphism.h"
#include "treewidth/heuristics.h"
#include "util/check.h"

namespace cspdb {

std::optional<std::vector<int>> SolveByBucketElimination(
    const CspInstance& csp, const std::vector<int>& order,
    BucketStats* stats) {
  CSPDB_TIMER_SCOPE("treewidth.bucket_elimination");
  int n = csp.num_variables();
  CSPDB_CHECK(static_cast<int>(order.size()) == n);
  if (n > 0 && csp.num_values() == 0) return std::nullopt;

  std::vector<int> position(n, -1);
  for (int i = 0; i < n; ++i) {
    CSPDB_CHECK(order[i] >= 0 && order[i] < n);
    CSPDB_CHECK_MSG(position[order[i]] == -1, "ordering repeats a variable");
    position[order[i]] = i;
  }

  // Buckets indexed by elimination position; a relation lives in the
  // bucket of its latest-eliminated attribute.
  CspInstance normalized = csp.NormalizedDistinctScopes();
  std::vector<std::vector<DbRelation>> buckets(n);
  auto place = [&](DbRelation rel) {
    CSPDB_CHECK(!rel.schema().empty());
    int latest = rel.schema()[0];
    for (int a : rel.schema()) {
      if (position[a] > position[latest]) latest = a;
    }
    buckets[position[latest]].push_back(std::move(rel));
  };
  for (const Constraint& c : normalized.constraints()) {
    if (c.allowed.empty()) return std::nullopt;
    DbRelation rel(c.scope);
    for (DbRelation::RowRef t : c.allowed) rel.AddRow(t.data());
    place(std::move(rel));
  }

  BucketStats local_stats;
  local_stats.bucket_rows.assign(n, 0);
  if (stats != nullptr) {
    // Buckets are processed last-position-first, so the effective
    // elimination sequence is the reverse of `order`.
    std::vector<int> elimination(order.rbegin(), order.rend());
    local_stats.induced_width =
        InducedWidth(GaifmanGraphOfCsp(csp), elimination);
  }

  // Elimination pass: latest bucket first.
  for (int i = n - 1; i >= 0; --i) {
    if (buckets[i].empty()) continue;
    DbRelation joined = JoinAll(buckets[i]);
    local_stats.bucket_rows[i] = static_cast<int64_t>(joined.size());
    local_stats.max_table_rows = std::max(
        local_stats.max_table_rows, static_cast<int64_t>(joined.size()));
    local_stats.total_rows += static_cast<int64_t>(joined.size());
    CSPDB_COUNT("treewidth.buckets_joined");
    CSPDB_GAUGE_MAX("treewidth.max_table_rows",
                    static_cast<int64_t>(joined.size()));
    if (joined.empty()) {
      if (stats != nullptr) *stats = local_stats;
      return std::nullopt;
    }
    std::vector<int> keep;
    for (int a : joined.schema()) {
      if (a != order[i]) keep.push_back(a);
    }
    if (keep.empty()) continue;  // fully projected away; nonempty == OK
    DbRelation projected = Project(joined, keep);
    // The bucket keeps its input relations for solution extraction; the
    // join is dropped and its projection moves to a later bucket.
    place(std::move(projected));
  }

  // Backtrack-free solution construction in elimination order.
  std::vector<int> solution(n, kUnassigned);
  for (int i = 0; i < n; ++i) {
    int var = order[i];
    bool assigned = false;
    for (int d = 0; d < csp.num_values() && !assigned; ++d) {
      bool ok = true;
      for (const DbRelation& rel : buckets[i]) {
        // All schema attributes other than var are already assigned.
        bool supported = false;
        for (auto row : rel.rows()) {
          bool match = true;
          for (std::size_t q = 0; q < rel.schema().size(); ++q) {
            int a = rel.schema()[q];
            int expect = a == var ? d : solution[a];
            if (row[q] != expect) {
              match = false;
              break;
            }
          }
          if (match) {
            supported = true;
            break;
          }
        }
        if (!supported) {
          ok = false;
          break;
        }
      }
      if (ok) {
        solution[var] = d;
        assigned = true;
      }
    }
    if (!assigned) {
      // Cannot happen after a successful elimination pass (adaptive
      // consistency makes the search backtrack-free), unless the variable
      // is unconstrained and the value set is empty — excluded above.
      if (stats != nullptr) *stats = local_stats;
      return std::nullopt;
    }
  }
  if (stats != nullptr) *stats = local_stats;
  CSPDB_CHECK(csp.IsSolution(solution));
  CSPDB_AUDIT(AuditOrDie("bucket-elimination solution",
                         ValidateSolution(csp, solution)));
  return solution;
}

std::optional<std::vector<int>> SolveWithTreewidthHeuristic(
    const CspInstance& csp, BucketStats* stats) {
  Graph primal = GaifmanGraphOfCsp(csp);
  // Min-fill lists the variable to eliminate *first* first; bucket
  // elimination eliminates the last position first, so reverse.
  std::vector<int> order = MinFillOrdering(primal);
  std::reverse(order.begin(), order.end());
  return SolveByBucketElimination(csp, order, stats);
}

}  // namespace cspdb
