#include "csp/backjump_solver.h"

#include <algorithm>
#include <numeric>

#include "analysis/validate_csp.h"
#include "obs/obs.h"
#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {

BackjumpSolver::BackjumpSolver(const CspInstance& csp,
                               BackjumpOptions options)
    : csp_(csp), options_(options) {
  int n = csp.num_variables();
  std::vector<int> degree(n);
  for (int v = 0; v < n; ++v) {
    degree[v] = static_cast<int>(csp.ConstraintsOn(v).size());
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](int x, int y) { return degree[x] > degree[y]; });
  level_of_.assign(n, 0);
  for (int i = 0; i < n; ++i) level_of_[order_[i]] = i;
}

std::optional<std::vector<int>> BackjumpSolver::Solve() {
  CSPDB_TIMER_SCOPE("csp.backjump_solve");
  stats_ = BackjumpStats{};
  std::optional<std::vector<int>> solution = Search();
  // One update per metric per run, so the search loop touches only stats_.
  CSPDB_COUNT_N("csp.backjump_nodes", stats_.nodes);
  CSPDB_COUNT_N("csp.backjump_backtracks", stats_.backtracks);
  CSPDB_COUNT_N("csp.backjumps", stats_.backjumps);
  return solution;
}

std::optional<std::vector<int>> BackjumpSolver::Search() {
  int n = csp_.num_variables();
  int d = csp_.num_values();
  if (n == 0) return std::vector<int>{};
  if (d == 0) return std::nullopt;
  for (const Constraint& c : csp_.constraints()) {
    if (c.allowed.empty()) return std::nullopt;
  }

  std::vector<int> assignment(n, kUnassigned);
  std::vector<int> next_value(n, 0);
  std::vector<std::vector<char>> conflict(n, std::vector<char>(n, 0));

  // Checks the constraints fully assigned at level L after giving
  // order_[L] a value; on violation, records the other scope levels in
  // conflict[L].
  auto consistent = [&](int level) {
    int var = order_[level];
    Tuple image;
    for (int ci : csp_.ConstraintsOn(var)) {
      const Constraint& c = csp_.constraint(ci);
      bool all_assigned = true;
      image.clear();
      for (int v : c.scope) {
        if (assignment[v] == kUnassigned) {
          all_assigned = false;
          break;
        }
        image.push_back(assignment[v]);
      }
      if (!all_assigned || c.allowed_set.count(image) > 0) continue;
      for (int v : c.scope) {
        if (v != var) conflict[level][level_of_[v]] = 1;
      }
      return false;
    }
    return true;
  };

  int level = 0;
  next_value[0] = 0;
  std::fill(conflict[0].begin(), conflict[0].end(), 0);
  while (true) {
    if (level == n) {
      CSPDB_CHECK(csp_.IsSolution(assignment));
      CSPDB_AUDIT(AuditOrDie("BackjumpSolver solution",
                             ValidateSolution(csp_, assignment)));
      return assignment;
    }
    int var = order_[level];
    bool advanced = false;
    for (int v = next_value[level]; v < d; ++v) {
      if (options_.node_limit >= 0 && stats_.nodes >= options_.node_limit) {
        stats_.aborted = true;
        assignment[var] = kUnassigned;
        return std::nullopt;
      }
      ++stats_.nodes;
      assignment[var] = v;
      if (consistent(level)) {
        next_value[level] = v + 1;
        advanced = true;
        break;
      }
    }
    if (advanced) {
      ++level;
      if (level < n) {
        next_value[level] = 0;
        std::fill(conflict[level].begin(), conflict[level].end(), 0);
      }
      continue;
    }
    // Dead end: jump to the deepest conflicting level.
    assignment[var] = kUnassigned;
    ++stats_.backtracks;
    int jump = -1;
    for (int l = level - 1; l >= 0; --l) {
      if (conflict[level][l]) {
        jump = l;
        break;
      }
    }
    if (jump < 0) return std::nullopt;
    if (jump < level - 1) ++stats_.backjumps;
    // Merge this conflict set (minus the jump target) into the target's.
    for (int l = 0; l < jump; ++l) {
      if (conflict[level][l]) conflict[jump][l] = 1;
    }
    for (int l = jump + 1; l <= level; ++l) {
      assignment[order_[l]] = kUnassigned;
    }
    level = jump;
  }
}

}  // namespace cspdb
