// Conflict-directed backjumping (Prosser's CBJ): a complete search that,
// on a dead end, jumps straight to the deepest variable actually involved
// in the conflict instead of backtracking chronologically. One of the
// classic AI search refinements the paper's Section 1 alludes to
// ("researchers in AI have pursued heuristics for CSP"); included for the
// solver-ablation experiments.

#ifndef CSPDB_CSP_BACKJUMP_SOLVER_H_
#define CSPDB_CSP_BACKJUMP_SOLVER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "csp/instance.h"

namespace cspdb {

/// Knobs for BackjumpSolver (parity with SolverOptions where the
/// concepts apply — CBJ has no propagation or dynamic ordering knobs).
struct BackjumpOptions {
  int64_t node_limit = -1;  ///< abort after this many nodes; -1 = unlimited
};

/// Counters reported by the backjumping search.
struct BackjumpStats {
  int64_t nodes = 0;
  int64_t backjumps = 0;   ///< dead ends that skipped at least one level
  int64_t backtracks = 0;  ///< all dead ends
  bool aborted = false;    ///< node limit hit before the search finished
};

/// Complete CBJ search with static variable order (descending degree).
/// Checks constraints as soon as their scope is fully assigned and tracks,
/// per variable, the set of earlier levels that caused value rejections
/// (the conflict set); exhausting a domain jumps to the deepest conflict
/// level and merges conflict sets.
class BackjumpSolver {
 public:
  explicit BackjumpSolver(const CspInstance& csp,
                          BackjumpOptions options = {});
  /// The solver keeps a reference to its instance, which a temporary
  /// would not outlive.
  BackjumpSolver(CspInstance&& csp, BackjumpOptions options = {}) = delete;

  /// Finds one solution or proves unsolvability (or hits the node limit —
  /// check stats().aborted before reading std::nullopt as unsolvable).
  std::optional<std::vector<int>> Solve();

  const BackjumpStats& stats() const { return stats_; }

 private:
  std::optional<std::vector<int>> Search();  // Solve minus the metrics

  const CspInstance& csp_;
  BackjumpOptions options_;
  BackjumpStats stats_;
  std::vector<int> order_;     // level -> variable
  std::vector<int> level_of_;  // variable -> level
};

}  // namespace cspdb

#endif  // CSPDB_CSP_BACKJUMP_SOLVER_H_
