#include "consistency/local_consistency.h"

#include <vector>

#include "csp/convert.h"
#include "games/pebble_game.h"
#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {
namespace {

// Enumerates partial solutions over the distinct variables vars[0..idx),
// then recurses over variable subsets; calls `visit` for each (subset,
// partial solution). `visit` returns false to abort the whole walk.
//
// We enumerate subsets of size `count` starting from `next_var`, and for
// each subset all value assignments that are partial solutions.
class PartialSolutionWalker {
 public:
  PartialSolutionWalker(const CspInstance& csp, int count)
      : csp_(csp), count_(count),
        assignment_(csp.num_variables(), kUnassigned) {}

  // Returns false if `visit` aborted.
  template <typename Visit>
  bool Walk(Visit&& visit) {
    chosen_.clear();
    return ChooseVars(0, visit);
  }

 private:
  template <typename Visit>
  bool ChooseVars(int next_var, Visit&& visit) {
    if (static_cast<int>(chosen_.size()) == count_) {
      return AssignValues(0, visit);
    }
    for (int v = next_var; v < csp_.num_variables(); ++v) {
      chosen_.push_back(v);
      if (!ChooseVars(v + 1, visit)) return false;
      chosen_.pop_back();
    }
    return true;
  }

  template <typename Visit>
  bool AssignValues(int idx, Visit&& visit) {
    if (idx == static_cast<int>(chosen_.size())) {
      // Partial-solution check: constraints fully inside the subset.
      if (!csp_.IsPartialSolution(assignment_)) return true;  // skip
      return visit(chosen_, assignment_);
    }
    for (int d = 0; d < csp_.num_values(); ++d) {
      assignment_[chosen_[idx]] = d;
      bool keep_going = AssignValues(idx + 1, visit);
      assignment_[chosen_[idx]] = kUnassigned;
      if (!keep_going) return false;
    }
    return true;
  }

  const CspInstance& csp_;
  int count_;
  std::vector<int> assignment_;
  std::vector<int> chosen_;
};

}  // namespace

bool IsIConsistent(const CspInstance& csp, int i) {
  CSPDB_CHECK(i >= 1);
  if (i - 1 > csp.num_variables()) return true;  // no i-1 variables exist
  PartialSolutionWalker walker(csp, i - 1);
  bool consistent = true;
  walker.Walk([&](const std::vector<int>& vars,
                  const std::vector<int>& assignment) {
    std::vector<int> extended = assignment;
    for (int v = 0; v < csp.num_variables(); ++v) {
      bool chosen = false;
      for (int u : vars) {
        if (u == v) {
          chosen = true;
          break;
        }
      }
      if (chosen) continue;
      bool extendable = false;
      for (int d = 0; d < csp.num_values(); ++d) {
        extended[v] = d;
        if (csp.IsPartialSolution(extended)) {
          extendable = true;
          break;
        }
      }
      extended[v] = kUnassigned;
      if (!extendable) {
        consistent = false;
        return false;  // abort walk
      }
    }
    return true;
  });
  return consistent;
}

bool IsStronglyKConsistent(const CspInstance& csp, int k) {
  for (int i = 1; i <= k; ++i) {
    if (!IsIConsistent(csp, i)) return false;
  }
  return true;
}

bool IsIConsistentViaGames(const CspInstance& csp, int i) {
  HomInstance hom = ToHomomorphismInstance(csp);
  return HasIForthProperty(hom.a, hom.b, i);
}

bool IsStronglyKConsistentViaGames(const CspInstance& csp, int k) {
  HomInstance hom = ToHomomorphismInstance(csp);
  return PairIsStronglyKConsistent(hom.a, hom.b, k);
}

bool IsCoherent(const CspInstance& csp) {
  for (const Constraint& c : csp.constraints()) {
    for (DbRelation::RowRef t : c.allowed) {
      // Well-definedness on repeated scope variables.
      std::vector<int> partial(csp.num_variables(), kUnassigned);
      bool well_defined = true;
      for (int q = 0; q < c.arity(); ++q) {
        int v = c.scope[q];
        if (partial[v] != kUnassigned && partial[v] != t[q]) {
          well_defined = false;
          break;
        }
        partial[v] = t[q];
      }
      if (!well_defined || !csp.IsPartialSolution(partial)) return false;
    }
  }
  return true;
}

}  // namespace cspdb
