#include "csp/dual_encoding.h"

#include <algorithm>
#include <utility>

#include "csp/solver.h"
#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {

DualEncoding BuildDualEncoding(const CspInstance& csp) {
  DualEncoding encoding{CspInstance(0, 0), {}, csp.NormalizedDistinctScopes()};
  const auto& constraints = encoding.normalized.constraints();
  int m = static_cast<int>(constraints.size());
  // Dual domain: the largest allowed-tuple list; dual variable c takes
  // values 0..|allowed(c)|-1, padded values are forbidden by a unary
  // constraint.
  int domain = 0;
  for (const Constraint& c : constraints) {
    domain = std::max(domain, static_cast<int>(c.allowed.size()));
  }
  encoding.dual = CspInstance(m, domain);
  encoding.constraint_of.resize(m);
  for (int i = 0; i < m; ++i) encoding.constraint_of[i] = i;

  for (int i = 0; i < m; ++i) {
    std::vector<Tuple> in_range;
    for (int t = 0; t < static_cast<int>(constraints[i].allowed.size());
         ++t) {
      in_range.push_back({t});
    }
    encoding.dual.AddConstraint({i}, std::move(in_range));
  }

  // Agreement constraints for every pair of constraints sharing original
  // variables.
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      // Shared original variables and their positions.
      std::vector<std::pair<int, int>> shared;  // (pos in i, pos in j)
      for (std::size_t p = 0; p < constraints[i].scope.size(); ++p) {
        for (std::size_t q = 0; q < constraints[j].scope.size(); ++q) {
          if (constraints[i].scope[p] == constraints[j].scope[q]) {
            shared.push_back({static_cast<int>(p), static_cast<int>(q)});
          }
        }
      }
      if (shared.empty()) continue;
      std::vector<Tuple> allowed;
      for (int ti = 0; ti < static_cast<int>(constraints[i].allowed.size());
           ++ti) {
        for (int tj = 0;
             tj < static_cast<int>(constraints[j].allowed.size()); ++tj) {
          bool agree = true;
          for (const auto& [p, q] : shared) {
            if (constraints[i].allowed.row(ti)[p] !=
                constraints[j].allowed.row(tj)[q]) {
              agree = false;
              break;
            }
          }
          if (agree) allowed.push_back({ti, tj});
        }
      }
      encoding.dual.AddConstraint({i, j}, std::move(allowed));
    }
  }
  return encoding;
}

std::vector<int> DecodeDualSolution(const DualEncoding& encoding,
                                    const std::vector<int>& dual_solution) {
  const auto& constraints = encoding.normalized.constraints();
  CSPDB_CHECK(dual_solution.size() == constraints.size());
  std::vector<int> assignment(encoding.normalized.num_variables(),
                              kUnassigned);
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& c = constraints[i];
    int choice = dual_solution[i];
    CSPDB_CHECK(choice >= 0 &&
                choice < static_cast<int>(c.allowed.size()));
    for (int p = 0; p < c.arity(); ++p) {
      int var = c.scope[p];
      int val = c.allowed.row(choice)[p];
      CSPDB_CHECK_MSG(
          assignment[var] == kUnassigned || assignment[var] == val,
          "dual solution disagrees on a shared variable");
      assignment[var] = val;
    }
  }
  for (int v = 0; v < encoding.normalized.num_variables(); ++v) {
    if (assignment[v] == kUnassigned) assignment[v] = 0;
  }
  return assignment;
}

CspInstance HiddenVariableEncoding(const CspInstance& csp) {
  CspInstance normalized = csp.NormalizedDistinctScopes();
  const auto& constraints = normalized.constraints();
  int n = normalized.num_variables();
  int m = static_cast<int>(constraints.size());
  int domain = normalized.num_values();
  for (const Constraint& c : constraints) {
    domain = std::max(domain, static_cast<int>(c.allowed.size()));
  }
  CspInstance hidden(n + m, domain);

  // Original variables keep their value range.
  for (int v = 0; v < n; ++v) {
    std::vector<Tuple> in_range;
    for (int d = 0; d < normalized.num_values(); ++d) {
      in_range.push_back({d});
    }
    hidden.AddConstraint({v}, std::move(in_range));
  }
  for (int c = 0; c < m; ++c) {
    // Hidden variable range.
    std::vector<Tuple> in_range;
    for (int t = 0; t < static_cast<int>(constraints[c].allowed.size());
         ++t) {
      in_range.push_back({t});
    }
    hidden.AddConstraint({n + c}, std::move(in_range));
    // Tie each scope variable to the chosen tuple.
    for (int p = 0; p < constraints[c].arity(); ++p) {
      std::vector<Tuple> agree;
      for (int t = 0; t < static_cast<int>(constraints[c].allowed.size());
           ++t) {
        agree.push_back({t, constraints[c].allowed.row(t)[p]});
      }
      hidden.AddConstraint({n + c, constraints[c].scope[p]},
                           std::move(agree));
    }
  }
  return hidden;
}

std::optional<std::vector<int>> SolveViaHiddenVariables(
    const CspInstance& csp) {
  if (csp.num_variables() > 0 && csp.num_values() == 0) return std::nullopt;
  CspInstance hidden = HiddenVariableEncoding(csp);
  BacktrackingSolver solver(hidden);
  auto extended = solver.Solve();
  if (!extended.has_value()) return std::nullopt;
  std::vector<int> assignment(extended->begin(),
                              extended->begin() + csp.num_variables());
  CSPDB_CHECK(csp.IsSolution(assignment));
  return assignment;
}

std::optional<std::vector<int>> SolveViaDual(const CspInstance& csp) {
  if (csp.num_variables() > 0 && csp.num_values() == 0) return std::nullopt;
  DualEncoding encoding = BuildDualEncoding(csp);
  if (encoding.normalized.constraints().empty()) {
    return std::vector<int>(csp.num_variables(), 0);
  }
  for (const Constraint& c : encoding.normalized.constraints()) {
    if (c.allowed.empty()) return std::nullopt;
  }
  BacktrackingSolver solver(encoding.dual);
  auto dual_solution = solver.Solve();
  if (!dual_solution.has_value()) return std::nullopt;
  std::vector<int> assignment = DecodeDualSolution(encoding,
                                                   *dual_solution);
  CSPDB_CHECK(csp.IsSolution(assignment));
  return assignment;
}

}  // namespace cspdb
