// Frozen copy of the pre-optimization arc_consistency.cc. Kept verbatim
// (modulo renames) as the differential-testing oracle and benchmark
// baseline; see reference_gac.h.

#include "oracles/reference_gac.h"

#include <deque>

#include "util/check.h"

namespace cspdb {

ReferenceAcResult ReferenceEnforceGac(const CspInstance& csp) {
  ReferenceAcResult result;
  result.domains.assign(csp.num_variables(),
                        std::vector<char>(csp.num_values(), 1));
  std::vector<int> domain_size(csp.num_variables(), csp.num_values());
  if (csp.num_variables() > 0 && csp.num_values() == 0) {
    result.consistent = false;
    return result;
  }

  int m = static_cast<int>(csp.constraints().size());
  std::deque<int> queue;
  std::vector<char> queued(m, 0);
  for (int c = 0; c < m; ++c) {
    queue.push_back(c);
    queued[c] = 1;
  }

  while (!queue.empty()) {
    int ci = queue.front();
    queue.pop_front();
    queued[ci] = 0;
    const Constraint& c = csp.constraint(ci);
    for (int q = 0; q < c.arity(); ++q) {
      int var = c.scope[q];
      bool dup = false;
      for (int p = 0; p < q; ++p) {
        if (c.scope[p] == var) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      ++result.revisions;
      bool changed = false;
      for (int val = 0; val < csp.num_values(); ++val) {
        if (!result.domains[var][val]) continue;
        bool supported = false;
        for (DbRelation::RowRef t : c.allowed) {
          bool ok = true;
          for (int p = 0; p < c.arity(); ++p) {
            if (c.scope[p] == var ? (t[p] != val)
                                  : !result.domains[c.scope[p]][t[p]]) {
              ok = false;
              break;
            }
          }
          if (ok) {
            supported = true;
            break;
          }
        }
        if (!supported) {
          result.domains[var][val] = 0;
          --domain_size[var];
          ++result.prunings;
          changed = true;
          if (domain_size[var] == 0) {
            result.consistent = false;
            return result;
          }
        }
      }
      if (changed) {
        for (int other : csp.ConstraintsOn(var)) {
          if (other != ci && !queued[other]) {
            queue.push_back(other);
            queued[other] = 1;
          }
        }
        // Re-examine this constraint's other variables too.
        if (!queued[ci]) {
          queue.push_back(ci);
          queued[ci] = 1;
        }
      }
    }
  }
  return result;
}

ReferenceAcResult ReferenceEnforceSingletonArcConsistency(
    const CspInstance& csp) {
  ReferenceAcResult result = ReferenceEnforceGac(csp);
  if (!result.consistent) return result;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int v = 0; v < csp.num_variables() && result.consistent; ++v) {
      for (int d = 0; d < csp.num_values(); ++d) {
        if (!result.domains[v][d]) continue;
        // Probe x_v = d on top of the current domains.
        CspInstance probe = ReferenceRestrictToDomains(csp, result.domains);
        probe.AddConstraint({v}, {{d}});
        ReferenceAcResult probe_result = ReferenceEnforceGac(probe);
        result.revisions += probe_result.revisions;
        if (!probe_result.consistent) {
          result.domains[v][d] = 0;
          ++result.prunings;
          changed = true;
          // Domain wipeout?
          bool any = false;
          for (int other = 0; other < csp.num_values(); ++other) {
            if (result.domains[v][other]) {
              any = true;
              break;
            }
          }
          if (!any) {
            result.consistent = false;
            return result;
          }
        }
      }
    }
  }
  return result;
}

CspInstance ReferenceRestrictToDomains(
    const CspInstance& csp,
    const std::vector<std::vector<char>>& domains) {
  CSPDB_CHECK(static_cast<int>(domains.size()) == csp.num_variables());
  CspInstance out(csp.num_variables(), csp.num_values());
  for (const Constraint& c : csp.constraints()) {
    out.AddConstraint(c.scope, c.allowed);
  }
  for (int v = 0; v < csp.num_variables(); ++v) {
    std::vector<Tuple> allowed;
    for (int d = 0; d < csp.num_values(); ++d) {
      if (domains[v][d]) allowed.push_back({d});
    }
    out.AddConstraint({v}, std::move(allowed));
  }
  return out;
}

}  // namespace cspdb
