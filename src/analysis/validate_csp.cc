#include "analysis/validate_csp.h"

#include <algorithm>
#include <map>
#include <string>

namespace cspdb {

Diagnostics ValidateCspInstance(const CspInstance& csp) {
  Diagnostics diagnostics;
  DiagnosticSink sink("csp_instance", &diagnostics);
  const int n = csp.num_variables();
  const int d = csp.num_values();
  if (n < 0) sink.Error("", "negative variable count " + std::to_string(n));
  if (d < 0) sink.Error("", "negative value count " + std::to_string(d));
  if (sink.errors() > 0) return diagnostics;

  std::map<std::vector<int>, int> seen_scopes;
  for (std::size_t ci = 0; ci < csp.constraints().size(); ++ci) {
    const Constraint& c = csp.constraints()[ci];
    const std::string at = "constraint " + std::to_string(ci);
    if (c.scope.empty()) sink.Warning(at, "empty scope");
    for (int v : c.scope) {
      if (v < 0 || v >= n) {
        sink.Error(at, "scope variable " + std::to_string(v) +
                           " outside [0, " + std::to_string(n) + ")");
      }
    }
    auto [it, fresh] = seen_scopes.insert({c.scope, static_cast<int>(ci)});
    if (!fresh) {
      sink.Error(at, "scope duplicates constraint " +
                         std::to_string(it->second) +
                         " (scopes must be consolidated)");
    }
    if (c.allowed.empty()) {
      sink.Warning(at, "empty relation (instance trivially unsolvable)");
    }
    TupleSet list_set;
    if (!c.allowed.empty() && c.allowed.arity() != c.arity()) {
      sink.Error(at, "relation has arity " +
                         std::to_string(c.allowed.arity()) +
                         ", scope has arity " + std::to_string(c.arity()));
      continue;
    }
    for (DbRelation::RowRef row : c.allowed) {
      const Tuple t = row.ToTuple();
      for (int val : t) {
        if (val < 0 || val >= d) {
          sink.Error(at, "tuple " + TupleString(t) + " value " +
                             std::to_string(val) + " outside [0, " +
                             std::to_string(d) + ")");
        }
      }
      if (!list_set.insert(t).second) {
        sink.Error(at, "duplicate tuple " + TupleString(t) +
                           " in insertion-order list");
      }
      if (c.allowed_set.count(t) == 0) {
        sink.Error(at, "tuple " + TupleString(t) +
                           " in insertion-order list but missing from the "
                           "membership set");
      }
    }
    if (c.allowed_set.size() != list_set.size()) {
      sink.Error(at, "membership set has " +
                         std::to_string(c.allowed_set.size()) +
                         " tuples, insertion-order list has " +
                         std::to_string(list_set.size()));
    }
  }

  // The per-variable index must list exactly the constraints whose scope
  // mentions the variable (each exactly once).
  for (int v = 0; v < n; ++v) {
    const std::string at = "variable " + std::to_string(v);
    std::vector<int> indexed = csp.ConstraintsOn(v);
    std::sort(indexed.begin(), indexed.end());
    if (std::adjacent_find(indexed.begin(), indexed.end()) != indexed.end()) {
      sink.Error(at, "ConstraintsOn lists a constraint twice");
    }
    std::vector<int> expected;
    for (std::size_t ci = 0; ci < csp.constraints().size(); ++ci) {
      const auto& scope = csp.constraints()[ci].scope;
      if (std::find(scope.begin(), scope.end(), v) != scope.end()) {
        expected.push_back(static_cast<int>(ci));
      }
    }
    if (indexed != expected) {
      sink.Error(at, "ConstraintsOn index disagrees with constraint scopes");
    }
  }
  return diagnostics;
}

Diagnostics ValidateSolution(const CspInstance& csp,
                             const std::vector<int>& assignment) {
  Diagnostics diagnostics;
  DiagnosticSink sink("solution", &diagnostics);
  const int n = csp.num_variables();
  if (static_cast<int>(assignment.size()) != n) {
    sink.Error("", "assignment has " + std::to_string(assignment.size()) +
                       " entries, instance has " + std::to_string(n) +
                       " variables");
    return diagnostics;
  }
  for (int v = 0; v < n; ++v) {
    if (assignment[v] < 0 || assignment[v] >= csp.num_values()) {
      sink.Error("variable " + std::to_string(v),
                 "value " + std::to_string(assignment[v]) + " outside [0, " +
                     std::to_string(csp.num_values()) + ")");
    }
  }
  if (sink.errors() > 0) return diagnostics;

  Tuple image;
  for (std::size_t ci = 0; ci < csp.constraints().size(); ++ci) {
    const Constraint& c = csp.constraints()[ci];
    image.clear();
    for (int v : c.scope) image.push_back(assignment[v]);
    if (c.allowed_set.count(image) == 0) {
      sink.Error("constraint " + std::to_string(ci),
                 "assigned tuple " + TupleString(image) +
                     " not in the allowed relation");
    }
  }
  return diagnostics;
}

Diagnostics ValidateHomomorphism(const Structure& a, const Structure& b,
                                 const std::vector<int>& h) {
  Diagnostics diagnostics;
  DiagnosticSink sink("homomorphism", &diagnostics);
  if (!(a.vocabulary() == b.vocabulary())) {
    sink.Error("", "structures have different vocabularies");
    return diagnostics;
  }
  if (static_cast<int>(h.size()) != a.domain_size()) {
    sink.Error("", "map has " + std::to_string(h.size()) +
                       " entries, source domain has " +
                       std::to_string(a.domain_size()));
    return diagnostics;
  }
  for (int e = 0; e < a.domain_size(); ++e) {
    if (h[e] < 0 || h[e] >= b.domain_size()) {
      sink.Error("element " + std::to_string(e),
                 "image " + std::to_string(h[e]) + " outside [0, " +
                     std::to_string(b.domain_size()) + ")");
    }
  }
  if (sink.errors() > 0) return diagnostics;

  for (int r = 0; r < a.vocabulary().size(); ++r) {
    const std::string rel = "relation '" + a.vocabulary().symbol(r).name + "'";
    for (const Tuple& t : a.tuples(r)) {
      Tuple image;
      image.reserve(t.size());
      for (int e : t) image.push_back(h[e]);
      if (!b.HasTuple(r, image)) {
        sink.Error(rel, "tuple " + TupleString(t) + " maps to " +
                            TupleString(image) +
                            ", which is not in the target relation");
      }
    }
  }
  return diagnostics;
}

}  // namespace cspdb
