#include "csp/convert.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cspdb {

HomInstance ToHomomorphismInstance(const CspInstance& csp) {
  // Identify distinct constraint relations by arity and sorted rows.
  std::map<std::pair<int, std::vector<int>>, int> relation_ids;
  std::vector<const Constraint*> by_constraint(csp.constraints().size());
  Vocabulary voc;
  std::vector<int> constraint_rel(csp.constraints().size());
  for (std::size_t i = 0; i < csp.constraints().size(); ++i) {
    const Constraint& c = csp.constraints()[i];
    auto [it, inserted] = relation_ids.emplace(
        std::make_pair(c.arity(), c.allowed_set.data()), voc.size());
    if (inserted) {
      std::string name = "R";
      name += std::to_string(it->second);
      voc.AddSymbol(name, c.arity());
    }
    constraint_rel[i] = it->second;
    by_constraint[i] = &c;
  }

  Structure a(voc, csp.num_variables());
  Structure b(voc, csp.num_values());
  for (std::size_t i = 0; i < csp.constraints().size(); ++i) {
    const Constraint& c = *by_constraint[i];
    a.AddTuple(constraint_rel[i], Tuple(c.scope.begin(), c.scope.end()));
    for (DbRelation::RowRef t : c.allowed) {
      b.AddTuple(constraint_rel[i], t.ToTuple());
    }
  }
  for (int v = 0; v < csp.num_variables(); ++v) {
    a.SetElementName(v, csp.VariableName(v));
  }
  for (int d = 0; d < csp.num_values(); ++d) {
    b.SetElementName(d, csp.ValueName(d));
  }
  return {std::move(a), std::move(b)};
}

CspInstance ToCspInstance(const Structure& a, const Structure& b) {
  CSPDB_CHECK(a.vocabulary() == b.vocabulary());
  CspInstance csp(a.domain_size(), b.domain_size());
  for (int r = 0; r < a.vocabulary().size(); ++r) {
    const std::vector<Tuple>& image = b.tuples(r);
    for (const Tuple& t : a.tuples(r)) {
      csp.AddConstraint(std::vector<int>(t.begin(), t.end()), image);
    }
  }
  for (int e = 0; e < a.domain_size(); ++e) {
    csp.SetVariableName(e, a.ElementName(e));
  }
  for (int e = 0; e < b.domain_size(); ++e) {
    csp.SetValueName(e, b.ElementName(e));
  }
  return csp;
}

}  // namespace cspdb
