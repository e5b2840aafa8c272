#include "csp/instance.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <numeric>
#include <utility>

#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {

SortedRows::SortedRows(int arity, std::vector<Tuple>* tuples)
    : arity_(arity) {
  std::vector<Tuple>& in = *tuples;
  // Equal tuples sort by insertion index, so the first of each run of
  // equal tuples is its first occurrence.
  std::vector<uint32_t> order(in.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const std::strong_ordering c = in[a] <=> in[b];
    return c != 0 ? c < 0 : a < b;
  });
  std::vector<char> first(in.size(), 0);
  rows_.reserve(in.size() * static_cast<std::size_t>(arity));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Tuple& t = in[order[i]];
    if (i > 0 && t == in[order[i - 1]]) continue;
    first[order[i]] = 1;
    rows_.insert(rows_.end(), t.begin(), t.end());
    ++size_;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!first[i]) continue;
    if (kept != i) in[kept] = std::move(in[i]);
    ++kept;
  }
  in.erase(in.begin() + static_cast<std::ptrdiff_t>(kept), in.end());
}

CspInstance::CspInstance(int num_variables, int num_values)
    : num_variables_(num_variables), num_values_(num_values) {
  CSPDB_CHECK(num_variables >= 0);
  CSPDB_CHECK(num_values >= 0);
  constraints_on_.resize(num_variables);
}

int CspInstance::AddConstraint(std::vector<int> scope,
                               std::vector<Tuple> allowed) {
  CSPDB_CHECK_MSG(!scope.empty(), "constraint scope must be nonempty");
  for (int v : scope) {
    CSPDB_CHECK_MSG(v >= 0 && v < num_variables_, "variable out of range");
  }
  for (const Tuple& t : allowed) {
    CSPDB_CHECK_MSG(t.size() == scope.size(), "tuple arity mismatch");
    for (int d : t) {
      CSPDB_CHECK_MSG(d >= 0 && d < num_values_, "value out of range");
    }
  }

  auto it = scope_index_.find(scope);
  if (it != scope_index_.end()) {
    // Consolidate: intersect with the existing relation (Section 2),
    // keeping its insertion order.
    Constraint& c = constraints_[it->second];
    const SortedRows incoming(c.arity(), &allowed);
    std::erase_if(c.allowed,
                  [&](const Tuple& t) { return incoming.count(t) == 0; });
    c.allowed_set = SortedRows(c.arity(), &c.allowed);
    return it->second;
  }

  int id = static_cast<int>(constraints_.size());
  Constraint c;
  c.scope = scope;
  for (int q = 0; q < static_cast<int>(c.scope.size()); ++q) {
    bool first = true;
    for (int p = 0; p < q; ++p) {
      if (c.scope[p] == c.scope[q]) {
        first = false;
        break;
      }
    }
    if (first) c.distinct_slots.push_back(q);
  }
  c.allowed_set = SortedRows(c.arity(), &allowed);
  c.allowed = std::move(allowed);
  constraints_.push_back(std::move(c));
  scope_index_.emplace(std::move(scope), id);
  // Register on each distinct variable once.
  std::vector<int> seen = constraints_[id].scope;
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  for (int v : seen) constraints_on_[v].push_back(id);
  return id;
}

const Constraint& CspInstance::constraint(int i) const {
  CSPDB_CHECK(i >= 0 && i < static_cast<int>(constraints_.size()));
  return constraints_[i];
}

const std::vector<int>& CspInstance::ConstraintsOn(int v) const {
  CSPDB_CHECK(v >= 0 && v < num_variables_);
  return constraints_on_[v];
}

bool CspInstance::IsSolution(const std::vector<int>& assignment) const {
  CSPDB_CHECK(static_cast<int>(assignment.size()) == num_variables_);
  for (int d : assignment) {
    if (d < 0 || d >= num_values_) return false;
  }
  return IsPartialSolution(assignment);
}

bool CspInstance::IsPartialSolution(const std::vector<int>& partial) const {
  CSPDB_CHECK(static_cast<int>(partial.size()) == num_variables_);
  Tuple image;
  for (const Constraint& c : constraints_) {
    bool all_assigned = true;
    image.clear();
    for (int v : c.scope) {
      if (partial[v] == kUnassigned) {
        all_assigned = false;
        break;
      }
      image.push_back(partial[v]);
    }
    if (all_assigned && c.allowed_set.count(image) == 0) return false;
  }
  return true;
}

CspInstance CspInstance::NormalizedDistinctScopes() const {
  CspInstance out(num_variables_, num_values_);
  for (const Constraint& c : constraints_) {
    // Positions of the first occurrence of each variable.
    std::vector<int> keep_pos;
    std::vector<int> new_scope;
    for (int i = 0; i < c.arity(); ++i) {
      bool first = true;
      for (int j = 0; j < i; ++j) {
        if (c.scope[j] == c.scope[i]) {
          first = false;
          break;
        }
      }
      if (first) {
        keep_pos.push_back(i);
        new_scope.push_back(c.scope[i]);
      }
    }
    std::vector<Tuple> new_allowed;
    for (const Tuple& t : c.allowed) {
      // Delete tuples whose repeated positions disagree.
      bool agree = true;
      for (int i = 0; i < c.arity() && agree; ++i) {
        for (int j = 0; j < i; ++j) {
          if (c.scope[j] == c.scope[i] && t[j] != t[i]) {
            agree = false;
            break;
          }
        }
      }
      if (!agree) continue;
      Tuple projected;
      projected.reserve(keep_pos.size());
      for (int p : keep_pos) projected.push_back(t[p]);
      new_allowed.push_back(std::move(projected));
    }
    out.AddConstraint(std::move(new_scope), std::move(new_allowed));
  }
  return out;
}

void CspInstance::SetVariableName(int v, std::string name) {
  CSPDB_CHECK(v >= 0 && v < num_variables_);
  if (variable_names_.empty()) variable_names_.resize(num_variables_);
  variable_names_[v] = std::move(name);
}

std::string CspInstance::VariableName(int v) const {
  CSPDB_CHECK(v >= 0 && v < num_variables_);
  if (v < static_cast<int>(variable_names_.size()) &&
      !variable_names_[v].empty()) {
    return variable_names_[v];
  }
  return "x" + std::to_string(v);
}

void CspInstance::SetValueName(int d, std::string name) {
  CSPDB_CHECK(d >= 0 && d < num_values_);
  if (value_names_.empty()) value_names_.resize(num_values_);
  value_names_[d] = std::move(name);
}

std::string CspInstance::ValueName(int d) const {
  CSPDB_CHECK(d >= 0 && d < num_values_);
  if (d < static_cast<int>(value_names_.size()) &&
      !value_names_[d].empty()) {
    return value_names_[d];
  }
  return "v" + std::to_string(d);
}

std::string CspInstance::DebugString() const {
  std::string out = "CspInstance(|V|=" + std::to_string(num_variables_) +
                    ", |D|=" + std::to_string(num_values_) + ")\n";
  for (const Constraint& c : constraints_) {
    out += "  (";
    for (int i = 0; i < c.arity(); ++i) {
      if (i > 0) out += ",";
      out += VariableName(c.scope[i]);
    }
    out += ") in {";
    bool first = true;
    for (const Tuple& t : c.allowed) {
      if (!first) out += ", ";
      first = false;
      out += "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ",";
        out += ValueName(t[i]);
      }
      out += ")";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace cspdb
