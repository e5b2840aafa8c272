#include "csp/instance.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {

namespace {

// Lexicographic order of two rows of `arity` values.
int CompareRows(const int* a, const int* b, int arity) {
  for (int k = 0; k < arity; ++k) {
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  }
  return 0;
}

std::size_t HashScope(const std::vector<int>& scope) {
  uint64_t h = scope.size();
  for (int v : scope) {
    h = (h ^ static_cast<uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

RowList::operator std::vector<Tuple>() const {
  std::vector<Tuple> out;
  out.reserve(size_);
  for (DbRelation::RowRef t : *this) out.push_back(t.ToTuple());
  return out;
}

SortedRows::SortedRows(int arity, std::vector<int>* rows) : arity_(arity) {
  CSPDB_CHECK(arity >= 1 && rows->size() % arity == 0);
  std::vector<int>& in = *rows;
  const std::size_t n = in.size() / arity;
  auto at = [&](std::size_t i) { return in.data() + i * arity; };
  std::size_t ascending = 1;
  while (ascending < n &&
         CompareRows(at(ascending - 1), at(ascending), arity) < 0) {
    ++ascending;
  }
  if (ascending >= n) {
    rows_ = in;
    size_ = n;
    return;
  }
  // Equal rows sort by insertion index, so the first of each run of
  // equal rows is its first occurrence.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const int c = CompareRows(at(a), at(b), arity);
    return c != 0 ? c < 0 : a < b;
  });
  rows_.reserve(in.size());
  std::vector<char> repeat;  // allocated at the first repeated row
  for (std::size_t i = 0; i < n; ++i) {
    const int* row = at(order[i]);
    if (i > 0 && std::equal(row, row + arity, at(order[i - 1]))) {
      if (repeat.empty()) repeat.assign(n, 0);
      repeat[order[i]] = 1;
      continue;
    }
    rows_.insert(rows_.end(), row, row + arity);
    ++size_;
  }
  if (repeat.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (repeat[i]) continue;
    if (kept != i) std::copy_n(at(i), arity, at(kept));
    ++kept;
  }
  in.resize(kept * arity);
}

CspInstance::CspInstance(int num_variables, int num_values)
    : num_variables_(num_variables), num_values_(num_values) {
  CSPDB_CHECK(num_variables >= 0);
  CSPDB_CHECK(num_values >= 0);
  constraints_on_.resize(num_variables);
}

int CspInstance::AddConstraint(std::vector<int> scope,
                               const std::vector<Tuple>& allowed) {
  std::vector<int> rows;
  rows.reserve(allowed.size() * scope.size());
  for (const Tuple& t : allowed) {
    CSPDB_CHECK_MSG(t.size() == scope.size(), "tuple arity mismatch");
    rows.insert(rows.end(), t.begin(), t.end());
  }
  return AddConstraintRows(std::move(scope), std::move(rows));
}

int CspInstance::AddConstraintRows(std::vector<int> scope,
                                   std::vector<int> rows) {
  CSPDB_CHECK_MSG(!scope.empty(), "constraint scope must be nonempty");
  for (int v : scope) {
    CSPDB_CHECK_MSG(v >= 0 && v < num_variables_, "variable out of range");
  }
  const int arity = static_cast<int>(scope.size());
  CSPDB_CHECK_MSG(rows.size() % scope.size() == 0, "tuple arity mismatch");
  for (int d : rows) {
    CSPDB_CHECK_MSG(d >= 0 && d < num_values_, "value out of range");
  }
  SortedRows sorted(arity, &rows);

  const int existing = FindScope(scope);
  if (existing >= 0) {
    // Consolidate: intersect with the existing relation (Section 2),
    // keeping its insertion order.
    RowList& list = constraints_[existing].allowed;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < list.size_; ++i) {
      const int* row = list.data_.data() + i * arity;
      if (!sorted.contains(row)) continue;
      if (kept != i) {
        std::copy_n(row, arity, list.data_.data() + kept * arity);
      }
      ++kept;
    }
    list.size_ = kept;
    list.data_.resize(kept * arity);
    constraints_[existing].allowed_set = SortedRows(arity, &list.data_);
    return existing;
  }

  const int id = static_cast<int>(constraints_.size());
  Constraint c;
  c.scope = std::move(scope);
  c.distinct_slots.reserve(arity);
  for (int q = 0; q < arity; ++q) {
    bool first = true;
    for (int p = 0; p < q; ++p) {
      if (c.scope[p] == c.scope[q]) {
        first = false;
        break;
      }
    }
    if (first) c.distinct_slots.push_back(q);
  }
  c.allowed.arity_ = arity;
  c.allowed.size_ = sorted.size();
  c.allowed.data_ = std::move(rows);
  c.allowed_set = std::move(sorted);
  // Register on each distinct variable once.
  for (int q : c.distinct_slots) constraints_on_[c.scope[q]].push_back(id);
  constraints_.push_back(std::move(c));
  IndexScope(id);
  return id;
}

int CspInstance::FindScope(const std::vector<int>& scope) const {
  if (scope_slots_.empty()) return -1;
  const std::size_t mask = scope_slots_.size() - 1;
  for (std::size_t i = HashScope(scope) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = scope_slots_[i];
    if (slot == 0) return -1;
    const int id = static_cast<int>(slot) - 1;
    if (constraints_[id].scope == scope) return id;
  }
}

void CspInstance::IndexScope(int id) {
  auto insert = [this](int c) {
    const std::size_t mask = scope_slots_.size() - 1;
    std::size_t i = HashScope(constraints_[c].scope) & mask;
    while (scope_slots_[i] != 0) i = (i + 1) & mask;
    scope_slots_[i] = static_cast<uint32_t>(c) + 1;
  };
  if (2 * constraints_.size() <= scope_slots_.size()) {
    insert(id);
    return;
  }
  scope_slots_.assign(
      std::bit_ceil(std::max<std::size_t>(16, 4 * constraints_.size())), 0);
  for (int c = 0; c <= id; ++c) insert(c);
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
    std::vector<int> new_rows;
    for (DbRelation::RowRef t : c.allowed) {
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
      for (int p : keep_pos) new_rows.push_back(t[p]);
    }
    out.AddConstraintRows(std::move(new_scope), std::move(new_rows));
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
  std::string name = "x";
  name += std::to_string(v);
  return name;
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
  std::string name = "v";
  name += std::to_string(d);
  return name;
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
    for (DbRelation::RowRef t : c.allowed) {
      if (!first) out += ", ";
      first = false;
      out += "(";
      for (int i = 0; i < t.size(); ++i) {
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
