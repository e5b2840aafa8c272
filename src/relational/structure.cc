#include "relational/structure.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace cspdb {

Structure::Structure(Vocabulary vocabulary, int domain_size)
    : vocabulary_(std::move(vocabulary)), domain_size_(domain_size) {
  CSPDB_CHECK(domain_size >= 0);
  relations_.resize(vocabulary_.size());
  relation_sets_.resize(vocabulary_.size());
}

void Structure::AddTuple(int rel, Tuple t) {
  CSPDB_CHECK(rel >= 0 && rel < vocabulary_.size());
  CSPDB_CHECK_MSG(
      static_cast<int>(t.size()) == vocabulary_.symbol(rel).arity,
      "tuple arity mismatch for " + vocabulary_.symbol(rel).name);
  for (int e : t) {
    CSPDB_CHECK_MSG(e >= 0 && e < domain_size_, "element out of range");
  }
  if (relation_sets_[rel].insert(t).second) {
    relations_[rel].push_back(std::move(t));
  }
}

void Structure::AddTuple(const std::string& rel_name, Tuple t) {
  int rel = vocabulary_.IndexOf(rel_name);
  CSPDB_CHECK_MSG(rel >= 0, "unknown relation " + rel_name);
  AddTuple(rel, std::move(t));
}

bool Structure::HasTuple(int rel, const Tuple& t) const {
  CSPDB_CHECK(rel >= 0 && rel < vocabulary_.size());
  return relation_sets_[rel].count(t) > 0;
}

const std::vector<Tuple>& Structure::tuples(int rel) const {
  CSPDB_CHECK(rel >= 0 && rel < vocabulary_.size());
  return relations_[rel];
}

int Structure::TotalTuples() const {
  int total = 0;
  for (const auto& r : relations_) total += static_cast<int>(r.size());
  return total;
}

void Structure::SetElementName(int e, std::string name) {
  CSPDB_CHECK(e >= 0 && e < domain_size_);
  if (element_names_.empty()) element_names_.resize(domain_size_);
  element_names_[e] = std::move(name);
}

std::string Structure::ElementName(int e) const {
  CSPDB_CHECK(e >= 0 && e < domain_size_);
  if (e < static_cast<int>(element_names_.size()) &&
      !element_names_[e].empty()) {
    return element_names_[e];
  }
  std::string name = "e";
  name += std::to_string(e);
  return name;
}

bool Structure::SameTuplesAs(const Structure& other) const {
  if (!(vocabulary_ == other.vocabulary_) ||
      domain_size_ != other.domain_size_) {
    return false;
  }
  for (int r = 0; r < vocabulary_.size(); ++r) {
    if (relation_sets_[r] != other.relation_sets_[r]) return false;
  }
  return true;
}

std::string Structure::DebugString() const {
  std::string out = "Structure(|dom|=" + std::to_string(domain_size_) + ")\n";
  for (int r = 0; r < vocabulary_.size(); ++r) {
    out += "  " + vocabulary_.symbol(r).name + " = {";
    bool first = true;
    for (const Tuple& t : relations_[r]) {
      if (!first) out += ", ";
      first = false;
      out += "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ",";
        out += ElementName(t[i]);
      }
      out += ")";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace cspdb
