#include "datalog/program.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/check.h"

namespace cspdb {
namespace {

int DistinctVars(const std::vector<int>& vars) {
  std::set<int> s(vars.begin(), vars.end());
  return static_cast<int>(s.size());
}

std::string AtomToString(const DatalogAtom& atom) {
  std::string out = atom.predicate;
  out += "(";
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ",";
    out += "x";
    out += std::to_string(atom.args[i]);
  }
  out += ")";
  return out;
}

}  // namespace

int DatalogRule::BodyWidth() const {
  std::set<int> vars;
  for (const DatalogAtom& atom : body) {
    vars.insert(atom.args.begin(), atom.args.end());
  }
  return static_cast<int>(vars.size());
}

int DatalogRule::HeadWidth() const { return DistinctVars(head.args); }

std::string DatalogRule::ToString() const {
  std::string out = AtomToString(head) + " :- ";
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomToString(body[i]);
  }
  return out;
}

void DatalogProgram::NoteAtom(const DatalogAtom& atom) {
  auto it = arity_.find(atom.predicate);
  if (it == arity_.end()) {
    arity_.emplace(atom.predicate, static_cast<int>(atom.args.size()));
    is_idb_.emplace(atom.predicate, false);
    predicates_.push_back(atom.predicate);
  } else {
    CSPDB_CHECK_MSG(it->second == static_cast<int>(atom.args.size()),
                    "inconsistent arity for predicate " + atom.predicate);
  }
}

void DatalogProgram::AddRule(DatalogRule rule) {
  // Range-check variables and enforce safety.
  std::set<int> body_vars;
  for (const DatalogAtom& atom : rule.body) {
    for (int v : atom.args) {
      CSPDB_CHECK(v >= 0 && v < rule.num_variables);
      body_vars.insert(v);
    }
  }
  for (int v : rule.head.args) {
    CSPDB_CHECK(v >= 0 && v < rule.num_variables);
    CSPDB_CHECK_MSG(body_vars.count(v) > 0,
                    "unsafe rule: head variable not in body: " +
                        rule.ToString());
  }
  NoteAtom(rule.head);
  for (const DatalogAtom& atom : rule.body) NoteAtom(atom);
  is_idb_[rule.head.predicate] = true;
  rules_.push_back(std::move(rule));
}

void DatalogProgram::SetGoal(const std::string& predicate) {
  CSPDB_CHECK_MSG(IsIdb(predicate), "goal must be an IDB predicate");
  goal_ = predicate;
}

bool DatalogProgram::IsIdb(const std::string& predicate) const {
  auto it = is_idb_.find(predicate);
  return it != is_idb_.end() && it->second;
}

int DatalogProgram::ArityOf(const std::string& predicate) const {
  auto it = arity_.find(predicate);
  return it == arity_.end() ? -1 : it->second;
}

bool DatalogProgram::IsKDatalog(int k) const {
  for (const DatalogRule& rule : rules_) {
    if (rule.BodyWidth() > k || rule.HeadWidth() > k) return false;
  }
  return true;
}

int DatalogProgram::Width() const {
  int w = 0;
  for (const DatalogRule& rule : rules_) {
    w = std::max({w, rule.BodyWidth(), rule.HeadWidth()});
  }
  return w;
}

std::string DatalogProgram::ToString() const {
  std::string out;
  for (const DatalogRule& rule : rules_) {
    out += rule.ToString() + "\n";
  }
  if (!goal_.empty()) out += "goal: " + goal_ + "\n";
  return out;
}

DatalogProgram NonTwoColorabilityProgram() {
  DatalogProgram program;
  // P(X,Y) :- E(X,Y)      with X=0, Y=1
  program.AddRule({{"P", {0, 1}}, {{"E", {0, 1}}}, 2});
  // P(X,Y) :- P(X,Z), E(Z,W), E(W,Y)   with X=0, Y=1, Z=2, W=3
  program.AddRule(
      {{"P", {0, 1}}, {{"P", {0, 2}}, {"E", {2, 3}}, {"E", {3, 1}}}, 4});
  // Q :- P(X,X)           with X=0
  program.AddRule({{"Q", {}}, {{"P", {0, 0}}}, 1});
  program.SetGoal("Q");
  return program;
}

}  // namespace cspdb
