#include "analysis/validate_datalog.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/homomorphism.h"

namespace cspdb {
namespace {

// Read-only fact lookup for the closure check: IDB facts from the
// result, EDB facts from the structure. A predicate absent from both is
// an empty relation (matching the evaluator's convention).
class FactView {
 public:
  FactView(const DatalogProgram& program, const Structure& edb,
           const DatalogResult& result)
      : program_(program), edb_(edb), result_(result) {}

  const std::vector<Tuple>& Candidates(const std::string& pred) const {
    auto it = cache_.find(pred);
    if (it != cache_.end()) return it->second;
    std::vector<Tuple> facts;
    if (program_.IsIdb(pred)) {
      const TupleSet& set = result_.Facts(pred);
      facts.assign(set.begin(), set.end());
    } else {
      int rel = edb_.vocabulary().IndexOf(pred);
      if (rel >= 0) facts = edb_.tuples(rel);
    }
    return cache_.emplace(pred, std::move(facts)).first->second;
  }

  bool Has(const std::string& pred, const Tuple& fact) const {
    if (program_.IsIdb(pred)) {
      return result_.Facts(pred).count(fact) > 0;
    }
    int rel = edb_.vocabulary().IndexOf(pred);
    return rel >= 0 && edb_.HasTuple(rel, fact);
  }

 private:
  const DatalogProgram& program_;
  const Structure& edb_;
  const DatalogResult& result_;
  mutable std::unordered_map<std::string, std::vector<Tuple>> cache_;
};

// Enumerates satisfying bindings of the rule body and reports rule
// instantiations whose head fact is missing from the view. Reports at
// most one violation per rule to keep the diagnostics readable.
void CheckRuleClosed(const DatalogRule& rule, int rule_index,
                     const FactView& view, DiagnosticSink* sink) {
  std::vector<int> binding(rule.num_variables, kUnassigned);
  bool reported = false;

  // Bound-first matching order (greedily pick the atom sharing the most
  // already-bound variables), mirroring the evaluator's join-order
  // optimization so auditing a program costs about one naive round.
  std::vector<int> order;
  {
    std::vector<char> placed(rule.body.size(), 0);
    std::vector<char> bound(std::max(rule.num_variables, 0), 0);
    while (order.size() < rule.body.size()) {
      int best = -1;
      int best_bound = -1;
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        if (placed[i]) continue;
        int bound_count = 0;
        for (int v : rule.body[i].args) bound_count += bound[v];
        if (bound_count > best_bound) {
          best = static_cast<int>(i);
          best_bound = bound_count;
        }
      }
      placed[best] = 1;
      for (int v : rule.body[best].args) bound[v] = 1;
      order.push_back(best);
    }
  }

  auto match = [&](auto&& self, std::size_t step) -> void {
    if (reported) return;
    if (step == rule.body.size()) {
      Tuple head_fact;
      head_fact.reserve(rule.head.args.size());
      for (int v : rule.head.args) head_fact.push_back(binding[v]);
      if (!view.Has(rule.head.predicate, head_fact)) {
        sink->Error("rule " + std::to_string(rule_index),
                    "body satisfiable but head fact " + rule.head.predicate +
                        TupleString(head_fact) +
                        " underived (result not closed under the rules)");
        reported = true;
      }
      return;
    }
    const DatalogAtom& atom = rule.body[order[step]];
    for (const Tuple& fact : view.Candidates(atom.predicate)) {
      if (fact.size() != atom.args.size()) continue;
      std::vector<int> touched;
      bool ok = true;
      for (std::size_t q = 0; q < atom.args.size(); ++q) {
        int v = atom.args[q];
        if (binding[v] == kUnassigned) {
          binding[v] = fact[q];
          touched.push_back(v);
        } else if (binding[v] != fact[q]) {
          ok = false;
          break;
        }
      }
      if (ok) self(self, step + 1);
      for (int v : touched) binding[v] = kUnassigned;
      if (reported) return;
    }
  };
  match(match, 0);
}

}  // namespace

Diagnostics ValidateDatalogRule(const DatalogRule& rule) {
  Diagnostics diagnostics;
  DiagnosticSink sink("datalog_rule", &diagnostics);
  std::vector<char> in_body(std::max(rule.num_variables, 0), 0);
  std::vector<char> occurs(std::max(rule.num_variables, 0), 0);

  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    for (int v : rule.body[i].args) {
      if (v < 0 || v >= rule.num_variables) {
        sink.Error("body atom " + std::to_string(i),
                   "variable id " + std::to_string(v) + " outside [0, " +
                       std::to_string(rule.num_variables) + ")");
        continue;
      }
      in_body[v] = 1;
      occurs[v] = 1;
    }
  }
  for (int v : rule.head.args) {
    if (v < 0 || v >= rule.num_variables) {
      sink.Error("head", "variable id " + std::to_string(v) +
                             " outside [0, " +
                             std::to_string(rule.num_variables) + ")");
      continue;
    }
    occurs[v] = 1;
    if (!in_body[v]) {
      sink.Error("head", "variable " + std::to_string(v) +
                             " does not occur in the body (rule unsafe / "
                             "not range-restricted)");
    }
  }
  for (int v = 0; v < rule.num_variables; ++v) {
    if (!occurs[v]) {
      sink.Warning("", "declared variable " + std::to_string(v) +
                           " occurs in no atom");
    }
  }
  return diagnostics;
}

Diagnostics ValidateDatalogProgram(const DatalogProgram& program) {
  Diagnostics diagnostics;
  DiagnosticSink sink("datalog_program", &diagnostics);

  std::unordered_map<std::string, int> arity;
  std::unordered_map<std::string, bool> in_head;
  auto note = [&](const DatalogAtom& atom, const std::string& at) {
    auto [it, fresh] =
        arity.insert({atom.predicate, static_cast<int>(atom.args.size())});
    if (!fresh && it->second != static_cast<int>(atom.args.size())) {
      sink.Error(at, "predicate " + atom.predicate + " used with arity " +
                         std::to_string(atom.args.size()) +
                         " after earlier arity " + std::to_string(it->second));
    }
  };

  for (std::size_t i = 0; i < program.rules().size(); ++i) {
    const DatalogRule& rule = program.rules()[i];
    const std::string at = "rule " + std::to_string(i);
    for (const Diagnostic& d : ValidateDatalogRule(rule)) {
      diagnostics.push_back(Diagnostic{
          d.severity, "datalog_program",
          at + (d.location.empty() ? "" : " " + d.location), d.message});
    }
    note(rule.head, at);
    in_head[rule.head.predicate] = true;
    for (const DatalogAtom& atom : rule.body) note(atom, at);
  }

  for (const auto& [pred, a] : arity) {
    int declared = program.ArityOf(pred);
    if (declared != a) {
      sink.Error("predicate " + pred,
                 "program declares arity " + std::to_string(declared) +
                     " but rules use arity " + std::to_string(a));
    }
    bool is_head = in_head.count(pred) > 0 && in_head[pred];
    if (program.IsIdb(pred) != is_head) {
      sink.Error("predicate " + pred,
                 program.IsIdb(pred)
                     ? "classified IDB but occurs in no rule head"
                     : "occurs in a rule head but not classified IDB");
    }
  }

  if (!program.goal().empty()) {
    if (in_head.count(program.goal()) == 0) {
      sink.Error("goal", "goal predicate " + program.goal() +
                             " occurs in no rule head");
    }
  } else if (!program.rules().empty()) {
    sink.Warning("goal", "program has rules but no designated goal");
  }
  return diagnostics;
}

Diagnostics ValidateDatalogResult(const DatalogProgram& program,
                                  const Structure& edb,
                                  const DatalogResult& result) {
  Diagnostics diagnostics;
  DiagnosticSink sink("datalog_result", &diagnostics);

  for (const auto& [pred, facts] : result.idb) {
    const std::string at = "predicate " + pred;
    if (!program.IsIdb(pred)) {
      sink.Error(at, "result records facts for a non-IDB predicate");
      continue;
    }
    int a = program.ArityOf(pred);
    for (const Tuple& fact : facts) {
      if (static_cast<int>(fact.size()) != a) {
        sink.Error(at, "fact " + TupleString(fact) + " has arity " +
                           std::to_string(fact.size()) + ", expected " +
                           std::to_string(a));
        continue;
      }
      for (int e : fact) {
        if (e < 0 || e >= edb.domain_size()) {
          sink.Error(at, "fact " + TupleString(fact) + " element " +
                             std::to_string(e) +
                             " outside the EDB domain [0, " +
                             std::to_string(edb.domain_size()) + ")");
        }
      }
    }
  }
  if (sink.errors() > 0) return diagnostics;

  // The closure check instantiates rule bodies, so it requires a
  // well-formed program (in-range variable ids in particular).
  if (HasErrors(ValidateDatalogProgram(program))) {
    sink.Error("", "program fails ValidateDatalogProgram; closure under the "
                   "rules not checked");
    return diagnostics;
  }
  FactView view(program, edb, result);
  for (std::size_t i = 0; i < program.rules().size(); ++i) {
    CheckRuleClosed(program.rules()[i], static_cast<int>(i), view, &sink);
  }
  return diagnostics;
}

}  // namespace cspdb
