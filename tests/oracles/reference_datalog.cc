// Frozen copy of the pre-change datalog/eval.cc evaluator, without its
// metrics and audit hooks. See reference_datalog.h.

#include "oracles/reference_datalog.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {
namespace {

// Mutable fact store for one evaluation.
struct FactStore {
  const DatalogProgram& program;
  const Structure& edb;
  std::unordered_map<std::string, std::vector<Tuple>> idb_vec;
  std::unordered_map<std::string, TupleSet> idb_set;

  explicit FactStore(const DatalogProgram& p, const Structure& e)
      : program(p), edb(e) {}

  const std::vector<Tuple>* Candidates(const std::string& pred) const {
    if (program.IsIdb(pred)) {
      auto it = idb_vec.find(pred);
      return it == idb_vec.end() ? nullptr : &it->second;
    }
    int rel = edb.vocabulary().IndexOf(pred);
    if (rel < 0) return nullptr;
    CSPDB_CHECK_MSG(edb.vocabulary().symbol(rel).arity ==
                        program.ArityOf(pred),
                    "EDB arity mismatch for " + pred);
    return &edb.tuples(rel);
  }

  bool Known(const std::string& pred, const Tuple& fact) const {
    auto it = idb_set.find(pred);
    return it != idb_set.end() && it->second.count(fact) > 0;
  }

  void Add(const std::string& pred, Tuple fact) {
    if (idb_set[pred].insert(fact).second) {
      idb_vec[pred].push_back(std::move(fact));
    }
  }
};

// Matches the body of `rule` against the store; the atom at position
// `delta_pos` (if >= 0) draws candidates from `delta` instead. Calls
// `emit(head_fact)` for every satisfying binding.
//
// Atoms are matched in a bound-first order (sideways information
// passing): the delta atom leads, then greedily the atom sharing the
// most already-bound variables — a static join-order optimization that
// never changes the result set.
class RuleMatcher {
 public:
  RuleMatcher(const DatalogRule& rule, const FactStore& store,
              int delta_pos, const std::vector<Tuple>* delta)
      : rule_(rule), store_(store), delta_pos_(delta_pos), delta_(delta) {
    bindings_.assign(rule.num_variables, kUnassigned);
    // Plan the matching order.
    std::vector<char> placed(rule.body.size(), 0);
    std::vector<char> bound(rule.num_variables, 0);
    auto place = [&](std::size_t i) {
      order_.push_back(static_cast<int>(i));
      placed[i] = 1;
      for (int v : rule.body[i].args) bound[v] = 1;
    };
    if (delta_pos >= 0) place(static_cast<std::size_t>(delta_pos));
    while (order_.size() < rule.body.size()) {
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
      place(static_cast<std::size_t>(best));
    }
  }

  template <typename Emit>
  void Run(Emit&& emit) {
    Recurse(0, emit);
  }

 private:
  template <typename Emit>
  void Recurse(std::size_t order_idx, Emit&& emit) {
    if (order_idx == order_.size()) {
      Tuple head;
      head.reserve(rule_.head.args.size());
      for (int v : rule_.head.args) {
        CSPDB_CHECK(bindings_[v] != kUnassigned);  // safety guarantees this
        head.push_back(bindings_[v]);
      }
      emit(std::move(head));
      return;
    }
    int atom_idx = order_[order_idx];
    const DatalogAtom& atom = rule_.body[atom_idx];
    const std::vector<Tuple>* candidates =
        atom_idx == delta_pos_ ? delta_
                               : store_.Candidates(atom.predicate);
    if (candidates == nullptr) return;
    for (const Tuple& t : *candidates) {
      // Try to unify atom args with t.
      std::vector<int> newly_bound;
      bool ok = true;
      for (std::size_t i = 0; i < atom.args.size(); ++i) {
        int v = atom.args[i];
        if (bindings_[v] == kUnassigned) {
          bindings_[v] = t[i];
          newly_bound.push_back(v);
        } else if (bindings_[v] != t[i]) {
          ok = false;
          break;
        }
      }
      if (ok) Recurse(order_idx + 1, emit);
      for (int v : newly_bound) bindings_[v] = kUnassigned;
    }
  }

  const DatalogRule& rule_;
  const FactStore& store_;
  int delta_pos_;
  const std::vector<Tuple>* delta_;
  std::vector<int> bindings_;
  std::vector<int> order_;
};

}  // namespace

DatalogResult ReferenceEvaluateNaive(const DatalogProgram& program,
                                     const Structure& edb) {
  FactStore store(program, edb);
  DatalogResult result;
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    std::vector<std::pair<std::string, Tuple>> pending;
    for (const DatalogRule& rule : program.rules()) {
      RuleMatcher matcher(rule, store, -1, nullptr);
      matcher.Run([&](Tuple head) {
        ++result.derivations;
        if (!store.Known(rule.head.predicate, head)) {
          pending.push_back({rule.head.predicate, std::move(head)});
        }
      });
    }
    int64_t admitted = 0;
    for (auto& [pred, fact] : pending) {
      if (!store.Known(pred, fact)) {
        store.Add(pred, std::move(fact));
        changed = true;
        ++admitted;
      }
    }
    result.delta_sizes.push_back(admitted);
  }
  result.idb = std::move(store.idb_set);
  return result;
}

DatalogResult ReferenceEvaluateSemiNaive(const DatalogProgram& program,
                                         const Structure& edb) {
  FactStore store(program, edb);
  DatalogResult result;

  // Round 0: all rules against the (empty-IDB) store.
  std::unordered_map<std::string, std::vector<Tuple>> delta;
  ++result.iterations;
  for (const DatalogRule& rule : program.rules()) {
    RuleMatcher matcher(rule, store, -1, nullptr);
    matcher.Run([&](Tuple head) {
      ++result.derivations;
      delta[rule.head.predicate].push_back(std::move(head));
    });
  }

  while (true) {
    // Merge the delta, deduplicating against known facts.
    std::unordered_map<std::string, std::vector<Tuple>> fresh;
    int64_t admitted = 0;
    for (auto& [pred, facts] : delta) {
      for (Tuple& fact : facts) {
        if (!store.Known(pred, fact)) {
          fresh[pred].push_back(fact);
          store.Add(pred, std::move(fact));
          ++admitted;
        }
      }
    }
    result.delta_sizes.push_back(admitted);
    if (fresh.empty()) break;
    ++result.iterations;

    // Fire each rule once per IDB body position, with that position
    // restricted to the fresh facts.
    std::unordered_map<std::string, std::vector<Tuple>> next_delta;
    for (const DatalogRule& rule : program.rules()) {
      for (std::size_t p = 0; p < rule.body.size(); ++p) {
        const std::string& pred = rule.body[p].predicate;
        if (!program.IsIdb(pred)) continue;
        auto it = fresh.find(pred);
        if (it == fresh.end()) continue;
        RuleMatcher matcher(rule, store, static_cast<int>(p), &it->second);
        matcher.Run([&](Tuple head) {
          ++result.derivations;
          if (!store.Known(rule.head.predicate, head)) {
            next_delta[rule.head.predicate].push_back(std::move(head));
          }
        });
      }
    }
    delta = std::move(next_delta);
  }
  result.idb = std::move(store.idb_set);
  return result;
}

}  // namespace cspdb
