#include "datalog/eval.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/validate_datalog.h"
#include "db/body_join.h"
#include "db/relation.h"
#include "obs/obs.h"
#include "util/check.h"

namespace cspdb {
namespace {

// The facts of one IDB predicate during an evaluation, in the order they
// were admitted, in one relation. A round's boundaries are row offsets:
// rows [0, end) are the facts earlier rounds admitted, rows [begin, end)
// the last round's (the delta), and rows past `end` the facts this round
// derived. The relation's dedup probe is the one check a derived fact
// makes against every fact known so far.
struct IdbFacts {
  explicit IdbFacts(std::vector<int> columns) : rows(std::move(columns)) {}

  DbRelation rows;
  std::size_t begin = 0;
  std::size_t end = 0;
};

// One rule, with an optional lead body atom, and the facts its head
// predicate derives into. The join is planned on the first run that can
// match: a rule with an atom over no facts (every IDB atom in round 0,
// or a predicate that never derives anything) is never planned.
struct Firing {
  const DatalogRule* rule;
  int lead;
  std::vector<BodyAtom> atoms;
  IdbFacts* head;
  JoinIndexes* indexes;
  std::optional<BodyJoin> join;

  // Runs the rule against the facts admitted before this round; returns
  // the number of rule firings (satisfying bindings). A fired `cancel`
  // stops the join (see BodyJoin::Run).
  int64_t Run(const exec::CancellationToken* cancel = nullptr) {
    for (const BodyAtom& atom : atoms) {
      if (atom.First() >= atom.Last()) return 0;
    }
    if (!join.has_value()) {
      join.emplace(atoms, rule->head.args, rule->num_variables, lead, indexes);
    }
    return join->Run(&head->rows, cancel);
  }
};

// The relations of one evaluation: flat copies of the EDB relations the
// program reads, made once, and the facts of every IDB predicate. An IDB
// atom reads rows [0, end), so a round sees only what earlier rounds
// admitted, never a fact the same round derived.
class Relations {
 public:
  Relations(const DatalogProgram& program, const Structure& edb) {
    for (const std::string& pred : program.predicates()) {
      const int arity = program.ArityOf(pred);
      if (program.IsIdb(pred)) {
        std::vector<int> columns(static_cast<std::size_t>(arity));
        for (int c = 0; c < arity; ++c) columns[c] = c;
        idb_.try_emplace(pred, std::move(columns));
        continue;
      }
      const int rel = edb.vocabulary().IndexOf(pred);
      if (rel < 0) continue;  // a predicate the EDB lacks holds no facts
      CSPDB_CHECK_MSG(edb.vocabulary().symbol(rel).arity == arity,
                      "EDB arity mismatch for " + pred);
      edb_.emplace(pred, FlatRelation(edb, rel));
    }
  }

  // `rule` over this evaluation's relations, with body atom `lead` (if
  // >= 0) first and ranging over its predicate's delta.
  Firing MakeFiring(const DatalogRule& rule, int lead) {
    std::vector<BodyAtom> atoms;
    atoms.reserve(rule.body.size());
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const DatalogAtom& atom = rule.body[i];
      if (auto it = idb_.find(atom.predicate); it != idb_.end()) {
        // The lead atom reads the delta, every other IDB atom [0, end).
        IdbFacts& facts = it->second;
        const std::size_t* begin =
            static_cast<int>(i) == lead ? &facts.begin : nullptr;
        atoms.push_back({&atom.args, &facts.rows, begin, &facts.end});
      } else if (auto e = edb_.find(atom.predicate); e != edb_.end()) {
        atoms.push_back({&atom.args, &e->second});
      } else {
        atoms.push_back({&atom.args, nullptr});
      }
    }
    return {&rule, lead, std::move(atoms), &idb_.at(rule.head.predicate),
            &indexes_, std::nullopt};
  }

  // Admits every predicate's facts derived this round: they become its
  // delta. Returns the number admitted.
  int64_t Merge() {
    int64_t admitted = 0;
    for (auto& [pred, facts] : idb_) {
      facts.begin = facts.end;
      facts.end = facts.rows.size();
      admitted += static_cast<int64_t>(facts.end - facts.begin);
    }
    return admitted;
  }

  // Moves out the facts of every IDB predicate. Ends the evaluation: the
  // plans' relations are gone.
  std::unordered_map<std::string, DbRelation> TakeFacts() {
    std::unordered_map<std::string, DbRelation> out;
    out.reserve(idb_.size());
    for (auto& [pred, facts] : idb_) {
      out.emplace(pred, std::move(facts.rows));
    }
    return out;
  }

 private:
  // Node-based maps: plans keep pointers to the relations.
  std::unordered_map<std::string, DbRelation> edb_;
  std::unordered_map<std::string, IdbFacts> idb_;
  JoinIndexes indexes_;
};

}  // namespace

const DbRelation* DatalogFixpoint::Rows(const std::string& predicate) const {
  auto it = idb.find(predicate);
  return it == idb.end() ? nullptr : &it->second;
}

bool DatalogFixpoint::Complete() const {
  return !stopped && !delta_sizes.empty() && delta_sizes.back() == 0;
}

int64_t DatalogFixpoint::TotalFacts() const {
  int64_t total = 0;
  for (const auto& [pred, rows] : idb) {
    total += static_cast<int64_t>(rows.size());
  }
  return total;
}

DatalogResult DatalogFixpoint::ToResult() const {
  DatalogResult result;
  for (const auto& [pred, rows] : idb) {
    if (rows.empty()) continue;
    TupleSet& set = result.idb[pred];
    set.reserve(rows.size());
    for (auto row : rows.rows()) set.insert(row.ToTuple());
  }
  result.iterations = iterations;
  result.derivations = derivations;
  result.delta_sizes = delta_sizes;
  return result;
}

const TupleSet& DatalogResult::Facts(const std::string& predicate) const {
  static const TupleSet* empty = new TupleSet();
  auto it = idb.find(predicate);
  return it == idb.end() ? *empty : it->second;
}

bool DatalogResult::GoalDerived(const DatalogProgram& program) const {
  CSPDB_CHECK_MSG(!program.goal().empty(), "program has no goal");
  return !Facts(program.goal()).empty();
}

DatalogResult EvaluateNaive(const DatalogProgram& program,
                            const Structure& edb) {
  CSPDB_TIMER_SCOPE("datalog.naive");
  Relations relations(program, edb);
  std::vector<Firing> firings;
  for (const DatalogRule& rule : program.rules()) {
    firings.push_back(relations.MakeFiring(rule, -1));
  }
  DatalogFixpoint fixpoint;
  int64_t admitted = 0;
  do {
    ++fixpoint.iterations;
    CSPDB_COUNT("datalog.iterations");
    for (Firing& firing : firings) fixpoint.derivations += firing.Run();
    admitted = relations.Merge();
    fixpoint.delta_sizes.push_back(admitted);
    CSPDB_COUNT_N("datalog.delta_facts", admitted);
    CSPDB_TRACE_COUNTER("datalog.delta", admitted);
  } while (admitted > 0);
  CSPDB_COUNT_N("datalog.derivations", fixpoint.derivations);
  fixpoint.idb = relations.TakeFacts();
  DatalogResult result = fixpoint.ToResult();
  CSPDB_AUDIT(AuditOrDie("naive Datalog fixpoint",
                         ValidateDatalogResult(program, edb, result)));
  return result;
}

DatalogResult EvaluateSemiNaive(const DatalogProgram& program,
                                const Structure& edb) {
  return SemiNaiveFixpoint(program, edb).ToResult();
}

DatalogFixpoint SemiNaiveFixpoint(const DatalogProgram& program,
                                  const Structure& edb,
                                  const exec::CancellationToken* cancel) {
  CSPDB_TIMER_SCOPE("datalog.semi_naive");
  Relations relations(program, edb);
  // Round 0 fires every rule on the empty IDB. Each later round fires
  // every rule once per IDB body atom, that atom ranging over the delta
  // and every other atom over the facts earlier rounds admitted.
  std::vector<Firing> first_round;
  std::vector<Firing> delta_rounds;
  for (const DatalogRule& rule : program.rules()) {
    first_round.push_back(relations.MakeFiring(rule, -1));
    for (std::size_t p = 0; p < rule.body.size(); ++p) {
      if (program.IsIdb(rule.body[p].predicate)) {
        delta_rounds.push_back(relations.MakeFiring(rule, static_cast<int>(p)));
      }
    }
  }
  DatalogFixpoint fixpoint;
  std::vector<Firing>* round = &first_round;
  // Polled before each round and after the last one: a round the token
  // cut short is no fixpoint, even if it admitted nothing. Its facts are
  // still admitted, since each follows from facts admitted before it.
  auto cancelled = [&] {
    fixpoint.stopped = cancel != nullptr && cancel->cancelled();
    return fixpoint.stopped;
  };
  while (!cancelled()) {
    ++fixpoint.iterations;
    CSPDB_COUNT("datalog.iterations");
    for (Firing& firing : *round) fixpoint.derivations += firing.Run(cancel);
    const int64_t admitted = relations.Merge();
    fixpoint.delta_sizes.push_back(admitted);
    CSPDB_COUNT_N("datalog.delta_facts", admitted);
    CSPDB_TRACE_COUNTER("datalog.delta", admitted);
    if (admitted == 0) {
      cancelled();
      break;
    }
    round = &delta_rounds;
  }
  CSPDB_COUNT_N("datalog.derivations", fixpoint.derivations);
  fixpoint.idb = relations.TakeFacts();
  // Validated through the view, so the served path, which reads the flat
  // relations, is audited too. A stopped evaluation is no fixpoint.
  if (fixpoint.Complete()) {
    CSPDB_AUDIT(AuditOrDie("semi-naive Datalog fixpoint",
                           ValidateDatalogResult(program, edb,
                                                 fixpoint.ToResult())));
  }
  return fixpoint;
}

}  // namespace cspdb
