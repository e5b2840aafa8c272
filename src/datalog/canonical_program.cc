#include "datalog/canonical_program.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/validate_datalog.h"
#include "datalog/eval.h"
#include "util/check.h"

namespace cspdb {
namespace {

constexpr char kAdom[] = "adom";
constexpr char kGoal[] = "__goal";

std::string LossPredicate(const Tuple& bs) {
  std::string name = "L[";
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (i > 0) name += ",";
    name += std::to_string(bs[i]);
  }
  name += "]";
  return name;
}

// All tuples over [0, m) of length len, in lexicographic order.
std::vector<Tuple> AllTuples(int m, int len) {
  std::vector<Tuple> out;
  Tuple current(len, 0);
  if (len == 0) {
    out.push_back(current);
    return out;
  }
  if (m == 0) return out;
  while (true) {
    out.push_back(current);
    int pos = len - 1;
    while (pos >= 0 && ++current[pos] == m) current[pos--] = 0;
    if (pos < 0) break;
  }
  return out;
}

// All subsets of {0, ..., n-1} with size <= max_size.
std::vector<std::vector<int>> Subsets(int n, int max_size) {
  std::vector<std::vector<int>> out;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<int> s;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j)) s.push_back(j);
    }
    if (static_cast<int>(s.size()) <= max_size) out.push_back(std::move(s));
  }
  return out;
}

// One witness conjunct: an atom over variables {0..i-1} + pivot i.
struct Witness {
  DatalogAtom atom;
};

// Helper accumulating a rule body without duplicate atoms.
class BodyBuilder {
 public:
  void Add(const DatalogAtom& atom) {
    std::string key = atom.predicate;
    for (int v : atom.args) {
      key += ",";
      key += std::to_string(v);
    }
    if (seen_.insert(key).second) body_.push_back(atom);
  }

  std::vector<DatalogAtom> Take() { return std::move(body_); }

 private:
  std::set<std::string> seen_;
  std::vector<DatalogAtom> body_;
};

class ProgramBuilder {
 public:
  ProgramBuilder(const Structure& b, int k) : b_(b), k_(k) {}

  DatalogProgram Build() {
    AddAdomRules();
    AddWeakenRules();
    AddExtendRules();
    if (!goal_present_) {
      // No position is ever losing; keep the goal predicate defined with
      // an unsatisfiable rule (the EDB predicate __never never holds).
      program_.AddRule({{kGoal, {}}, {{"__never", {0}}}, 1});
    }
    program_.SetGoal(kGoal);
    return std::move(program_);
  }

 private:
  void AddRuleDeduped(DatalogRule rule) {
    if (rule_strings_.insert(rule.ToString()).second) {
      program_.AddRule(std::move(rule));
    }
  }

  void AddAdomRules() {
    const Vocabulary& voc = b_.vocabulary();
    for (int r = 0; r < voc.size(); ++r) {
      int arity = voc.symbol(r).arity;
      CSPDB_CHECK_MSG(arity <= k_, "vocabulary must be k-ary");
      DatalogAtom body_atom{voc.symbol(r).name, {}};
      for (int j = 0; j < arity; ++j) body_atom.args.push_back(j);
      for (int j = 0; j < arity; ++j) {
        AddRuleDeduped({{kAdom, {j}}, {body_atom}, arity});
      }
    }
  }

  void AddWeakenRules() {
    for (int i = 2; i <= k_ - 1; ++i) {
      for (const Tuple& bs : AllTuples(b_.domain_size(), i)) {
        for (const std::vector<int>& kept : Subsets(i, i - 1)) {
          if (kept.empty()) continue;
          Tuple sub_bs;
          DatalogAtom sub_atom{"", {}};
          for (int j : kept) {
            sub_bs.push_back(bs[j]);
            sub_atom.args.push_back(j);
          }
          sub_atom.predicate = LossPredicate(sub_bs);
          BodyBuilder body;
          body.Add(sub_atom);
          for (int j = 0; j < i; ++j) {
            bool in_kept = false;
            for (int x : kept) {
              if (x == j) {
                in_kept = true;
                break;
              }
            }
            if (!in_kept) body.Add({kAdom, {j}});
          }
          DatalogAtom head{LossPredicate(bs), {}};
          for (int j = 0; j < i; ++j) head.args.push_back(j);
          AddRuleDeduped({head, body.Take(), i});
        }
      }
    }
  }

  // Witness options for Duplicator reply `b` at position (x0..x_{i-1} ->
  // bs) with pivot variable i.
  std::vector<Witness> WitnessOptions(const Tuple& bs, int b) const {
    int i = static_cast<int>(bs.size());
    std::vector<Witness> options;
    const Vocabulary& voc = b_.vocabulary();
    // (a) EDB atoms over {x0..x_{i-1}, y} containing y whose image under
    // (bs, b) is not a tuple of B.
    for (int r = 0; r < voc.size(); ++r) {
      int arity = voc.symbol(r).arity;
      for (const Tuple& pattern : AllTuples(i + 1, arity)) {
        bool has_pivot = false;
        Tuple image(pattern.size());
        for (std::size_t j = 0; j < pattern.size(); ++j) {
          if (pattern[j] == i) {
            has_pivot = true;
            image[j] = b;
          } else {
            image[j] = bs[pattern[j]];
          }
        }
        if (!has_pivot) continue;
        if (!b_.HasTuple(r, image)) {
          options.push_back(
              {{voc.symbol(r).name,
                std::vector<int>(pattern.begin(), pattern.end())}});
        }
      }
    }
    // (b) Recursion into a losing sub-position containing the pivot.
    for (const std::vector<int>& kept : Subsets(i, k_ - 2)) {
      Tuple sub_bs;
      DatalogAtom atom{"", {}};
      for (int j : kept) {
        sub_bs.push_back(bs[j]);
        atom.args.push_back(j);
      }
      sub_bs.push_back(b);
      atom.args.push_back(i);  // the pivot
      atom.predicate = LossPredicate(sub_bs);
      options.push_back({atom});
    }
    return options;
  }

  void AddExtendRules() {
    int m = b_.domain_size();
    for (int i = 0; i <= k_ - 1; ++i) {
      for (const Tuple& bs : AllTuples(m, i)) {
        // Witness options per Duplicator reply.
        std::vector<std::vector<Witness>> per_reply;
        bool feasible = true;
        for (int b = 0; b < m; ++b) {
          per_reply.push_back(WitnessOptions(bs, b));
          if (per_reply.back().empty()) {
            feasible = false;
            break;
          }
        }
        if (!feasible) continue;
        // Cartesian product of choices, one rule per combination.
        std::vector<int> choice(per_reply.size(), 0);
        while (true) {
          BodyBuilder body;
          for (std::size_t b = 0; b < per_reply.size(); ++b) {
            body.Add(per_reply[b][choice[b]].atom);
          }
          std::vector<DatalogAtom> atoms = body.Take();
          // adom padding for any head variable (or the pivot) missing.
          std::set<int> covered;
          for (const DatalogAtom& atom : atoms) {
            covered.insert(atom.args.begin(), atom.args.end());
          }
          BodyBuilder final_body;
          for (const DatalogAtom& atom : atoms) final_body.Add(atom);
          for (int j = 0; j <= i; ++j) {
            if (covered.count(j) == 0) final_body.Add({kAdom, {j}});
          }
          DatalogAtom head{i == 0 ? kGoal : LossPredicate(bs), {}};
          for (int j = 0; j < i; ++j) head.args.push_back(j);
          if (i == 0) goal_present_ = true;
          AddRuleDeduped({head, final_body.Take(), i + 1});
          // Advance the product counter.
          std::size_t pos = 0;
          while (pos < choice.size()) {
            if (++choice[pos] < static_cast<int>(per_reply[pos].size())) {
              break;
            }
            choice[pos] = 0;
            ++pos;
          }
          if (pos == choice.size()) break;
          if (per_reply.empty()) break;
        }
        if (per_reply.empty()) {
          // No Duplicator replies exist (B empty) — excluded by Build's
          // precondition; defensive only.
          continue;
        }
      }
    }
  }

  const Structure& b_;
  int k_;
  DatalogProgram program_;
  std::set<std::string> rule_strings_;
  bool goal_present_ = false;
};

}  // namespace

DatalogProgram CanonicalKDatalogProgram(const Structure& b, int k) {
  CSPDB_CHECK(k >= 1);
  CSPDB_CHECK_MSG(b.domain_size() > 0,
                  "empty templates are handled by SpoilerWinsViaDatalog");
  DatalogProgram program = ProgramBuilder(b, k).Build();
  CSPDB_AUDIT(AuditOrDie("canonical k-Datalog program",
                         ValidateDatalogProgram(program)));
  return program;
}

bool SpoilerWinsViaDatalog(const Structure& a, const Structure& b, int k) {
  CSPDB_CHECK(a.vocabulary() == b.vocabulary());
  if (b.domain_size() == 0) {
    // The Spoiler wins by placing any pebble; the Duplicator has no reply.
    return a.domain_size() > 0;
  }
  DatalogProgram program = CanonicalKDatalogProgram(b, k);
  DatalogResult result = EvaluateSemiNaive(program, a);
  return result.GoalDerived(program);
}

}  // namespace cspdb
