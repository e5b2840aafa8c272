#include "logic/bounded_formula.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "db/algebra.h"
#include "db/relation.h"
#include "treewidth/gaifman.h"
#include "treewidth/heuristics.h"
#include "util/check.h"

namespace cspdb {

BoundedFormula BoundedFormula::Atom(int relation,
                                    std::vector<int> registers) {
  CSPDB_CHECK(relation >= 0);
  BoundedFormula f;
  f.kind_ = Kind::kAtom;
  f.relation_ = relation;
  f.registers_ = std::move(registers);
  return f;
}

BoundedFormula BoundedFormula::And(std::vector<BoundedFormula> children) {
  if (children.size() == 1) return std::move(children[0]);
  BoundedFormula f;
  f.kind_ = Kind::kAnd;
  f.children_ = std::move(children);
  return f;
}

BoundedFormula BoundedFormula::Exists(int reg, BoundedFormula child) {
  CSPDB_CHECK(reg >= 0);
  BoundedFormula f;
  f.kind_ = Kind::kExists;
  f.registers_ = {reg};
  f.children_.push_back(std::move(child));
  return f;
}

namespace {

void CollectRegisters(const BoundedFormula& f, std::set<int>* regs) {
  switch (f.kind()) {
    case BoundedFormula::Kind::kAtom:
      regs->insert(f.registers().begin(), f.registers().end());
      break;
    case BoundedFormula::Kind::kExists:
      regs->insert(f.quantified_register());
      CollectRegisters(f.children()[0], regs);
      break;
    case BoundedFormula::Kind::kAnd:
      for (const BoundedFormula& c : f.children()) {
        CollectRegisters(c, regs);
      }
      break;
  }
}

}  // namespace

int BoundedFormula::RegisterCount() const {
  std::set<int> regs;
  CollectRegisters(*this, &regs);
  return static_cast<int>(regs.size());
}

std::string BoundedFormula::ToString(const Vocabulary& voc) const {
  switch (kind_) {
    case Kind::kAtom: {
      std::string out = voc.symbol(relation_).name + "(";
      for (std::size_t i = 0; i < registers_.size(); ++i) {
        if (i > 0) out += ",";
        out += "x";
        out += std::to_string(registers_[i]);
      }
      return out + ")";
    }
    case Kind::kExists:
      return "Ex" + std::to_string(registers_[0]) + "." +
             children_[0].ToString(voc);
    case Kind::kAnd: {
      if (children_.empty()) return "true";
      std::string out = "(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += " & ";
        out += children_[i].ToString(voc);
      }
      return out + ")";
    }
  }
  return "true";
}

BoundedFormula FormulaFromTreeDecomposition(const Structure& a,
                                            const TreeDecomposition& td) {
  CSPDB_CHECK_MSG(IsValidForStructure(a, td),
                  "decomposition must cover every tuple of the structure");
  int nodes = static_cast<int>(td.bags.size());
  int width = td.Width();
  int registers = width + 1;

  // Assign each tuple to one bag containing it.
  std::vector<std::vector<std::pair<int, const Tuple*>>> tuples_at(nodes);
  for (int r = 0; r < a.vocabulary().size(); ++r) {
    for (const Tuple& t : a.tuples(r)) {
      int home = -1;
      for (int n = 0; n < nodes && home < 0; ++n) {
        bool inside = true;
        for (int e : t) {
          if (!std::binary_search(td.bags[n].begin(), td.bags[n].end(),
                                  e)) {
            inside = false;
            break;
          }
        }
        if (inside) home = n;
      }
      CSPDB_CHECK(home >= 0);
      tuples_at[home].push_back({r, &t});
    }
  }

  // Rooted forest over decomposition nodes.
  std::vector<std::vector<int>> adj(nodes);
  for (const auto& [x, y] : td.edges) {
    adj[x].push_back(y);
    adj[y].push_back(x);
  }
  std::vector<int> parent(nodes, -2);  // -2 unvisited, -1 root

  // Recursive build: reg_of maps the current bag's vertices to registers.
  std::function<BoundedFormula(int, const std::unordered_map<int, int>&)>
      build = [&](int node,
                  const std::unordered_map<int, int>& reg_of)
      -> BoundedFormula {
    std::vector<BoundedFormula> parts;
    for (const auto& [rel, tuple] : tuples_at[node]) {
      std::vector<int> regs;
      regs.reserve(tuple->size());
      for (int e : *tuple) {
        auto it = reg_of.find(e);
        CSPDB_CHECK(it != reg_of.end());
        regs.push_back(it->second);
      }
      parts.push_back(BoundedFormula::Atom(rel, std::move(regs)));
    }
    for (int child : adj[node]) {
      if (parent[child] != -2) continue;  // the parent itself
      parent[child] = node;
      // Shared vertices keep their registers; new vertices recycle the
      // remaining ones.
      std::unordered_map<int, int> child_regs;
      std::vector<char> used(registers, 0);
      for (int v : td.bags[child]) {
        auto it = reg_of.find(v);
        if (it != reg_of.end()) {
          child_regs.emplace(v, it->second);
          used[it->second] = 1;
        }
      }
      std::vector<int> fresh;
      for (int v : td.bags[child]) {
        if (child_regs.count(v) > 0) continue;
        int reg = 0;
        while (used[reg]) ++reg;
        CSPDB_CHECK(reg < registers);
        used[reg] = 1;
        child_regs.emplace(v, reg);
        fresh.push_back(reg);
      }
      BoundedFormula sub = build(child, child_regs);
      for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
        sub = BoundedFormula::Exists(*it, std::move(sub));
      }
      parts.push_back(std::move(sub));
    }
    return BoundedFormula::And(std::move(parts));
  };

  std::vector<BoundedFormula> roots;
  for (int n = 0; n < nodes; ++n) {
    if (parent[n] != -2) continue;
    parent[n] = -1;
    std::unordered_map<int, int> reg_of;
    for (std::size_t i = 0; i < td.bags[n].size(); ++i) {
      reg_of.emplace(td.bags[n][i], static_cast<int>(i));
    }
    BoundedFormula sub = build(n, reg_of);
    for (int i = static_cast<int>(td.bags[n].size()) - 1; i >= 0; --i) {
      sub = BoundedFormula::Exists(i, std::move(sub));
    }
    roots.push_back(std::move(sub));
  }
  return BoundedFormula::And(std::move(roots));
}

BoundedFormula FormulaForStructure(const Structure& a) {
  Graph gaifman = GaifmanGraph(a);
  TreeDecomposition td = MinFillDecomposition(gaifman);
  return FormulaFromTreeDecomposition(a, td);
}

namespace {

// Bottom-up evaluation: every subformula becomes a relation over its free
// registers (attribute = register id).
DbRelation EvalRelation(const BoundedFormula& f, const Structure& b) {
  switch (f.kind()) {
    case BoundedFormula::Kind::kAtom: {
      // Distinct registers of the atom, with equality selection on
      // repeats.
      std::vector<int> schema;
      std::vector<int> keep_pos;
      const std::vector<int>& regs = f.registers();
      for (std::size_t i = 0; i < regs.size(); ++i) {
        bool first = true;
        for (std::size_t j = 0; j < i; ++j) {
          if (regs[j] == regs[i]) {
            first = false;
            break;
          }
        }
        if (first) {
          schema.push_back(regs[i]);
          keep_pos.push_back(static_cast<int>(i));
        }
      }
      DbRelation out(schema);
      for (const Tuple& t : b.tuples(f.relation())) {
        bool agree = true;
        for (std::size_t i = 0; i < regs.size() && agree; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            if (regs[j] == regs[i] && t[j] != t[i]) {
              agree = false;
              break;
            }
          }
        }
        if (!agree) continue;
        Tuple row;
        row.reserve(keep_pos.size());
        for (int p : keep_pos) row.push_back(t[p]);
        out.AddRow(std::move(row));
      }
      return out;
    }
    case BoundedFormula::Kind::kAnd: {
      if (f.children().empty()) {
        DbRelation truth({});
        truth.AddRow(Tuple{});
        return truth;
      }
      DbRelation acc = EvalRelation(f.children()[0], b);
      for (std::size_t i = 1; i < f.children().size(); ++i) {
        acc = NaturalJoin(acc, EvalRelation(f.children()[i], b));
      }
      return acc;
    }
    case BoundedFormula::Kind::kExists: {
      DbRelation child = EvalRelation(f.children()[0], b);
      int reg = f.quantified_register();
      if (child.AttributePosition(reg) >= 0) {
        std::vector<int> keep;
        for (int a : child.schema()) {
          if (a != reg) keep.push_back(a);
        }
        return Project(child, keep);
      }
      // The register does not occur free below: Ex.phi == phi, provided
      // the domain is nonempty; over an empty domain Ex.phi is false.
      if (b.domain_size() > 0) return child;
      return DbRelation(child.schema());
    }
  }
  DbRelation empty({});
  return empty;
}

}  // namespace

bool EvaluateSentence(const BoundedFormula& formula, const Structure& b) {
  DbRelation result = EvalRelation(formula, b);
  CSPDB_CHECK_MSG(result.schema().empty(),
                  "EvaluateSentence requires a sentence (no free "
                  "registers)");
  return !result.empty();
}

}  // namespace cspdb
