#include "boolean/cnf.h"

#include <algorithm>

#include "util/check.h"

namespace cspdb {
namespace {

std::string ShapeName(int negated, int size) {
  return "OR_" + std::to_string(negated) + "_" + std::to_string(size);
}

// Adds to `b` the satisfying assignments of the clause shape with
// `negated` leading negative literals out of `size`.
void FillShape(Structure* b, int rel, int negated, int size) {
  Tuple t(size, 0);
  while (true) {
    // The unique falsifying assignment sets the first `negated` variables
    // to 1 and the rest to 0.
    bool falsifies = true;
    for (int i = 0; i < size; ++i) {
      if (t[i] != (i < negated ? 1 : 0)) {
        falsifies = false;
        break;
      }
    }
    if (!falsifies) b->AddTuple(rel, t);
    int pos = size - 1;
    while (pos >= 0 && ++t[pos] == 2) t[pos--] = 0;
    if (pos < 0) break;
  }
}

}  // namespace

bool CnfFormula::Evaluate(const std::vector<int>& assignment) const {
  CSPDB_CHECK(static_cast<int>(assignment.size()) == num_variables);
  for (const Clause& clause : clauses) {
    bool satisfied = false;
    for (const Literal& lit : clause.literals) {
      int value = assignment[lit.var];
      CSPDB_CHECK(value == 0 || value == 1);
      if ((value == 1) == lit.positive) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

bool CnfFormula::IsHorn() const {
  for (const Clause& clause : clauses) {
    int positives = 0;
    for (const Literal& lit : clause.literals) {
      if (lit.positive) ++positives;
    }
    if (positives > 1) return false;
  }
  return true;
}

bool CnfFormula::IsDualHorn() const {
  for (const Clause& clause : clauses) {
    int negatives = 0;
    for (const Literal& lit : clause.literals) {
      if (!lit.positive) ++negatives;
    }
    if (negatives > 1) return false;
  }
  return true;
}

bool CnfFormula::Is2Cnf() const {
  for (const Clause& clause : clauses) {
    if (clause.literals.size() > 2) return false;
  }
  return true;
}

int CnfFormula::MaxClauseSize() const {
  int m = 0;
  for (const Clause& clause : clauses) {
    m = std::max(m, static_cast<int>(clause.literals.size()));
  }
  return m;
}

std::string CnfFormula::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(";
    for (std::size_t j = 0; j < clauses[i].literals.size(); ++j) {
      if (j > 0) out += " | ";
      const Literal& lit = clauses[i].literals[j];
      if (!lit.positive) out += "~";
      out += "x";
      out += std::to_string(lit.var);
    }
    out += ")";
  }
  return out;
}

Vocabulary CnfVocabulary(int max_clause_size) {
  CSPDB_CHECK(max_clause_size >= 1);
  Vocabulary voc;
  for (int size = 1; size <= max_clause_size; ++size) {
    for (int negated = 0; negated <= size; ++negated) {
      voc.AddSymbol(ShapeName(negated, size), size);
    }
  }
  return voc;
}

Vocabulary HornVocabulary(int max_clause_size) {
  CSPDB_CHECK(max_clause_size >= 1);
  Vocabulary voc;
  for (int size = 1; size <= max_clause_size; ++size) {
    for (int negated = size - 1; negated <= size; ++negated) {
      voc.AddSymbol(ShapeName(negated, size), size);
    }
  }
  return voc;
}

Structure SatTemplateOver(const Vocabulary& voc) {
  Structure b(voc, 2);
  b.SetElementName(0, "false");
  b.SetElementName(1, "true");
  for (int r = 0; r < voc.size(); ++r) {
    const std::string& name = voc.symbol(r).name;
    // Parse "OR_<j>_<r>".
    CSPDB_CHECK_MSG(name.rfind("OR_", 0) == 0,
                    "not a CNF shape relation: " + name);
    std::size_t second = name.find('_', 3);
    CSPDB_CHECK(second != std::string::npos);
    int negated = std::stoi(name.substr(3, second - 3));
    int size = std::stoi(name.substr(second + 1));
    CSPDB_CHECK(size == voc.symbol(r).arity);
    FillShape(&b, r, negated, size);
  }
  return b;
}

Structure SatTemplate(int max_clause_size) {
  return SatTemplateOver(CnfVocabulary(max_clause_size));
}

Structure HornTemplate(int max_clause_size) {
  return SatTemplateOver(HornVocabulary(max_clause_size));
}

Structure TwoSatTemplate() { return SatTemplate(2); }

Structure CnfToStructure(const CnfFormula& phi, const Vocabulary& voc) {
  Structure a(voc, phi.num_variables);
  for (const Clause& clause : phi.clauses) {
    CSPDB_CHECK_MSG(!clause.literals.empty(),
                    "empty clause has no CNF-shape encoding");
    Tuple vars;
    vars.reserve(clause.literals.size());
    int negated = 0;
    for (const Literal& lit : clause.literals) {
      if (!lit.positive) {
        vars.push_back(lit.var);
        ++negated;
      }
    }
    for (const Literal& lit : clause.literals) {
      if (lit.positive) vars.push_back(lit.var);
    }
    int rel = voc.IndexOf(
        ShapeName(negated, static_cast<int>(clause.literals.size())));
    CSPDB_CHECK_MSG(rel >= 0, "clause shape missing from vocabulary");
    a.AddTuple(rel, vars);
  }
  return a;
}

}  // namespace cspdb
