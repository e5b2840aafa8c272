#include "io/text_format.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace cspdb {
namespace {

// Splits into non-comment, non-empty lines of whitespace tokens.
std::vector<std::vector<std::string>> Tokenize(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '#') continue;
    std::istringstream words(line);
    std::vector<std::string> tokens;
    std::string token;
    while (words >> token) tokens.push_back(token);
    if (!tokens.empty()) lines.push_back(std::move(tokens));
  }
  return lines;
}

int ToInt(const std::string& token) {
  std::size_t used = 0;
  int value = 0;
  bool ok = true;
  if (token.empty()) {
    ok = false;
  } else {
    value = std::stoi(token, &used);
    ok = used == token.size();
  }
  CSPDB_CHECK_MSG(ok, "expected an integer, got '" + token + "'");
  return value;
}

}  // namespace

std::string SerializeStructure(const Structure& a) {
  std::ostringstream out;
  out << "structure\n";
  out << "domain " << a.domain_size() << "\n";
  const Vocabulary& voc = a.vocabulary();
  for (int r = 0; r < voc.size(); ++r) {
    out << "relation " << voc.symbol(r).name << " " << voc.symbol(r).arity
        << "\n";
  }
  for (int r = 0; r < voc.size(); ++r) {
    for (const Tuple& t : a.tuples(r)) {
      out << "tuple " << voc.symbol(r).name;
      for (int e : t) out << " " << e;
      out << "\n";
    }
  }
  return out.str();
}

Structure ParseStructure(const std::string& text) {
  auto lines = Tokenize(text);
  CSPDB_CHECK_MSG(!lines.empty() && lines[0][0] == "structure",
                  "missing 'structure' header");
  int domain = -1;
  Vocabulary voc;
  std::size_t i = 1;
  // Header lines first: domain then relations.
  for (; i < lines.size(); ++i) {
    const auto& tokens = lines[i];
    if (tokens[0] == "domain") {
      CSPDB_CHECK_MSG(tokens.size() == 2, "domain line needs one number");
      domain = ToInt(tokens[1]);
    } else if (tokens[0] == "relation") {
      CSPDB_CHECK_MSG(tokens.size() == 3,
                      "relation line needs a name and an arity");
      voc.AddSymbol(tokens[1], ToInt(tokens[2]));
    } else {
      break;
    }
  }
  CSPDB_CHECK_MSG(domain >= 0, "missing 'domain' line");
  Structure a(voc, domain);
  for (; i < lines.size(); ++i) {
    const auto& tokens = lines[i];
    CSPDB_CHECK_MSG(tokens[0] == "tuple",
                    "unexpected line '" + tokens[0] + "'");
    CSPDB_CHECK_MSG(tokens.size() >= 2, "tuple line needs a relation");
    Tuple t;
    for (std::size_t j = 2; j < tokens.size(); ++j) {
      t.push_back(ToInt(tokens[j]));
    }
    a.AddTuple(tokens[1], std::move(t));
  }
  return a;
}

std::string SerializeCsp(const CspInstance& csp) {
  std::ostringstream out;
  out << "csp " << csp.num_variables() << " " << csp.num_values() << "\n";
  for (const Constraint& c : csp.constraints()) {
    out << "constraint " << c.arity();
    for (int v : c.scope) out << " " << v;
    out << "\n";
    for (DbRelation::RowRef t : c.allowed) {
      out << "allow";
      for (int d : t) out << " " << d;
      out << "\n";
    }
  }
  return out.str();
}

CspInstance ParseCsp(const std::string& text) {
  auto lines = Tokenize(text);
  CSPDB_CHECK_MSG(!lines.empty() && lines[0][0] == "csp" &&
                      lines[0].size() == 3,
                  "missing 'csp <vars> <values>' header");
  CspInstance csp(ToInt(lines[0][1]), ToInt(lines[0][2]));
  std::vector<int> scope;
  std::vector<Tuple> allowed;
  bool open = false;
  auto flush = [&]() {
    if (open) csp.AddConstraint(scope, std::move(allowed));
    allowed = {};
    open = false;
  };
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto& tokens = lines[i];
    if (tokens[0] == "constraint") {
      flush();
      CSPDB_CHECK_MSG(tokens.size() >= 3, "constraint line needs a scope");
      int arity = ToInt(tokens[1]);
      CSPDB_CHECK_MSG(static_cast<int>(tokens.size()) == arity + 2,
                      "constraint scope length mismatch");
      scope.clear();
      for (int j = 0; j < arity; ++j) scope.push_back(ToInt(tokens[j + 2]));
      open = true;
    } else if (tokens[0] == "allow") {
      CSPDB_CHECK_MSG(open, "'allow' before any 'constraint'");
      Tuple t;
      for (std::size_t j = 1; j < tokens.size(); ++j) {
        t.push_back(ToInt(tokens[j]));
      }
      CSPDB_CHECK_MSG(t.size() == scope.size(),
                      "allow tuple arity mismatch");
      allowed.push_back(std::move(t));
    } else {
      CSPDB_CHECK_MSG(false, "unexpected line '" + tokens[0] + "'");
    }
  }
  flush();
  return csp;
}

std::string WriteDimacs(const CnfFormula& phi) {
  std::ostringstream out;
  out << "p cnf " << phi.num_variables << " " << phi.clauses.size()
      << "\n";
  for (const Clause& clause : phi.clauses) {
    for (const Literal& lit : clause.literals) {
      out << (lit.positive ? lit.var + 1 : -(lit.var + 1)) << " ";
    }
    out << "0\n";
  }
  return out.str();
}

CnfFormula ReadDimacs(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  CnfFormula phi;
  bool header_seen = false;
  Clause current;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream words(line);
    if (line[0] == 'p') {
      std::string p, cnf;
      int clauses = 0;
      words >> p >> cnf >> phi.num_variables >> clauses;
      CSPDB_CHECK_MSG(cnf == "cnf", "expected 'p cnf' header");
      header_seen = true;
      continue;
    }
    CSPDB_CHECK_MSG(header_seen, "clause before DIMACS header");
    int lit = 0;
    while (words >> lit) {
      if (lit == 0) {
        phi.clauses.push_back(std::move(current));
        current = Clause{};
      } else {
        int var = std::abs(lit) - 1;
        CSPDB_CHECK_MSG(var < phi.num_variables,
                        "literal exceeds declared variable count");
        current.literals.push_back({var, lit > 0});
      }
    }
  }
  CSPDB_CHECK_MSG(current.literals.empty(),
                  "unterminated clause at end of DIMACS input");
  return phi;
}

}  // namespace cspdb
