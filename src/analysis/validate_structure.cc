#include "analysis/validate_structure.h"

#include <string>
#include <unordered_set>

namespace cspdb {

Diagnostics ValidateStructure(const Structure& a) {
  Diagnostics diagnostics;
  DiagnosticSink sink("structure", &diagnostics);
  const Vocabulary& voc = a.vocabulary();

  std::unordered_set<std::string> names;
  for (int r = 0; r < voc.size(); ++r) {
    const RelationSymbol& sym = voc.symbol(r);
    if (!names.insert(sym.name).second) {
      sink.Error("symbol " + std::to_string(r),
                 "duplicate relation name '" + sym.name + "'");
    }
    if (sym.arity <= 0) {
      sink.Error("symbol " + std::to_string(r),
                 "non-positive arity " + std::to_string(sym.arity) +
                     " for relation '" + sym.name + "'");
    }
  }
  if (a.domain_size() < 0) {
    sink.Error("", "negative domain size " + std::to_string(a.domain_size()));
    return diagnostics;
  }

  for (int r = 0; r < voc.size(); ++r) {
    const RelationSymbol& sym = voc.symbol(r);
    const std::string rel = "relation '" + sym.name + "'";
    TupleSet seen;
    if (a.tuples(r).empty()) {
      sink.Warning(rel, "empty relation");
    }
    for (const Tuple& t : a.tuples(r)) {
      if (static_cast<int>(t.size()) != sym.arity) {
        sink.Error(rel, "tuple " + TupleString(t) + " has arity " +
                            std::to_string(t.size()) + ", expected " +
                            std::to_string(sym.arity));
        continue;
      }
      for (int e : t) {
        if (e < 0 || e >= a.domain_size()) {
          sink.Error(rel, "tuple " + TupleString(t) + " element " +
                              std::to_string(e) +
                              " outside domain [0, " +
                              std::to_string(a.domain_size()) + ")");
        }
      }
      if (!seen.insert(t).second) {
        sink.Error(rel, "duplicate tuple " + TupleString(t) +
                            " in insertion-order list");
      }
      if (!a.HasTuple(r, t)) {
        sink.Error(rel, "tuple " + TupleString(t) +
                            " in insertion-order list but missing from the "
                            "membership set");
      }
    }
  }
  return diagnostics;
}

}  // namespace cspdb
