// View-based query processing setting (paper, Section 7): a database is
// accessible only through views V_1..V_k, each with an RPQ definition
// over the alphabet Sigma and an extension (a set of object pairs). Views
// are sound and the domain is open.

#ifndef CSPDB_VIEWS_VIEW_H_
#define CSPDB_VIEWS_VIEW_H_

#include <string>
#include <utility>
#include <vector>

#include "rpq/graphdb.h"
#include "rpq/regex.h"

namespace cspdb {

/// A view: a name and an RPQ definition over the base alphabet.
struct ViewDefinition {
  std::string name;
  Regex definition;
};

/// The fixed part of a view-based query processing problem: the base
/// alphabet, the views, and the query (all regexes over the alphabet).
struct ViewSetting {
  std::vector<std::string> alphabet;
  std::vector<ViewDefinition> views;
  Regex query;
};

/// The variable part: objects 0..num_objects-1 and per-view extensions
/// ext(V_i) as pairs of objects.
struct ViewInstance {
  int num_objects = 0;
  std::vector<std::vector<std::pair<int, int>>> ext;  // one list per view
};

/// The view extensions as an edge-labeled graph over the *view* alphabet
/// (label i = view i). This is the database a rewriting is evaluated on.
GraphDb ExtensionGraph(const ViewSetting& setting,
                       const ViewInstance& instance);

}  // namespace cspdb

#endif  // CSPDB_VIEWS_VIEW_H_
