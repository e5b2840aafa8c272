#include "rpq/graphdb.h"

#include <algorithm>

#include "util/check.h"

namespace cspdb {

GraphDb::GraphDb(int num_nodes, int num_labels)
    : num_nodes_(num_nodes), num_labels_(num_labels), out_(num_nodes) {
  CSPDB_CHECK(num_nodes >= 0);
  CSPDB_CHECK(num_labels >= 0);
}

void GraphDb::AddEdge(int from, int label, int to) {
  CSPDB_CHECK(from >= 0 && from < num_nodes_);
  CSPDB_CHECK(to >= 0 && to < num_nodes_);
  CSPDB_CHECK(label >= 0 && label < num_labels_);
  if (HasEdge(from, label, to)) return;
  out_[from].push_back({label, to});
  edges_.push_back({from, label, to});
}

const std::vector<std::pair<int, int>>& GraphDb::OutEdges(int node) const {
  CSPDB_CHECK(node >= 0 && node < num_nodes_);
  return out_[node];
}

bool GraphDb::HasEdge(int from, int label, int to) const {
  CSPDB_CHECK(from >= 0 && from < num_nodes_);
  return std::find(out_[from].begin(), out_[from].end(),
                   std::make_pair(label, to)) != out_[from].end();
}

int GraphDb::NumEdges() const { return static_cast<int>(edges_.size()); }

std::string GraphDb::DebugString(
    const std::vector<std::string>& alphabet) const {
  std::string out = "GraphDb(" + std::to_string(num_nodes_) + " nodes)\n";
  for (const auto& [from, label, to] : edges_) {
    out += "  n" + std::to_string(from) + " -" +
           (label < static_cast<int>(alphabet.size()) ? alphabet[label]
                                                      : "?") +
           "-> n" + std::to_string(to) + "\n";
  }
  return out;
}

Structure StructureFromGraphDb(const GraphDb& db,
                               const std::vector<std::string>& alphabet) {
  Vocabulary voc;
  for (int label = 0; label < db.num_labels(); ++label) {
    std::string name;
    if (label < static_cast<int>(alphabet.size())) {
      name = alphabet[label];
    } else {
      name = "L";
      name += std::to_string(label);
    }
    voc.AddSymbol(name, 2);
  }
  Structure a(voc, db.num_nodes());
  for (const auto& [from, label, to] : db.edges()) {
    a.AddTuple(label, {from, to});
  }
  return a;
}

GraphDb GraphDbFromStructure(const Structure& a) {
  for (int r = 0; r < a.vocabulary().size(); ++r) {
    CSPDB_CHECK_MSG(a.vocabulary().symbol(r).arity == 2,
                    "graph databases need all-binary vocabularies");
  }
  GraphDb db(a.domain_size(), a.vocabulary().size());
  for (int r = 0; r < a.vocabulary().size(); ++r) {
    for (const Tuple& t : a.tuples(r)) db.AddEdge(t[0], r, t[1]);
  }
  return db;
}

}  // namespace cspdb
