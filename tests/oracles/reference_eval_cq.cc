#include "oracles/reference_eval_cq.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/body_join.h"
#include "util/check.h"

namespace cspdb {

DbRelation ReferenceEvaluateCq(const ConjunctiveQuery& q,
                               const Structure& db) {
  // Result schema: head positions 0..n-1 (attribute i = head slot i).
  std::vector<int> out_schema(q.head().size());
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    out_schema[i] = static_cast<int>(i);
  }
  DbRelation out(std::move(out_schema));

  // One flat copy per database relation the body reads.
  std::unordered_map<std::string, DbRelation> relations;
  std::vector<BodyAtom> atoms;
  for (const Atom& atom : q.body()) {
    int rel = db.vocabulary().IndexOf(atom.predicate);
    if (rel < 0) return out;  // an atom no fact can match
    CSPDB_CHECK_MSG(db.vocabulary().symbol(rel).arity ==
                        static_cast<int>(atom.args.size()),
                    "atom arity differs from database relation " +
                        atom.predicate);
    auto it = relations.find(atom.predicate);
    if (it == relations.end()) {
      it = relations.emplace(atom.predicate, FlatRelation(db, rel)).first;
    }
    atoms.push_back({&atom.args, &it->second});
  }
  JoinIndexes indexes;
  BodyJoin(atoms, q.head(), q.num_variables(), /*lead=*/-1, &indexes)
      .Run(&out);
  return out;
}

}  // namespace cspdb
