#include "db/conjunctive_query.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "db/body_join.h"
#include "relational/homomorphism.h"
#include "util/check.h"

namespace cspdb {

ConjunctiveQuery::ConjunctiveQuery(int num_variables, std::vector<int> head,
                                   std::vector<Atom> body)
    : num_variables_(num_variables),
      head_(std::move(head)),
      body_(std::move(body)) {
  CSPDB_CHECK(num_variables >= 0);
  for (int h : head_) CSPDB_CHECK(h >= 0 && h < num_variables_);
  for (const Atom& atom : body_) {
    CSPDB_CHECK(!atom.args.empty());
    for (int v : atom.args) CSPDB_CHECK(v >= 0 && v < num_variables_);
    int existing = body_vocabulary_.IndexOf(atom.predicate);
    if (existing < 0) {
      body_vocabulary_.AddSymbol(atom.predicate,
                                 static_cast<int>(atom.args.size()));
    } else {
      CSPDB_CHECK_MSG(body_vocabulary_.symbol(existing).arity ==
                          static_cast<int>(atom.args.size()),
                      "inconsistent arity for predicate " + atom.predicate);
    }
  }
}

Structure ConjunctiveQuery::CanonicalDatabase() const {
  Vocabulary voc = body_vocabulary_;
  std::vector<int> head_marker(head_.size());
  for (std::size_t i = 0; i < head_.size(); ++i) {
    head_marker[i] = voc.AddSymbol("__P" + std::to_string(i), 1);
  }
  Structure db(voc, num_variables_);
  for (const Atom& atom : body_) {
    db.AddTuple(voc.IndexOf(atom.predicate),
                Tuple(atom.args.begin(), atom.args.end()));
  }
  for (std::size_t i = 0; i < head_.size(); ++i) {
    db.AddTuple(head_marker[i], {head_[i]});
  }
  return db;
}

Structure ConjunctiveQuery::BodyStructure() const {
  Structure db(body_vocabulary_, num_variables_);
  for (const Atom& atom : body_) {
    db.AddTuple(body_vocabulary_.IndexOf(atom.predicate),
                Tuple(atom.args.begin(), atom.args.end()));
  }
  return db;
}

ConjunctiveQuery ConjunctiveQuery::FromStructure(const Structure& a) {
  std::vector<Atom> body;
  for (int r = 0; r < a.vocabulary().size(); ++r) {
    for (const Tuple& t : a.tuples(r)) {
      body.push_back({a.vocabulary().symbol(r).name,
                      std::vector<int>(t.begin(), t.end())});
    }
  }
  return ConjunctiveQuery(a.domain_size(), {}, std::move(body));
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "Q(";
  for (std::size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ",";
    out += "x";
    out += std::to_string(head_[i]);
  }
  out += ") :- ";
  for (std::size_t i = 0; i < body_.size(); ++i) {
    if (i > 0) out += ", ";
    out += body_[i].predicate + "(";
    for (std::size_t j = 0; j < body_[i].args.size(); ++j) {
      if (j > 0) out += ",";
      out += "x";
      out += std::to_string(body_[i].args[j]);
    }
    out += ")";
  }
  return out;
}

DbRelation Evaluate(const ConjunctiveQuery& q, const Structure& db) {
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

bool BodySatisfiable(const ConjunctiveQuery& q, const Structure& db) {
  // Align the body with the database vocabulary, then search for a
  // homomorphism (cheaper than materializing the full join).
  Structure body(db.vocabulary(), q.num_variables());
  for (const Atom& atom : q.body()) {
    int rel = db.vocabulary().IndexOf(atom.predicate);
    if (rel < 0) return false;
    CSPDB_CHECK_MSG(db.vocabulary().symbol(rel).arity ==
                        static_cast<int>(atom.args.size()),
                    "atom arity differs from database relation " +
                        atom.predicate);
    body.AddTuple(rel, Tuple(atom.args.begin(), atom.args.end()));
  }
  return FindHomomorphism(body, db).has_value();
}

}  // namespace cspdb
