#include "db/conjunctive_query.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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

namespace {

// A body is planned only when it is expected to have at least this many
// satisfying bindings for each variable it could eliminate (see
// EvaluateByBuckets). Measured on chains, stars and cycles over
// G(n, 0.08), the containment bench's long chains over near-paths and
// the default request mix's random queries: at 16 the plan runs where
// it beats the single join, except on mid-sized chains (G(24, 0.08):
// 0.8-0.95x), and the single join everywhere else.
constexpr double kMinBindingsPerBucket = 16.0;

// True if `v` is one of `atom`'s variables.
bool Mentions(const BodyAtom& atom, int v) {
  return std::find(atom.args->begin(), atom.args->end(), v) !=
         atom.args->end();
}

// Adds to `*out` the projection onto `head` of the satisfying bindings of
// `atoms`, by bucket elimination (paper, Section 6). Each step takes the
// variable outside the head whose bucket (the atoms that mention it)
// spans the fewest variables, lowest id first on ties, and joins the
// bucket, with every atom over its variables alone, in one BodyJoin
// projected onto its other variables. That relation replaces the atoms
// joined. A relation over no variable is a check: empty, the answer is
// empty; otherwise it is dropped. Elimination stops once the chosen
// bucket spans every variable left, and one last BodyJoin projects the
// remaining atoms onto `head`; a small body goes straight to it.
// Projecting out a variable no other atom mentions keeps exactly the
// bindings of the other variables that extend to it, so the answer set
// is the single BodyJoin's.
void EvaluateByBuckets(std::vector<BodyAtom> atoms,
                       const std::vector<int>& head, int num_variables,
                       int domain_size, DbRelation* out) {
  // stamp[v] == epoch marks v in the set being built; a new set is a new
  // epoch, so nothing is cleared between steps. Epoch 1 marks the head.
  std::vector<uint64_t> stamp(static_cast<std::size_t>(num_variables), 0);
  for (int h : head) stamp[h] = 1;
  uint64_t epoch = 2;
  // The variables the atoms mention: the head's, never eliminated, and
  // the candidates for elimination.
  std::size_t head_left = 0;
  std::vector<int> candidates;
  std::size_t columns = 0;
  for (const BodyAtom& atom : atoms) columns += atom.args->size();
  candidates.reserve(columns);
  for (const BodyAtom& atom : atoms) {
    for (int v : *atom.args) {
      if (stamp[v] == epoch) continue;
      if (stamp[v] == 1) {
        ++head_left;
      } else {
        candidates.push_back(v);
      }
      stamp[v] = epoch;
    }
  }
  for (int h : head) {
    CSPDB_CHECK_MSG(stamp[h] == epoch,
                    "unsafe query: head variable missing from the body");
  }
  for (const BodyAtom& atom : atoms) {
    if (atom.rows->empty()) return;
  }
  // Each bucket costs a join, a relation and an index of its own, which
  // only a body with many satisfying bindings pays back; a small body
  // runs as one join. The expected number of bindings treats each
  // relation as a uniform sample over the d domain elements:
  // prod |R_a| / d^(columns - variables).
  double log_bindings = -static_cast<double>(columns - head_left -
                                             candidates.size()) *
                        std::log(std::max(domain_size, 1));
  for (const BodyAtom& atom : atoms) {
    log_bindings += std::log(static_cast<double>(atom.rows->size()));
  }
  const bool plan =
      log_bindings >=
      std::log(kMinBindingsPerBucket * static_cast<double>(candidates.size()));

  JoinIndexes indexes;
  // One relation per eliminated variable. Each one's schema is the
  // variables it ranges over, so it is also its atom's argument list.
  // Reserved once, so the atoms' pointers stay valid.
  std::vector<DbRelation> projected;
  std::vector<BodyAtom> bucket;
  std::vector<int> vars;
  while (plan) {
    int best = -1;
    std::size_t best_span = 0;
    for (int v : candidates) {
      ++epoch;
      std::size_t span = 0;
      for (const BodyAtom& atom : atoms) {
        if (!Mentions(atom, v)) continue;
        for (int u : *atom.args) {
          if (stamp[u] != epoch) {
            stamp[u] = epoch;
            ++span;
          }
        }
      }
      if (best < 0 || span < best_span || (span == best_span && v < best)) {
        best = v;
        best_span = span;
      }
    }
    if (best < 0 || best_span == head_left + candidates.size()) break;

    // The bucket's other variables, in increasing order.
    ++epoch;
    vars.clear();
    stamp[best] = epoch;
    for (const BodyAtom& atom : atoms) {
      if (!Mentions(atom, best)) continue;
      for (int u : *atom.args) {
        if (stamp[u] != epoch) {
          stamp[u] = epoch;
          vars.push_back(u);
        }
      }
    }
    std::sort(vars.begin(), vars.end());
    // Split off the bucket, keeping the other atoms in order. An atom
    // over the bucket's variables alone joins it too: it only filters
    // the bucket's rows, and it holds of the projection as it did of
    // the atom.
    bucket.clear();
    std::size_t kept = 0;
    for (const BodyAtom& atom : atoms) {
      const bool inside =
          std::all_of(atom.args->begin(), atom.args->end(),
                      [&](int u) { return stamp[u] == epoch; });
      if (inside) {
        bucket.push_back(atom);
      } else {
        atoms[kept++] = atom;
      }
    }
    atoms.resize(kept);
    candidates.erase(std::find(candidates.begin(), candidates.end(), best));

    if (projected.capacity() == 0) projected.reserve(candidates.size() + 1);
    DbRelation& rel = projected.emplace_back(vars);
    BodyJoin(bucket, vars, num_variables, /*lead=*/-1, &indexes).Run(&rel);
    if (rel.empty()) return;
    if (!vars.empty()) atoms.push_back({&rel.schema(), &rel});
  }
  BodyJoin(atoms, head, num_variables, /*lead=*/-1, &indexes).Run(out);
}

}  // namespace

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
  atoms.reserve(q.body().size());
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
  EvaluateByBuckets(std::move(atoms), q.head(), q.num_variables(),
                    db.domain_size(), &out);
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
