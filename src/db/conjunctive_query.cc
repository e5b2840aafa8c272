#include "db/conjunctive_query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
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

// A domain element's bit in a bit row: one machine word per row.
constexpr int kWordBits = 64;

// True if EliminateByBitRows can eliminate a bucket: each atom has arity
// at most 2, the bucket has at most two other variables, and the domain
// fits one word.
bool BitRowBucket(const std::vector<BodyAtom>& bucket,
                  std::size_t other_variables, int domain_size) {
  return domain_size <= kWordBits && other_variables <= 2 &&
         std::all_of(bucket.begin(), bucket.end(), [](const BodyAtom& atom) {
           return atom.args->size() <= 2;
         });
}

// Adds to `*out` the bindings of `vars` (at most two, a < b) that extend
// to a value of `y` satisfying every atom of `bucket`: atoms of arity at
// most 2 over y and `vars`, whose values lie below `domain_size` <= 64.
// Each set of values is a bit row: Y holds the values of y the atoms over
// y alone allow, Ma[va] those of y the atoms over {a, y} allow with va,
// Mb[vy] those of b the atoms over {y, b} allow with vy, and Fa, Fb and
// Fab[va] what the atoms over the output variables alone allow. Then
// eliminating y is a Boolean matrix product (paper, Section 5): row va of
// the result is OR{Mb[vy] : vy in Y & Ma[va]} & Fab[va] & Fb, for each va
// in Fa. A missing output variable ranges over the one value 0, so one
// variable keeps the va with a nonzero Y & Ma[va], and none keeps one
// empty row if Y is nonzero. The rows come out distinct and sorted by
// (va, vb); column i of `*out` takes va if `take[i]` is 0, vb if it is 1.
void EliminateByBitRows(const std::vector<BodyAtom>& bucket, int y,
                        const std::vector<int>& vars, int domain_size,
                        const std::vector<int>& take, DbRelation* out) {
  using Rows = std::array<uint64_t, kWordBits>;
  auto all = [](int n) { return n == kWordBits ? ~0ull : (1ull << n) - 1; };
  // Role 0 is y, 1 is a, 2 is b, each with its number of values.
  auto role = [&](int v) { return v == y ? 0 : v == vars[0] ? 1 : 2; };
  const std::array<int, 3> size = {
      domain_size, vars.empty() ? 1 : domain_size,
      vars.size() < 2 ? 1 : domain_size};
  std::array<uint64_t, 3> unary = {all(size[0]), all(size[1]),
                                   all(size[2])};
  // The matrix over roles {r, s} is pair[r + s - 1], its rows indexed by
  // one role and its bits by the other: Ma = pair[0], Mb = pair[1] and
  // Fab = pair[2].
  constexpr std::array<int, 3> kRowRole = {1, 0, 1};
  constexpr std::array<int, 3> kBitRole = {0, 2, 2};
  std::array<Rows, 3> pair;
  for (int k = 0; k < 3; ++k) {
    pair[k].fill(0);
    std::fill_n(pair[k].begin(), size[kRowRole[k]], all(size[kBitRole[k]]));
  }
  Rows allowed;
  for (const BodyAtom& atom : bucket) {
    const std::vector<int>& args = *atom.args;
    const std::size_t arity = args.size();
    const int* row = atom.rows->data().data();
    const int* const end = row + atom.rows->size() * arity;
    if (arity == 1 || args[0] == args[1]) {
      // A unary atom, or a binary one on the diagonal: a filter on one
      // variable, not a matrix.
      uint64_t values = 0;
      for (; row != end; row += arity) {
        if (row[0] == row[arity - 1]) values |= 1ull << row[0];
      }
      unary[role(args[0])] &= values;
      continue;
    }
    const int r0 = role(args[0]);
    const int k = r0 + role(args[1]) - 1;
    // Column `from` of each row indexes the matrix's rows, the other
    // column its bits: an atom that reads (column role, row role) is
    // transposed.
    const int from = r0 == kRowRole[k] ? 0 : 1;
    allowed.fill(0);
    for (; row != end; row += 2) allowed[row[from]] |= 1ull << row[1 - from];
    for (int v = 0; v < domain_size; ++v) pair[k][v] &= allowed[v];
  }

  Rows result;
  std::size_t count = 0;
  for (uint64_t as = unary[1]; as != 0; as &= as - 1) {
    const int va = std::countr_zero(as);
    uint64_t bs = 0;
    for (uint64_t ys = unary[0] & pair[0][va]; ys != 0; ys &= ys - 1) {
      bs |= pair[1][std::countr_zero(ys)];
    }
    result[va] = bs & pair[2][va] & unary[2];
    count += static_cast<std::size_t>(std::popcount(result[va]));
  }
  out->Reserve(out->size() + count);
  std::vector<int> row(take.size());
  for (uint64_t as = unary[1]; as != 0; as &= as - 1) {
    const int va = std::countr_zero(as);
    for (uint64_t bs = result[va]; bs != 0; bs &= bs - 1) {
      const std::array<int, 2> value = {va, std::countr_zero(bs)};
      for (std::size_t i = 0; i < take.size(); ++i) row[i] = value[take[i]];
      out->AppendRowUnchecked(row.data());
    }
  }
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
// remaining atoms onto `head`; a small body goes straight to it. A
// bucket that BitRowBucket admits is eliminated by EliminateByBitRows
// instead of a BodyJoin, and so is the last one when its variable is the
// only one outside the head left: it is then every atom, and its
// elimination onto the head's variables is the answer. Projecting out a
// variable no other atom mentions keeps exactly the bindings of the other
// variables that extend to it, so the answer set is the single
// BodyJoin's. A non-null `cancel` is polled before each bucket and inside
// each BodyJoin; once it fires, the evaluation stops.
void EvaluateByBuckets(std::vector<BodyAtom> atoms,
                       const std::vector<int>& head, int num_variables,
                       int domain_size, const exec::CancellationToken* cancel,
                       DbRelation* out) {
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
    if (cancel != nullptr && cancel->cancelled()) return;
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
    if (best < 0) break;
    if (best_span == head_left + candidates.size()) {
      if (candidates.size() > 1 ||
          !BitRowBucket(atoms, head_left, domain_size)) {
        break;
      }
      // Eliminate the last variable onto the head's, and map each pair
      // (va, vb) onto the head's columns. The head covers both variables,
      // so distinct pairs stay distinct rows.
      vars = head;
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
      std::vector<int> take(head.size());
      for (std::size_t i = 0; i < head.size(); ++i) {
        take[i] = head[i] == vars[0] ? 0 : 1;
      }
      EliminateByBitRows(atoms, best, vars, domain_size, take, out);
      return;
    }

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
    if (BitRowBucket(bucket, vars.size(), domain_size)) {
      std::vector<int> take(vars.size());
      std::iota(take.begin(), take.end(), 0);
      EliminateByBitRows(bucket, best, vars, domain_size, take, &rel);
    } else {
      BodyJoin(bucket, vars, num_variables, /*lead=*/-1, &indexes)
          .Run(&rel, cancel);
    }
    if (rel.empty()) return;
    if (!vars.empty()) atoms.push_back({&rel.schema(), &rel});
  }
  BodyJoin(atoms, head, num_variables, /*lead=*/-1, &indexes)
      .Run(out, cancel);
}

}  // namespace

DbRelation Evaluate(const ConjunctiveQuery& q, const Structure& db,
                    const exec::CancellationToken* cancel) {
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
                    db.domain_size(), cancel, &out);
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
