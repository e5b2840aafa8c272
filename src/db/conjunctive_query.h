// Conjunctive queries, their evaluation (as join evaluation), and the
// canonical database D^Q (paper, Section 2).

#ifndef CSPDB_DB_CONJUNCTIVE_QUERY_H_
#define CSPDB_DB_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "db/relation.h"
#include "exec/cancellation.h"
#include "relational/structure.h"

namespace cspdb {

/// One subgoal R(x_1, ..., x_k) of a conjunctive-query body. Arguments are
/// query-variable ids; repeats are allowed.
struct Atom {
  std::string predicate;
  std::vector<int> args;
};

/// A conjunctive query written as a rule
///   Q(X_{h1}, ..., X_{hn}) :- body.
/// Variables are 0..num_variables-1; `head` lists the distinguished
/// variables (repeats allowed); every variable in `head` and in each
/// atom must be < num_variables.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery(int num_variables, std::vector<int> head,
                   std::vector<Atom> body);

  int num_variables() const { return num_variables_; }
  const std::vector<int>& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }

  /// The vocabulary of the body predicates (in first-occurrence order,
  /// with arities taken from the first occurrence; consistent arity is
  /// checked).
  const Vocabulary& body_vocabulary() const { return body_vocabulary_; }

  /// The canonical database D^Q: domain = the query's variables, one fact
  /// per subgoal, plus a fresh unary predicate "__P<i>" holding the i-th
  /// distinguished variable (paper, Section 2).
  Structure CanonicalDatabase() const;

  /// The body of the query as a structure over body_vocabulary() (the
  /// canonical database *without* the head markers). Homomorphisms from
  /// this structure into a database are exactly the satisfying
  /// assignments.
  Structure BodyStructure() const;

  /// The Boolean query phi_A of a structure A (paper, Proposition 2.3):
  /// one existential variable per element, one subgoal per fact, no
  /// distinguished variables.
  static ConjunctiveQuery FromStructure(const Structure& a);

  /// Rule-style rendering, e.g. "Q(x0,x1) :- E(x0,x2), E(x2,x1)".
  std::string ToString() const;

 private:
  int num_variables_;
  std::vector<int> head_;
  std::vector<Atom> body_;
  Vocabulary body_vocabulary_;
};

/// Evaluates Q on the database `db`: the head projections of the body's
/// satisfying bindings (the classical CQ = join-evaluation link). The body
/// is evaluated by bucket elimination (paper, Section 6): each variable
/// outside the head is projected out as soon as the atoms that mention it
/// are joined, each bucket by one indexed body join (db/body_join.h), so
/// a chain or a star never enumerates the bindings of the whole body. A
/// bucket of unary and binary atoms with at most two other variables,
/// over a domain of at most 64 elements, is instead eliminated over bit
/// rows, one machine word per row, as a Boolean matrix product; so is the
/// last bucket, when it eliminates the last variable outside the head
/// onto a head over at most two variables. A body that plans as one
/// bucket, or that is expected to have too few satisfying bindings to pay
/// for more joins, runs one body join. Database predicates are matched to
/// atom predicates by name; an atom over a predicate absent from `db`
/// yields an empty result. The result schema lists head positions 0..n-1.
/// A non-null `cancel` is polled before each bucket and inside each body
/// join; once it fires, evaluation stops, and the rows returned are a
/// subset of the answer.
DbRelation Evaluate(const ConjunctiveQuery& q, const Structure& db,
                    const exec::CancellationToken* cancel = nullptr);

/// True if the Boolean query "exists a satisfying assignment of Q's body"
/// holds in `db` (ignores the head).
bool BodySatisfiable(const ConjunctiveQuery& q, const Structure& db);

}  // namespace cspdb

#endif  // CSPDB_DB_CONJUNCTIVE_QUERY_H_
