// Differential test pinning the CSP labeling (LabelCsp), the relabeling
// (RelabeledCsp) and their composition (CanonicalizeCsp) to the frozen
// canonicalization in oracles/reference_canonical_csp.h. All three must
// agree with it exactly: the fingerprint's words, the permutation and the
// canonical instance down to its wire bytes, because ring ownership,
// cached answers and response bytes all derive from them.
//
// The seeded corpus mixes random binary instances (2-5 values, up to
// n(n-1)/4 constraints), Horn-3 and 2-SAT instances, and hand-built
// instances with repeated tuples, repeated scopes that consolidate,
// repeated-variable scopes and unary constraints; each is also checked
// as a renamed and shuffled copy. Disjoint identical cycles exhaust the
// leaf budget: their fingerprints are salted with a process nonce that
// differs between the two implementations, so for them only `exact`, the
// permutation and the canonical instance are compared.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "boolean/cnf.h"
#include "csp/convert.h"
#include "csp/instance.h"
#include "gen/generators.h"
#include "net/wire.h"
#include "oracles/reference_canonical_csp.h"
#include "service/fingerprint.h"
#include "service/request.h"
#include "util/rng.h"

namespace cspdb {
namespace {

std::vector<uint8_t> WireBytes(const CspInstance& csp) {
  std::vector<uint8_t> out;
  net::EncodeRequestPayload(service::SolveCspRequest{csp}, &out);
  return out;
}

// Checks LabelCsp, RelabeledCsp and CanonicalizeCsp on `csp` against the
// oracle. Returns whether the oracle's fingerprint is exact.
bool ExpectMatchesOracle(const CspInstance& csp, const std::string& label) {
  const service::CanonicalCsp want = ReferenceCanonicalizeCsp(csp);
  const service::CspLabeling labeling = service::LabelCsp(csp);
  const service::CanonicalCsp got = service::CanonicalizeCsp(csp);
  const bool exact = want.fingerprint.exact;

  EXPECT_EQ(labeling.fingerprint.exact, exact) << label;
  EXPECT_EQ(got.fingerprint.exact, exact) << label;
  EXPECT_EQ(labeling.perm, want.perm) << label;
  EXPECT_EQ(got.perm, want.perm) << label;
  if (exact) {
    EXPECT_EQ(labeling.fingerprint.lo, want.fingerprint.lo) << label;
    EXPECT_EQ(labeling.fingerprint.hi, want.fingerprint.hi) << label;
    EXPECT_EQ(got.fingerprint.lo, want.fingerprint.lo) << label;
    EXPECT_EQ(got.fingerprint.hi, want.fingerprint.hi) << label;
  }
  const std::vector<uint8_t> want_bytes = WireBytes(want.canonical);
  EXPECT_EQ(WireBytes(got.canonical), want_bytes) << label;
  EXPECT_EQ(WireBytes(service::RelabeledCsp(csp, want.perm)), want_bytes)
      << label;
  return exact;
}

// 0, 1, ..., n - 1 in random order.
std::vector<int> Shuffled(std::size_t n, Rng* rng) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  rng->Shuffle(&v);
  return v;
}

// A copy of `csp` with variables renamed by a random permutation,
// constraints added in shuffled order, and each tuple list shuffled, with
// a random tuple repeated now and then. Isomorphic to `csp`.
CspInstance RenamedShuffledCopy(const CspInstance& csp, Rng* rng) {
  const std::vector<int> perm = Shuffled(csp.num_variables(), rng);
  CspInstance copy(csp.num_variables(), csp.num_values());
  for (int c : Shuffled(csp.constraints().size(), rng)) {
    const Constraint& constraint = csp.constraint(c);
    std::vector<int> scope;
    for (int v : constraint.scope) scope.push_back(perm[v]);
    std::vector<Tuple> allowed;
    for (int i : Shuffled(constraint.allowed.size(), rng)) {
      allowed.push_back(constraint.allowed.row(i).ToTuple());
      if (rng->Bernoulli(0.1)) {
        allowed.push_back(constraint.allowed.row(i).ToTuple());
      }
    }
    copy.AddConstraint(std::move(scope), std::move(allowed));
  }
  return copy;
}

CspInstance RandomBinary(Rng* rng) {
  const int n = rng->UniformInt(2, 10);
  const int d = rng->UniformInt(2, 5);
  const int m = rng->UniformInt(0, n * (n - 1) / 4);
  return RandomBinaryCsp(n, d, m, rng->UniformDouble() * 0.6, rng);
}

CspInstance RandomHorn3(Rng* rng) {
  const int n = rng->UniformInt(3, 12);
  const CnfFormula phi = RandomHorn(n, rng->UniformInt(1, 2 * n), 3, rng);
  return ToCspInstance(CnfToStructure(phi, HornVocabulary(3)),
                       HornTemplate(3));
}

CspInstance Random2Sat(Rng* rng) {
  const int n = rng->UniformInt(3, 12);
  const CnfFormula phi = RandomKSat(n, rng->UniformInt(1, 2 * n), 2, rng);
  return ToCspInstance(CnfToStructure(phi, CnfVocabulary(2)),
                       TwoSatTemplate());
}

// Constraints of arity 1-3 on scopes drawn with replacement (so variables
// repeat within a scope), relations with repeated tuples, and scopes
// drawn again so that they consolidate by intersection.
CspInstance RandomMessy(Rng* rng) {
  const int n = rng->UniformInt(1, 7);
  const int d = rng->UniformInt(2, 4);
  CspInstance csp(n, d);
  std::vector<std::vector<int>> scopes;
  const int m = rng->UniformInt(1, 10);
  for (int i = 0; i < m; ++i) {
    std::vector<int> scope;
    if (!scopes.empty() && rng->Bernoulli(0.25)) {
      scope = scopes[rng->UniformInt(0, static_cast<int>(scopes.size()) - 1)];
    } else {
      for (int k = rng->UniformInt(1, 3); k > 0; --k) {
        scope.push_back(rng->UniformInt(0, n - 1));
      }
      scopes.push_back(scope);
    }
    std::vector<Tuple> allowed;
    const int num_tuples = rng->UniformInt(0, 12);
    for (int t = 0; t < num_tuples; ++t) {
      if (!allowed.empty() && rng->Bernoulli(0.3)) {
        allowed.push_back(
            allowed[rng->UniformInt(0, static_cast<int>(allowed.size()) - 1)]);
        continue;
      }
      Tuple tuple(scope.size());
      for (int& x : tuple) x = rng->UniformInt(0, d - 1);
      allowed.push_back(std::move(tuple));
    }
    csp.AddConstraint(std::move(scope), std::move(allowed));
  }
  return csp;
}

// `copies` disjoint directed cycles of length `length`, every edge the
// same relation: the labeling search branches on every vertex of each
// remaining cycle, so enough copies exhaust its leaf budget.
CspInstance DisjointCycles(int copies, int length) {
  CspInstance csp(copies * length, 3);
  const std::vector<Tuple> relation = {{0, 1}, {1, 2}, {2, 0}, {1, 1}};
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < length; ++i) {
      csp.AddConstraint({c * length + i, c * length + (i + 1) % length},
                        relation);
    }
  }
  return csp;
}

TEST(FingerprintDifferential, SeededCorpusMatchesTheFrozenCanonicalization) {
  constexpr int kSeeds = 520;
  int exact = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
    CspInstance csp(0, 0);
    std::string family;
    switch (seed % 4) {
      case 0:
        csp = RandomBinary(&rng);
        family = "binary";
        break;
      case 1:
        csp = RandomHorn3(&rng);
        family = "horn3";
        break;
      case 2:
        csp = Random2Sat(&rng);
        family = "2sat";
        break;
      default:
        csp = RandomMessy(&rng);
        family = "messy";
        break;
    }
    const std::string label = family + " seed " + std::to_string(seed);
    if (ExpectMatchesOracle(csp, label)) ++exact;
    if (ExpectMatchesOracle(RenamedShuffledCopy(csp, &rng), label + " copy")) {
      ++exact;
    }
  }
  // Most of the corpus labels exactly. The rest are sparse instances with
  // six or more unconstrained, hence interchangeable, variables: 6! leaves
  // exceed the budget.
  EXPECT_GE(exact, 2 * kSeeds * 9 / 10);
}

TEST(FingerprintDifferential, BudgetExhaustedInstancesMatchOnPermutation) {
  int inexact = 0;
  for (const auto& [copies, length] :
       std::vector<std::pair<int, int>>{{2, 3}, {3, 3}, {4, 3}, {5, 3},
                                        {4, 4}, {3, 5}}) {
    const CspInstance csp = DisjointCycles(copies, length);
    const std::string label = std::to_string(copies) + " cycles of length " +
                              std::to_string(length);
    if (!ExpectMatchesOracle(csp, label)) ++inexact;
    Rng rng(static_cast<uint64_t>(copies * 31 + length));
    if (!ExpectMatchesOracle(RenamedShuffledCopy(csp, &rng), label + " copy")) {
      ++inexact;
    }
  }
  EXPECT_GE(inexact, 4);
}

TEST(FingerprintDifferential, EmptyAndVariableFreeInstances) {
  ExpectMatchesOracle(CspInstance(0, 0), "no variables, no values");
  ExpectMatchesOracle(CspInstance(0, 3), "no variables");
  ExpectMatchesOracle(CspInstance(4, 0), "no values");
  ExpectMatchesOracle(CspInstance(5, 2), "no constraints");
  CspInstance empty_relation(3, 2);
  empty_relation.AddConstraint({0, 1}, {});
  empty_relation.AddConstraint({2}, {{1}, {1}});
  ExpectMatchesOracle(empty_relation, "empty relation");
}

}  // namespace
}  // namespace cspdb
