// Canonical request fingerprints for the serving layer (ISSUE 5 /
// DESIGN.md "Serving layer"). A fingerprint is a deterministic 128-bit
// digest of a *canonicalized* request: CSP instances and query bodies are
// labeled by an individualization–refinement pass over their constraint
// hypergraph, so two requests that differ only by variable renaming,
// constraint reordering, or tuple reordering digest identically — the
// per-structure artifact reuse that HyperBench-style repetitive workloads
// reward (PAPERS.md).
//
// A CSP instance is labeled and relabeled in two steps. LabelCsp computes
// the fingerprint and the canonical permutation; it reads each
// constraint's sorted membership rows (Constraint::allowed_set) and
// builds no tuples. RelabeledCsp builds the canonical instance from that
// permutation, copying each relation's sorted rows as they stand. The
// service labels every request and relabels only on the
// compute path, so a cache hit pays for the labeling alone.
//
// Soundness contract (the cache key argument in DESIGN.md): when
// `exact` is true, the digest hashes the *complete* canonical encoding —
// every scope, every tuple, every domain bound — so two exact fingerprints
// collide only if the requests are isomorphic (identical up to variable
// relabeling) or on a 2^-128 hash collision. Isomorphic requests share
// answers *after* un-relabeling, which is why the labeling carries the
// permutation. When the individualization search exceeds its budget
// (pathologically symmetric instances), the fingerprint is flagged
// `exact = false` and salted with a process-unique nonce so it never
// matches anything: the serving layer degrades to uncached execution
// instead of risking an unsound key.

#ifndef CSPDB_SERVICE_FINGERPRINT_H_
#define CSPDB_SERVICE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "csp/instance.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "relational/structure.h"

namespace cspdb::service {

/// A 128-bit digest. `exact` distinguishes sound cache keys from
/// budget-exhausted fallbacks (see file comment).
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool exact = true;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi && a.exact == b.exact;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }

  /// 32 hex digits, hi word first.
  std::string ToHex() const;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// The canonical labeling of a CSP instance: its fingerprint, and
/// `perm[v]`, the canonical index of original variable `v`.
struct CspLabeling {
  Fingerprint fingerprint;
  std::vector<int> perm;
};

/// Labels `csp` (see file comment). Deterministic; invariant under
/// variable renaming, constraint reordering, and tuple reordering when
/// fingerprint.exact.
CspLabeling LabelCsp(const CspInstance& csp);

/// `csp` relabeled by `perm` (one entry per variable), with constraints
/// in canonical order and each relation's tuples sorted. Given
/// LabelCsp(csp).perm, isomorphic instances relabel to identical
/// instances, and an answer computed on the result maps back to `csp` via
///   original_solution[v] = canonical_solution[perm[v]].
CspInstance RelabeledCsp(const CspInstance& csp,
                         const std::vector<int>& perm);

/// A CSP instance's labeling together with its canonical instance.
struct CanonicalCsp {
  Fingerprint fingerprint;
  std::vector<int> perm;
  CspInstance canonical;
};

/// LabelCsp followed by RelabeledCsp.
CanonicalCsp CanonicalizeCsp(const CspInstance& csp);

/// Fingerprint of a conjunctive query: head variables are individualized
/// by head position (the output schema is positional), existential
/// variables canonically relabeled, body atoms hashed as a multiset.
/// Invariant under renaming of existential variables and body reordering.
Fingerprint FingerprintQuery(const ConjunctiveQuery& q);

/// Fingerprint of a ground database / EDB: domain size, vocabulary, and
/// each relation's tuples hashed as a multiset (insertion-order
/// independent). Elements are constants, so no relabeling applies.
Fingerprint FingerprintStructure(const Structure& s);

/// Fingerprint of a Datalog program plus goal: each rule's variables are
/// canonically relabeled (head first), rules hashed as a multiset.
Fingerprint FingerprintProgram(const DatalogProgram& program);

/// Order-sensitive combination of fingerprints (for request = engine salt
/// + component digests). Inexactness is contagious.
Fingerprint CombineFingerprints(uint64_t salt,
                                const std::vector<Fingerprint>& parts);

}  // namespace cspdb::service

#endif  // CSPDB_SERVICE_FINGERPRINT_H_
