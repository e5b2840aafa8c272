// Frozen CSP canonicalization: service/fingerprint.cc's CanonicalizeCsp
// from before the labeling (LabelCsp) and the relabeling (RelabeledCsp)
// were split apart. It copies and sorts every relation for the content
// hashes, builds the canonical instance, and sorts every relation again
// for the final digest. It exists solely as the trusted oracle for the
// fingerprint differential test: same fingerprint, same permutation, same
// canonical instance. Do not optimize this file.

#ifndef CSPDB_ORACLES_REFERENCE_CANONICAL_CSP_H_
#define CSPDB_ORACLES_REFERENCE_CANONICAL_CSP_H_

#include "csp/instance.h"
#include "service/fingerprint.h"

namespace cspdb {

/// The pre-change canonicalization of `csp`. An inexact result is salted
/// with this file's own process nonce, so only its `exact` flag and
/// permutation are comparable with the shipping code's.
service::CanonicalCsp ReferenceCanonicalizeCsp(const CspInstance& csp);

}  // namespace cspdb

#endif  // CSPDB_ORACLES_REFERENCE_CANONICAL_CSP_H_
