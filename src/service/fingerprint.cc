#include "service/fingerprint.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <utility>

#include "util/check.h"

namespace cspdb::service {

namespace {

// splitmix64 finalizer: the 64-bit mixing primitive under everything here.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Two independently mixed 64-bit lanes; order-sensitive accumulation.
class Hash128 {
 public:
  void Add(uint64_t x) {
    lo_ = Mix64(lo_ ^ x);
    hi_ = Mix64(hi_ + x * 0xc2b2ae3d27d4eb4full);
  }

  void AddString(const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    Add(h);
    Add(s.size());
  }

  Fingerprint Digest() const { return Fingerprint{lo_, hi_, true}; }

 private:
  uint64_t lo_ = 0x243f6a8885a308d3ull;  // pi digits: arbitrary fixed seeds
  uint64_t hi_ = 0x13198a2e03707344ull;
};

// A vertex-colored hypergraph with ordered, content-carrying edges — the
// common abstraction behind CSP instances (edges = constraints, content =
// relation hash) and query bodies (edges = atoms, content = predicate
// hash). Canonicalization is invariant under any permutation of the
// vertex ids and any reordering of the edge list.
struct LabeledGraph {
  struct Edge {
    uint64_t content_lo = 0;  // 128-bit edge content: collisions between
    uint64_t content_hi = 0;  // distinct contents need both words to clash
    std::vector<int> verts;   // ordered; repeats allowed
  };
  int n = 0;
  std::vector<uint64_t> init_colors;  // size n
  std::vector<Edge> edges;
};

struct CanonResult {
  std::vector<int> perm;           // original vertex -> canonical index
  std::vector<uint64_t> encoding;  // canonical serialization of the graph
  bool exact = true;
};

// One round of color refinement. `colors` are arbitrary 64-bit values;
// returns the refined colors normalized to class ranks (rank by hash
// value — a renaming-invariant order since the hashes are computed from
// renaming-invariant data).
std::vector<uint64_t> RefineOnce(const LabeledGraph& g,
                                 const std::vector<uint64_t>& colors,
                                 int* num_classes) {
  std::vector<uint64_t> sig(g.n);
  for (int v = 0; v < g.n; ++v) sig[v] = Mix64(colors[v]);

  // Per-edge signature from content and in-order endpoint colors, then a
  // per-(edge, vertex) contribution folding in the occurrence positions.
  std::vector<std::vector<uint64_t>> contrib(g.n);
  for (const LabeledGraph::Edge& e : g.edges) {
    uint64_t esig = Mix64(e.content_lo ^ Mix64(e.content_hi));
    for (int v : e.verts) esig = Mix64(esig ^ colors[v]);
    for (std::size_t j = 0; j < e.verts.size(); ++j) {
      contrib[e.verts[j]].push_back(Mix64(esig + j * 0x9e3779b97f4a7c15ull));
    }
  }
  for (int v = 0; v < g.n; ++v) {
    std::sort(contrib[v].begin(), contrib[v].end());
    for (uint64_t c : contrib[v]) sig[v] = Mix64(sig[v] ^ c);
  }

  // Normalize to ranks.
  std::vector<uint64_t> sorted = sig;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int v = 0; v < g.n; ++v) {
    sig[v] = static_cast<uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), sig[v]) -
        sorted.begin());
  }
  *num_classes = static_cast<int>(sorted.size());
  return sig;
}

// Refines to a fixed point (the partition stops splitting).
std::vector<uint64_t> RefineToFixpoint(const LabeledGraph& g,
                                       std::vector<uint64_t> colors,
                                       int* num_classes) {
  int classes = 0;
  {
    // Normalize the input colors to ranks first so `classes` is right
    // even when the loop below exits immediately.
    std::vector<uint64_t> sorted = colors;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    classes = static_cast<int>(sorted.size());
    for (uint64_t& c : colors) {
      c = static_cast<uint64_t>(
          std::lower_bound(sorted.begin(), sorted.end(), c) - sorted.begin());
    }
  }
  while (classes < g.n) {
    int next_classes = 0;
    std::vector<uint64_t> next = RefineOnce(g, colors, &next_classes);
    if (next_classes <= classes) break;  // stable (splits only, never merges)
    colors = std::move(next);
    classes = next_classes;
  }
  *num_classes = classes;
  return colors;
}

// Serializes the graph under `perm`: vertex count, canonically ordered
// init colors, then edges sorted by their relabeled serialization.
std::vector<uint64_t> EncodeUnder(const LabeledGraph& g,
                                  const std::vector<int>& perm) {
  std::vector<uint64_t> out;
  out.push_back(static_cast<uint64_t>(g.n));
  std::vector<uint64_t> colors_by_canon(g.n);
  for (int v = 0; v < g.n; ++v) colors_by_canon[perm[v]] = g.init_colors[v];
  out.insert(out.end(), colors_by_canon.begin(), colors_by_canon.end());

  std::vector<std::vector<uint64_t>> edge_codes;
  edge_codes.reserve(g.edges.size());
  for (const LabeledGraph::Edge& e : g.edges) {
    std::vector<uint64_t> code;
    code.reserve(e.verts.size() + 3);
    code.push_back(e.content_lo);
    code.push_back(e.content_hi);
    code.push_back(e.verts.size());
    for (int v : e.verts) code.push_back(static_cast<uint64_t>(perm[v]));
    edge_codes.push_back(std::move(code));
  }
  std::sort(edge_codes.begin(), edge_codes.end());
  out.push_back(static_cast<uint64_t>(edge_codes.size()));
  for (const auto& code : edge_codes) {
    out.insert(out.end(), code.begin(), code.end());
  }
  return out;
}

// Individualization–refinement canonical labeling: refine; if the
// partition is not discrete, individualize every vertex of the first
// non-singleton class in turn and recurse, keeping the lexicographically
// smallest encoding. Exponential in the worst case, so leaves are
// budgeted; blowing the budget flags the result inexact.
class CanonSearch {
 public:
  explicit CanonSearch(const LabeledGraph& g, int leaf_budget)
      : g_(g), leaf_budget_(leaf_budget) {}

  CanonResult Run() {
    Recurse(g_.init_colors);
    CanonResult result;
    result.exact = exact_;
    if (have_best_) {
      result.perm = std::move(best_perm_);
      result.encoding = std::move(best_encoding_);
    } else {
      // Budget exhausted before any leaf (massive symmetric instance):
      // fall back to an arbitrary-but-deterministic order. The caller
      // salts inexact digests uniquely, so this encoding never keys a
      // cache entry.
      int classes = 0;
      std::vector<uint64_t> colors =
          RefineToFixpoint(g_, g_.init_colors, &classes);
      result.perm = OrderByColorThenIndex(colors);
      result.encoding = EncodeUnder(g_, result.perm);
      result.exact = false;
    }
    return result;
  }

 private:
  std::vector<int> OrderByColorThenIndex(
      const std::vector<uint64_t>& colors) const {
    std::vector<int> verts(g_.n);
    for (int v = 0; v < g_.n; ++v) verts[v] = v;
    std::sort(verts.begin(), verts.end(), [&](int a, int b) {
      return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
    });
    std::vector<int> perm(g_.n);
    for (int i = 0; i < g_.n; ++i) perm[verts[i]] = i;
    return perm;
  }

  void Recurse(std::vector<uint64_t> colors) {
    if (!exact_) return;
    int classes = 0;
    colors = RefineToFixpoint(g_, std::move(colors), &classes);
    if (classes == g_.n) {
      if (leaves_used_ >= leaf_budget_) {
        exact_ = false;
        return;
      }
      ++leaves_used_;
      // Discrete partition: the class ranks are the canonical indices.
      std::vector<int> perm(g_.n);
      for (int v = 0; v < g_.n; ++v) perm[v] = static_cast<int>(colors[v]);
      std::vector<uint64_t> encoding = EncodeUnder(g_, perm);
      if (!have_best_ || encoding < best_encoding_) {
        best_encoding_ = std::move(encoding);
        best_perm_ = std::move(perm);
        have_best_ = true;
      }
      return;
    }
    // First non-singleton class, by class rank.
    std::vector<int> cell_count(classes, 0);
    for (int v = 0; v < g_.n; ++v) ++cell_count[colors[v]];
    uint64_t target = 0;
    while (cell_count[target] == 1) ++target;
    for (int v = 0; v < g_.n && exact_; ++v) {
      if (colors[v] != target) continue;
      std::vector<uint64_t> branch = colors;
      branch[v] = static_cast<uint64_t>(classes);  // fresh singleton class
      Recurse(std::move(branch));
    }
  }

  const LabeledGraph& g_;
  const int leaf_budget_;
  int leaves_used_ = 0;
  bool exact_ = true;
  bool have_best_ = false;
  std::vector<int> best_perm_;
  std::vector<uint64_t> best_encoding_;
};

constexpr int kLeafBudget = 512;

// Engine salts keep digests of different request shapes disjoint.
constexpr uint64_t kSaltCsp = 0x637370'01;
constexpr uint64_t kSaltQuery = 0x6371'02;
constexpr uint64_t kSaltStructure = 0x737472'03;
constexpr uint64_t kSaltRule = 0x72756c'04;
constexpr uint64_t kSaltProgram = 0x70726f'05;

// Process-unique nonce for inexact digests: they must never match
// anything, including each other, so inexact requests bypass the cache
// and single-flight instead of sharing an unsound key.
void SaltInexact(Fingerprint* fp) {
  static std::atomic<uint64_t> nonce{1};
  const uint64_t n = nonce.fetch_add(1, std::memory_order_relaxed);
  fp->lo = Mix64(fp->lo ^ n);
  fp->hi = Mix64(fp->hi + n);
  fp->exact = false;
}

// Folds every value of `rows` into `h`, rows in sorted order.
void AddRows(const SortedRows& rows, Hash128* h) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int* row = rows.row(i);
    for (int k = 0; k < rows.arity(); ++k) {
      h->Add(static_cast<uint64_t>(static_cast<int64_t>(row[k])));
    }
  }
}

// 128-bit content hash of a constraint relation: arity plus the sorted
// tuple set (tuple-order independent).
std::pair<uint64_t, uint64_t> RelationContentHash(const SortedRows& rows,
                                                  int arity) {
  Hash128 h;
  h.Add(static_cast<uint64_t>(arity));
  h.Add(rows.size());
  AddRows(rows, &h);
  const Fingerprint d = h.Digest();
  return {d.lo, d.hi};
}

// A constraint of an instance, its scope relabeled by a permutation.
struct RelabeledConstraint {
  std::vector<int> scope;
  const Constraint* source;
};

// The constraints of `csp` with scopes relabeled by `perm`, in canonical
// order: sorted by relabeled scope, a total order because scopes are
// consolidated (each occurs once).
std::vector<RelabeledConstraint> CanonicalOrder(const CspInstance& csp,
                                                const std::vector<int>& perm) {
  std::vector<RelabeledConstraint> out;
  out.reserve(csp.constraints().size());
  for (const Constraint& c : csp.constraints()) {
    RelabeledConstraint r;
    r.scope.reserve(c.scope.size());
    for (int v : c.scope) r.scope.push_back(perm[v]);
    r.source = &c;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const RelabeledConstraint& a, const RelabeledConstraint& b) {
              return a.scope < b.scope;
            });
  return out;
}

Fingerprint DigestEncoding(uint64_t salt,
                           const std::vector<uint64_t>& encoding,
                           const std::vector<uint64_t>& extra) {
  Hash128 h;
  h.Add(salt);
  for (uint64_t x : extra) h.Add(x);
  h.Add(encoding.size());
  for (uint64_t x : encoding) h.Add(x);
  return h.Digest();
}

}  // namespace

std::string Fingerprint::ToHex() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx%s",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo), exact ? "" : "~");
  return buf;
}

CspLabeling LabelCsp(const CspInstance& csp) {
  LabeledGraph g;
  g.n = csp.num_variables();
  g.init_colors.assign(g.n, 0);
  g.edges.reserve(csp.constraints().size());
  for (const Constraint& c : csp.constraints()) {
    LabeledGraph::Edge e;
    std::tie(e.content_lo, e.content_hi) =
        RelationContentHash(c.allowed_set, c.arity());
    e.verts = c.scope;
    g.edges.push_back(std::move(e));
  }

  CanonResult canon = CanonSearch(g, kLeafBudget).Run();

  const Fingerprint graph = DigestEncoding(
      kSaltCsp, canon.encoding,
      {static_cast<uint64_t>(csp.num_variables()),
       static_cast<uint64_t>(csp.num_values())});
  // The graph encoding carries only the 128-bit relation content hashes;
  // fold the full tuple data in as well so the digest depends on every
  // value of every tuple directly (relabeled-scope order is canonical).
  Hash128 h;
  h.Add(graph.lo);
  h.Add(graph.hi);
  for (const RelabeledConstraint& c : CanonicalOrder(csp, canon.perm)) {
    for (int v : c.scope) h.Add(static_cast<uint64_t>(v));
    AddRows(c.source->allowed_set, &h);
  }
  CspLabeling out{h.Digest(), std::move(canon.perm)};
  if (!canon.exact) SaltInexact(&out.fingerprint);
  return out;
}

CspInstance RelabeledCsp(const CspInstance& csp,
                         const std::vector<int>& perm) {
  CSPDB_CHECK(static_cast<int>(perm.size()) == csp.num_variables());
  CspInstance out(csp.num_variables(), csp.num_values());
  // Each relation enters as its sorted rows, which AddConstraintRows
  // takes without a sort.
  for (RelabeledConstraint& c : CanonicalOrder(csp, perm)) {
    out.AddConstraintRows(std::move(c.scope), c.source->allowed_set.data());
  }
  return out;
}

CanonicalCsp CanonicalizeCsp(const CspInstance& csp) {
  CspLabeling labeling = LabelCsp(csp);
  CspInstance canonical = RelabeledCsp(csp, labeling.perm);
  return {labeling.fingerprint, std::move(labeling.perm),
          std::move(canonical)};
}

Fingerprint FingerprintQuery(const ConjunctiveQuery& q) {
  LabeledGraph g;
  g.n = q.num_variables();
  g.init_colors.assign(g.n, 0);
  // Individualize head variables by their (sorted) head-position sets:
  // the output schema is positional, so head roles are not renameable.
  for (std::size_t i = 0; i < q.head().size(); ++i) {
    const int v = q.head()[i];
    g.init_colors[v] = Mix64(g.init_colors[v] ^ Mix64(i + 1));
  }
  g.edges.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    LabeledGraph::Edge e;
    Hash128 h;
    h.AddString(a.predicate);
    const Fingerprint d = h.Digest();
    e.content_lo = d.lo;
    e.content_hi = d.hi;
    e.verts = a.args;
    g.edges.push_back(std::move(e));
  }
  CanonResult canon = CanonSearch(g, kLeafBudget).Run();
  Fingerprint fp = DigestEncoding(
      kSaltQuery, canon.encoding,
      {static_cast<uint64_t>(q.num_variables()),
       static_cast<uint64_t>(q.head().size())});
  if (!canon.exact) SaltInexact(&fp);
  return fp;
}

Fingerprint FingerprintStructure(const Structure& s) {
  Hash128 h;
  h.Add(kSaltStructure);
  h.Add(static_cast<uint64_t>(s.domain_size()));
  h.Add(static_cast<uint64_t>(s.vocabulary().size()));
  for (int r = 0; r < s.vocabulary().size(); ++r) {
    const RelationSymbol& sym = s.vocabulary().symbol(r);
    h.AddString(sym.name);
    h.Add(static_cast<uint64_t>(sym.arity));
    std::vector<Tuple> tuples = s.tuples(r);
    std::sort(tuples.begin(), tuples.end());
    h.Add(tuples.size());
    for (const Tuple& t : tuples) {
      for (int x : t) h.Add(static_cast<uint64_t>(static_cast<int64_t>(x)));
    }
  }
  return h.Digest();
}

Fingerprint FingerprintProgram(const DatalogProgram& program) {
  // Canonicalize each rule's variables (head args are positional roles),
  // then hash the rules as a multiset.
  std::vector<std::pair<uint64_t, uint64_t>> rule_digests;
  bool exact = true;
  rule_digests.reserve(program.rules().size());
  for (const DatalogRule& rule : program.rules()) {
    LabeledGraph g;
    g.n = rule.num_variables;
    g.init_colors.assign(g.n, 0);
    for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
      const int v = rule.head.args[i];
      g.init_colors[v] = Mix64(g.init_colors[v] ^ Mix64(i + 1));
    }
    g.edges.reserve(rule.body.size() + 1);
    {
      LabeledGraph::Edge e;
      Hash128 h;
      h.Add(0x68656164ull);  // "head"
      h.AddString(rule.head.predicate);
      const Fingerprint d = h.Digest();
      e.content_lo = d.lo;
      e.content_hi = d.hi;
      e.verts = rule.head.args;
      g.edges.push_back(std::move(e));
    }
    for (const DatalogAtom& a : rule.body) {
      LabeledGraph::Edge e;
      Hash128 h;
      h.AddString(a.predicate);
      const Fingerprint d = h.Digest();
      e.content_lo = d.lo;
      e.content_hi = d.hi;
      e.verts = a.args;
      g.edges.push_back(std::move(e));
    }
    CanonResult canon = CanonSearch(g, kLeafBudget).Run();
    exact = exact && canon.exact;
    const Fingerprint fp = DigestEncoding(
        kSaltRule, canon.encoding,
        {static_cast<uint64_t>(rule.num_variables)});
    rule_digests.emplace_back(fp.lo, fp.hi);
  }
  std::sort(rule_digests.begin(), rule_digests.end());
  Hash128 h;
  h.Add(kSaltProgram);
  h.AddString(program.goal());
  h.Add(rule_digests.size());
  for (const auto& [lo, hi] : rule_digests) {
    h.Add(lo);
    h.Add(hi);
  }
  Fingerprint fp = h.Digest();
  if (!exact) SaltInexact(&fp);
  return fp;
}

Fingerprint CombineFingerprints(uint64_t salt,
                                const std::vector<Fingerprint>& parts) {
  Hash128 h;
  h.Add(salt);
  bool exact = true;
  for (const Fingerprint& p : parts) {
    h.Add(p.lo);
    h.Add(p.hi);
    exact = exact && p.exact;
  }
  Fingerprint fp = h.Digest();
  fp.exact = exact;
  return fp;
}

}  // namespace cspdb::service
