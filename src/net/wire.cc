#include "net/wire.h"

#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/check.h"

namespace cspdb::net {
namespace {

using service::BoolAnswer;
using service::CheckContainmentRequest;
using service::CspAnswer;
using service::DatalogAnswer;
using service::DatalogFixpointRequest;
using service::EngineAnswer;
using service::EvalCqRequest;
using service::RequestKind;
using service::Response;
using service::RowsAnswer;
using service::ServiceRequest;
using service::SolveCspRequest;
using service::StatusCode;

// Sanity ceilings. Workloads this repo generates sit orders of magnitude
// below them; anything above is either corruption or an attack, and the
// ceilings keep a hostile count from meaning a giant allocation even
// when it is consistent with the payload length. kMaxDomain is a
// network-facing ceiling, deliberately far below what the engines can
// handle in-process: CspInstance's constructor allocates per-variable
// bookkeeping before any constraint bytes are read, so this bound (not
// the payload length) is what caps how much allocation a small hostile
// header can drive.
constexpr int kMaxDomain = 1 << 16;      // variables / values / elements
constexpr int kMaxArity = 64;            // constraint scopes, relations
constexpr int kMaxRuleVariables = 4096;  // rule-local datalog variables
constexpr std::size_t kMaxNameBytes = 256;
constexpr std::size_t kMaxErrorBytes = 64 << 10;

// --- primitive writer -------------------------------------------------------
//
// Every encoder writes through a sink: the payload vector, or a ByteCount
// that adds up the bytes the same encoder would write. EncodeExact runs
// an encoder against both, so each wire layout is defined once and a
// payload is reserved to its exact size before its in-place writes.

struct ByteCount {
  std::size_t bytes = 0;
};

// `n` raw bytes.
void PutBytes(const void* data, std::size_t n, std::vector<uint8_t>* out) {
  const auto* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + n);
}

void PutBytes(const void*, std::size_t n, ByteCount* out) { out->bytes += n; }

// `v` as `kWidth` little-endian bytes.
template <int kWidth, typename Out>
void PutLittleEndian(uint64_t v, Out* out) {
  uint8_t bytes[kWidth];
  for (int i = 0; i < kWidth; ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  PutBytes(bytes, kWidth, out);
}

template <typename Out>
void PutU8(uint8_t v, Out* out) { PutLittleEndian<1>(v, out); }

template <typename Out>
void PutU16(uint16_t v, Out* out) { PutLittleEndian<2>(v, out); }

template <typename Out>
void PutU32(uint32_t v, Out* out) { PutLittleEndian<4>(v, out); }

template <typename Out>
void PutU64(uint64_t v, Out* out) { PutLittleEndian<8>(v, out); }

template <typename Out>
void PutI32(int32_t v, Out* out) { PutU32(static_cast<uint32_t>(v), out); }

template <typename Out>
void PutI64(int64_t v, Out* out) { PutU64(static_cast<uint64_t>(v), out); }

template <typename Out>
void PutString(const std::string& s, Out* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  PutBytes(s.data(), s.size(), out);
}

// `n` i32s back to back, written in place.
void PutI32s(const int* v, std::size_t n, std::vector<uint8_t>* out) {
  const std::size_t base = out->size();
  out->resize(base + 4 * n);
  uint8_t* p = out->data() + base;
  for (std::size_t i = 0; i < n; ++i, p += 4) {
    const auto u = static_cast<uint32_t>(v[i]);
    p[0] = static_cast<uint8_t>(u);
    p[1] = static_cast<uint8_t>(u >> 8);
    p[2] = static_cast<uint8_t>(u >> 16);
    p[3] = static_cast<uint8_t>(u >> 24);
  }
}

void PutI32s(const int*, std::size_t n, ByteCount* out) { out->bytes += 4 * n; }

template <typename Out>
void PutI32Span(const std::vector<int>& v, Out* out) {
  PutU32(static_cast<uint32_t>(v.size()), out);
  PutI32s(v.data(), v.size(), out);
}

// Appends what `encode(sink)` writes to `out`, reserving its exact size
// first by running `encode` against a ByteCount.
template <typename Encode>
void EncodeExact(std::vector<uint8_t>* out, const Encode& encode) {
  ByteCount count;
  encode(&count);
  out->reserve(out->size() + count.bytes);
  encode(out);
}

// --- primitive reader -------------------------------------------------------

// Bounds-checked cursor over the payload. Every Read* returns false once
// the reader has failed; decode functions bail on the first failure and
// surface reader.error(). No Read* ever touches bytes past `size`.
class Reader {
 public:
  Reader(const uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::size_t remaining() const { return size_ - pos_; }

  bool Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      error_ = message;
    }
    return false;
  }

  bool ReadU8(uint8_t* v) {
    if (!Require(1)) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU16(uint16_t* v) {
    if (!Require(2)) return false;
    *v = static_cast<uint16_t>(data_[pos_] |
                               (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (!Require(4)) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (!Require(8)) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool ReadI32(int* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadBool(bool* v) {
    uint8_t b = 0;
    if (!ReadU8(&b)) return false;
    if (b > 1) return Fail("boolean byte not 0 or 1");
    *v = b != 0;
    return true;
  }

  /// Length-prefixed count whose elements occupy at least
  /// `min_bytes_per_element` each: bounds the count by the bytes left so
  /// a lying prefix cannot drive a reserve().
  bool ReadCount(std::size_t min_bytes_per_element, std::size_t max_count,
                 std::size_t* count) {
    uint32_t raw = 0;
    if (!ReadU32(&raw)) return false;
    if (raw > max_count) return Fail("count exceeds protocol maximum");
    if (min_bytes_per_element > 0 &&
        static_cast<std::size_t>(raw) > remaining() / min_bytes_per_element) {
      return Fail("count exceeds remaining payload bytes");
    }
    *count = raw;
    return true;
  }

  bool ReadString(std::size_t max_bytes, std::string* s) {
    std::size_t len = 0;
    if (!ReadCount(1, max_bytes, &len)) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  /// u32 count + that many i32s, each validated into [lo, hi].
  bool ReadI32Array(int lo, int hi, std::size_t max_count,
                    std::vector<int>* out) {
    std::size_t count = 0;
    if (!ReadCount(4, max_count, &count)) return false;
    out->clear();
    return AppendI32s(count, lo, hi, "array element out of range", out);
  }

  /// Appends `count` i32s to `*out`, each validated into [lo, hi]; fails
  /// with `range_error` at the first value outside.
  bool AppendI32s(std::size_t count, int lo, int hi, const char* range_error,
                  std::vector<int>* out) {
    if (count > remaining() / 4) return Fail("payload truncated");
    const std::size_t base = out->size();
    out->resize(base + count);
    int* dst = out->data() + base;
    const uint8_t* p = data_ + pos_;
    for (std::size_t i = 0; i < count; ++i, p += 4) {
      const auto v = static_cast<int32_t>(
          static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
          (static_cast<uint32_t>(p[2]) << 16) |
          (static_cast<uint32_t>(p[3]) << 24));
      if (v < lo || v > hi) return Fail(range_error);
      dst[i] = v;
    }
    pos_ += 4 * count;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Require(std::size_t bytes) {
    if (remaining() < bytes) return Fail("payload truncated");
    return true;
  }

  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// --- CSP instances ----------------------------------------------------------

template <typename Out>
void EncodeCsp(const CspInstance& csp, Out* out) {
  PutI32(csp.num_variables(), out);
  PutI32(csp.num_values(), out);
  PutU32(static_cast<uint32_t>(csp.constraints().size()), out);
  for (const Constraint& c : csp.constraints()) {
    PutI32Span(c.scope, out);
    PutU32(static_cast<uint32_t>(c.allowed.size()), out);
    PutI32s(c.allowed.data().data(), c.allowed.data().size(), out);
  }
}

bool DecodeCsp(Reader* r, std::optional<CspInstance>* out) {
  int num_variables = 0;
  int num_values = 0;
  if (!r->ReadI32(&num_variables) || !r->ReadI32(&num_values)) return false;
  if (num_variables < 0 || num_variables > kMaxDomain) {
    return r->Fail("csp variable count out of range");
  }
  if (num_values < 0 || num_values > kMaxDomain) {
    return r->Fail("csp value count out of range");
  }
  // CspInstance(num_variables, ...) resizes a per-variable vector before
  // a single constraint byte is decoded. Every useful variable occurs in
  // some constraint scope (4 bytes each), so bounding the count by the
  // bytes actually sent keeps a ~30-byte hostile header from driving a
  // large allocation while rejecting no instance a real client encodes.
  if (static_cast<std::size_t>(num_variables) > r->remaining()) {
    return r->Fail("csp variable count exceeds remaining payload bytes");
  }
  std::size_t num_constraints = 0;
  // A constraint is at least a scope length + tuple count (8 bytes).
  if (!r->ReadCount(8, 1u << 20, &num_constraints)) return false;
  out->emplace(num_variables, num_values);
  for (std::size_t i = 0; i < num_constraints; ++i) {
    std::vector<int> scope;
    if (!r->ReadI32Array(0, num_variables - 1, kMaxArity, &scope)) {
      return false;
    }
    if (scope.empty()) return r->Fail("constraint scope is empty");
    const std::size_t arity = scope.size();
    std::size_t num_tuples = 0;
    if (!r->ReadCount(4 * arity, 1u << 24, &num_tuples)) return false;
    // The rows go straight into the flat buffer the constraint keeps.
    std::vector<int> rows;
    if (!r->AppendI32s(num_tuples * arity, 0, num_values - 1,
                       "constraint tuple value out of range", &rows)) {
      return false;
    }
    (*out)->AddConstraintRows(std::move(scope), std::move(rows));
  }
  return true;
}

// --- structures -------------------------------------------------------------

template <typename Out>
void EncodeStructure(const Structure& s, Out* out) {
  const Vocabulary& voc = s.vocabulary();
  PutU32(static_cast<uint32_t>(voc.size()), out);
  for (int i = 0; i < voc.size(); ++i) {
    PutString(voc.symbol(i).name, out);
    PutI32(voc.symbol(i).arity, out);
  }
  PutI32(s.domain_size(), out);
  for (int rel = 0; rel < voc.size(); ++rel) {
    const std::vector<Tuple>& tuples = s.tuples(rel);
    PutU32(static_cast<uint32_t>(tuples.size()), out);
    for (const Tuple& t : tuples) PutI32s(t.data(), t.size(), out);
  }
}

bool DecodeStructure(Reader* r, std::optional<Structure>* out) {
  std::size_t num_symbols = 0;
  // name length + arity is at least 8 bytes per symbol.
  if (!r->ReadCount(8, 1u << 16, &num_symbols)) return false;
  Vocabulary voc;
  std::unordered_set<std::string> names;
  std::vector<int> arities;
  arities.reserve(num_symbols);
  for (std::size_t i = 0; i < num_symbols; ++i) {
    std::string name;
    int arity = 0;
    if (!r->ReadString(kMaxNameBytes, &name) || !r->ReadI32(&arity)) {
      return false;
    }
    if (name.empty()) return r->Fail("relation symbol name is empty");
    if (arity < 1 || arity > kMaxArity) {
      return r->Fail("relation arity out of range");
    }
    if (!names.insert(name).second) {
      return r->Fail("duplicate relation symbol name");
    }
    voc.AddSymbol(name, arity);
    arities.push_back(arity);
  }
  int domain_size = 0;
  if (!r->ReadI32(&domain_size)) return false;
  if (domain_size < 0 || domain_size > kMaxDomain) {
    return r->Fail("structure domain size out of range");
  }
  out->emplace(std::move(voc), domain_size);
  for (std::size_t rel = 0; rel < num_symbols; ++rel) {
    const std::size_t arity = static_cast<std::size_t>(arities[rel]);
    std::size_t num_tuples = 0;
    if (!r->ReadCount(4 * arity, 1u << 24, &num_tuples)) return false;
    for (std::size_t t = 0; t < num_tuples; ++t) {
      Tuple tuple(arity);
      for (std::size_t k = 0; k < arity; ++k) {
        if (!r->ReadI32(&tuple[k])) return false;
        if (tuple[k] < 0 || tuple[k] >= domain_size) {
          return r->Fail("structure tuple element out of range");
        }
      }
      (*out)->AddTuple(static_cast<int>(rel), std::move(tuple));
    }
  }
  return true;
}

// --- conjunctive queries ----------------------------------------------------

template <typename Out>
void EncodeQuery(const ConjunctiveQuery& q, Out* out) {
  PutI32(q.num_variables(), out);
  PutI32Span(q.head(), out);
  PutU32(static_cast<uint32_t>(q.body().size()), out);
  for (const Atom& atom : q.body()) {
    PutString(atom.predicate, out);
    PutI32Span(atom.args, out);
  }
}

bool DecodeQuery(Reader* r, std::optional<ConjunctiveQuery>* out) {
  int num_variables = 0;
  if (!r->ReadI32(&num_variables)) return false;
  if (num_variables < 0 || num_variables > kMaxDomain) {
    return r->Fail("query variable count out of range");
  }
  std::vector<int> head;
  if (!r->ReadI32Array(0, num_variables - 1, 1u << 16, &head)) return false;
  std::size_t num_atoms = 0;
  // predicate length + args length is at least 8 bytes per atom.
  if (!r->ReadCount(8, 1u << 20, &num_atoms)) return false;
  std::vector<Atom> body;
  body.reserve(num_atoms);
  std::unordered_map<std::string, std::size_t> arity_of;
  for (std::size_t i = 0; i < num_atoms; ++i) {
    Atom atom;
    if (!r->ReadString(kMaxNameBytes, &atom.predicate)) return false;
    if (atom.predicate.empty()) return r->Fail("atom predicate is empty");
    if (!r->ReadI32Array(0, num_variables - 1, kMaxArity, &atom.args)) {
      return false;
    }
    if (atom.args.empty()) return r->Fail("atom argument list is empty");
    auto [it, inserted] = arity_of.emplace(atom.predicate, atom.args.size());
    if (!inserted && it->second != atom.args.size()) {
      return r->Fail("inconsistent arity for predicate " + atom.predicate);
    }
    body.push_back(std::move(atom));
  }
  out->emplace(num_variables, std::move(head), std::move(body));
  return true;
}

// --- datalog programs -------------------------------------------------------

template <typename Out>
void EncodeDatalogAtom(const DatalogAtom& atom, Out* out) {
  PutString(atom.predicate, out);
  PutI32Span(atom.args, out);
}

template <typename Out>
void EncodeProgram(const DatalogProgram& program, Out* out) {
  PutU32(static_cast<uint32_t>(program.rules().size()), out);
  for (const DatalogRule& rule : program.rules()) {
    EncodeDatalogAtom(rule.head, out);
    PutU32(static_cast<uint32_t>(rule.body.size()), out);
    for (const DatalogAtom& atom : rule.body) EncodeDatalogAtom(atom, out);
    PutI32(rule.num_variables, out);
  }
  PutString(program.goal(), out);
}

bool DecodeDatalogAtom(Reader* r, int num_variables, DatalogAtom* atom) {
  if (!r->ReadString(kMaxNameBytes, &atom->predicate)) return false;
  if (atom->predicate.empty()) return r->Fail("datalog predicate is empty");
  // Arity 0 is legal in datalog (Boolean goal predicates).
  return r->ReadI32Array(0, num_variables - 1, kMaxArity, &atom->args);
}

bool DecodeProgram(Reader* r, std::optional<DatalogProgram>* out) {
  std::size_t num_rules = 0;
  if (!r->ReadCount(16, 1u << 16, &num_rules)) return false;
  // Structural pass first: DatalogProgram::AddRule aborts on violations,
  // so safety, ranges, and arity consistency are all proven here.
  struct PendingRule {
    DatalogRule rule;
  };
  std::vector<PendingRule> pending;
  pending.reserve(num_rules);
  std::unordered_map<std::string, std::size_t> arity_of;
  std::unordered_set<std::string> head_predicates;
  for (std::size_t i = 0; i < num_rules; ++i) {
    DatalogRule rule;
    // num_variables arrives after the atoms; read atoms with the widest
    // bound and re-validate below.
    if (!DecodeDatalogAtom(r, kMaxRuleVariables, &rule.head)) return false;
    std::size_t body_len = 0;
    if (!r->ReadCount(8, 1u << 16, &body_len)) return false;
    rule.body.resize(body_len);
    for (std::size_t b = 0; b < body_len; ++b) {
      if (!DecodeDatalogAtom(r, kMaxRuleVariables, &rule.body[b])) {
        return false;
      }
    }
    if (!r->ReadI32(&rule.num_variables)) return false;
    if (rule.num_variables < 0 || rule.num_variables > kMaxRuleVariables) {
      return r->Fail("datalog rule variable count out of range");
    }
    std::unordered_set<int> body_vars;
    for (const DatalogAtom& atom : rule.body) {
      for (int v : atom.args) {
        if (v >= rule.num_variables) {
          return r->Fail("datalog body variable out of range");
        }
        body_vars.insert(v);
      }
    }
    for (int v : rule.head.args) {
      if (v >= rule.num_variables) {
        return r->Fail("datalog head variable out of range");
      }
      if (body_vars.count(v) == 0) {
        return r->Fail("unsafe datalog rule: head variable not in body");
      }
    }
    for (const DatalogAtom* atom : [&] {
           std::vector<const DatalogAtom*> atoms{&rule.head};
           for (const DatalogAtom& a : rule.body) atoms.push_back(&a);
           return atoms;
         }()) {
      auto [it, inserted] =
          arity_of.emplace(atom->predicate, atom->args.size());
      if (!inserted && it->second != atom->args.size()) {
        return r->Fail("inconsistent arity for predicate " + atom->predicate);
      }
    }
    head_predicates.insert(rule.head.predicate);
    pending.push_back({std::move(rule)});
  }
  std::string goal;
  if (!r->ReadString(kMaxNameBytes, &goal)) return false;
  // The fixpoint answer is the goal's facts: a program without one has no
  // answer to give.
  if (head_predicates.count(goal) == 0) {
    return r->Fail("datalog goal is not an IDB predicate");
  }
  out->emplace();
  for (PendingRule& p : pending) (*out)->AddRule(std::move(p.rule));
  (*out)->SetGoal(goal);
  return true;
}

// --- cross-component checks -------------------------------------------------
//
// Shapes whose parts each decode fine but which the engine would meet
// with a CSPDB_CHECK, aborting the node. The engine checks stay as
// programmer-error guards; a request gets its error here.

bool CheckEvalCq(Reader* r, const ConjunctiveQuery& q, const Structure& db) {
  std::vector<char> in_body(static_cast<std::size_t>(q.num_variables()), 0);
  for (const Atom& atom : q.body()) {
    const int rel = db.vocabulary().IndexOf(atom.predicate);
    if (rel >= 0 && db.vocabulary().symbol(rel).arity !=
                        static_cast<int>(atom.args.size())) {
      return r->Fail("atom arity differs from database relation " +
                     atom.predicate);
    }
    for (int v : atom.args) in_body[v] = 1;
  }
  for (int h : q.head()) {
    if (!in_body[h]) return r->Fail("unsafe query: head variable not in body");
  }
  return true;
}

bool CheckDatalog(Reader* r, const DatalogProgram& program,
                  const Structure& edb) {
  for (const std::string& pred : program.predicates()) {
    if (program.IsIdb(pred)) continue;
    const int rel = edb.vocabulary().IndexOf(pred);
    if (rel >= 0 && edb.vocabulary().symbol(rel).arity !=
                        program.ArityOf(pred)) {
      return r->Fail("EDB arity mismatch for " + pred);
    }
  }
  return true;
}

bool CheckContainment(Reader* r, const ConjunctiveQuery& q1,
                      const ConjunctiveQuery& q2) {
  if (q1.head().size() != q2.head().size()) {
    return r->Fail("containment requires equal head arity");
  }
  const Vocabulary& v1 = q1.body_vocabulary();
  const Vocabulary& v2 = q2.body_vocabulary();
  for (int i = 0; i < v2.size(); ++i) {
    const int j = v1.IndexOf(v2.symbol(i).name);
    if (j >= 0 && v1.symbol(j).arity != v2.symbol(i).arity) {
      return r->Fail("queries disagree on arity of " + v2.symbol(i).name);
    }
  }
  // The canonical databases mark head slot i with a predicate "__P<i>".
  for (std::size_t i = 0; i < q1.head().size(); ++i) {
    const std::string marker = "__P" + std::to_string(i);
    if (v1.IndexOf(marker) >= 0 || v2.IndexOf(marker) >= 0) {
      return r->Fail("predicate name " + marker + " is reserved");
    }
  }
  return true;
}

// --- requests ---------------------------------------------------------------

template <typename Out>
void EncodeRequest(const ServiceRequest& request, Out* out) {
  PutU8(static_cast<uint8_t>(KindOf(request)), out);
  struct Encoder {
    Out* out;
    void operator()(const SolveCspRequest& r) const {
      EncodeCsp(r.instance, out);
    }
    void operator()(const EvalCqRequest& r) const {
      EncodeQuery(r.query, out);
      EncodeStructure(r.database, out);
    }
    void operator()(const DatalogFixpointRequest& r) const {
      EncodeProgram(r.program, out);
      EncodeStructure(r.edb, out);
    }
    void operator()(const CheckContainmentRequest& r) const {
      EncodeQuery(r.q1, out);
      EncodeQuery(r.q2, out);
    }
  };
  std::visit(Encoder{out}, request);
}

// --- answers ----------------------------------------------------------------

template <typename Out>
void EncodeRows(const RowsAnswer& rows, Out* out) {
  PutI32(rows.arity, out);
  PutI64(rows.num_rows, out);
  PutI32Span(rows.rows, out);
}

bool DecodeRows(Reader* r, RowsAnswer* rows) {
  if (!r->ReadI32(&rows->arity) || !r->ReadI64(&rows->num_rows)) return false;
  if (rows->arity < 0 || rows->arity > 1 << 16) {
    return r->Fail("rows arity out of range");
  }
  if (rows->num_rows < 0) return r->Fail("negative row count");
  std::size_t count = 0;
  if (!r->ReadCount(4, 1u << 26, &count)) return false;
  if (rows->arity > 0) {
    // Check via division: num_rows * arity is a product of two
    // attacker-controlled values and can wrap mod 2^64 into agreement
    // with count (e.g. arity 2^16, num_rows 2^48, count 0).
    const uint64_t arity = static_cast<uint64_t>(rows->arity);
    if (count % arity != 0 ||
        static_cast<uint64_t>(rows->num_rows) != count / arity) {
      return r->Fail("row payload does not match num_rows * arity");
    }
  } else if (count != 0) {
    return r->Fail("arity-0 rows must carry no values");
  }
  rows->rows.clear();
  return r->AppendI32s(count, std::numeric_limits<int32_t>::min(),
                       std::numeric_limits<int32_t>::max(),
                       "row value out of range", &rows->rows);
}

template <typename Out>
void EncodeAnswer(const EngineAnswer& answer, Out* out) {
  PutU8(static_cast<uint8_t>(answer.index()), out);
  struct Encoder {
    Out* out;
    void operator()(const CspAnswer& a) const {
      PutU8(a.solution.has_value() ? 1 : 0, out);
      if (a.solution.has_value()) PutI32Span(*a.solution, out);
      PutU8(a.complete ? 1 : 0, out);
    }
    void operator()(const RowsAnswer& a) const { EncodeRows(a, out); }
    void operator()(const DatalogAnswer& a) const {
      PutU8(a.goal_derived ? 1 : 0, out);
      EncodeRows(a.goal_facts, out);
      PutI64(a.total_idb_facts, out);
    }
    void operator()(const BoolAnswer& a) const {
      PutU8(a.value ? 1 : 0, out);
    }
  };
  std::visit(Encoder{out}, answer);
}

bool DecodeAnswer(Reader* r, EngineAnswer* answer) {
  uint8_t index = 0;
  if (!r->ReadU8(&index)) return false;
  switch (index) {
    case 0: {
      CspAnswer a;
      bool has_solution = false;
      if (!r->ReadBool(&has_solution)) return false;
      if (has_solution) {
        std::vector<int> solution;
        if (!r->ReadI32Array(0, kMaxDomain, 1u << 22, &solution)) {
          return false;
        }
        a.solution = std::move(solution);
      }
      if (!r->ReadBool(&a.complete)) return false;
      *answer = std::move(a);
      return true;
    }
    case 1: {
      RowsAnswer a;
      if (!DecodeRows(r, &a)) return false;
      *answer = std::move(a);
      return true;
    }
    case 2: {
      DatalogAnswer a;
      if (!r->ReadBool(&a.goal_derived)) return false;
      if (!DecodeRows(r, &a.goal_facts)) return false;
      if (!r->ReadI64(&a.total_idb_facts)) return false;
      if (a.total_idb_facts < 0) return r->Fail("negative fact count");
      *answer = std::move(a);
      return true;
    }
    case 3: {
      BoolAnswer a;
      if (!r->ReadBool(&a.value)) return false;
      *answer = a;
      return true;
    }
    default:
      return r->Fail("unknown answer variant");
  }
}

}  // namespace

// --- public encoders --------------------------------------------------------

void EncodeRequestPayload(const ServiceRequest& request,
                          std::vector<uint8_t>* out) {
  EncodeExact(out, [&](auto* sink) { EncodeRequest(request, sink); });
}

void EncodeResponsePayload(const Response& response,
                           std::vector<uint8_t>* out) {
  uint8_t bits = 0;
  if (response.cache_hit) bits |= 1u << 0;
  if (response.coalesced) bits |= 1u << 1;
  if (response.served_remotely) bits |= 1u << 2;
  EncodeExact(out, [&](auto* sink) {
    PutU8(static_cast<uint8_t>(response.status), sink);
    PutU8(static_cast<uint8_t>(response.kind), sink);
    PutU8(bits, sink);
    PutI64(response.latency_ns, sink);
    PutI64(response.queue_wait_ns, sink);
    EncodeAnswer(response.answer, sink);
  });
}

void EncodeErrorPayload(const std::string& message,
                        std::vector<uint8_t>* out) {
  std::string clipped = message;
  if (clipped.size() > kMaxErrorBytes) clipped.resize(kMaxErrorBytes);
  PutString(clipped, out);
}

std::vector<uint8_t> AnswerBytes(const Response& response) {
  std::vector<uint8_t> out;
  EncodeExact(&out, [&](auto* sink) {
    PutU8(static_cast<uint8_t>(response.status), sink);
    PutU8(static_cast<uint8_t>(response.kind), sink);
    if (response.status == StatusCode::kOk) {
      EncodeAnswer(response.answer, sink);
    }
  });
  return out;
}

// --- public decoders --------------------------------------------------------

std::optional<ServiceRequest> DecodeRequestPayload(const uint8_t* data,
                                                   std::size_t size,
                                                   std::string* error) {
  Reader r(data, size);
  uint8_t kind = 0;
  if (!r.ReadU8(&kind)) {
    *error = r.error();
    return std::nullopt;
  }
  std::optional<ServiceRequest> request;
  switch (kind) {
    case static_cast<uint8_t>(RequestKind::kSolveCsp): {
      std::optional<CspInstance> csp;
      if (DecodeCsp(&r, &csp)) request = SolveCspRequest{std::move(*csp)};
      break;
    }
    case static_cast<uint8_t>(RequestKind::kEvalCq): {
      std::optional<ConjunctiveQuery> query;
      std::optional<Structure> db;
      if (DecodeQuery(&r, &query) && DecodeStructure(&r, &db) &&
          CheckEvalCq(&r, *query, *db)) {
        request = EvalCqRequest{std::move(*query), std::move(*db)};
      }
      break;
    }
    case static_cast<uint8_t>(RequestKind::kDatalogFixpoint): {
      std::optional<DatalogProgram> program;
      std::optional<Structure> edb;
      if (DecodeProgram(&r, &program) && DecodeStructure(&r, &edb) &&
          CheckDatalog(&r, *program, *edb)) {
        request = DatalogFixpointRequest{std::move(*program), std::move(*edb)};
      }
      break;
    }
    case static_cast<uint8_t>(RequestKind::kCheckContainment): {
      std::optional<ConjunctiveQuery> q1;
      std::optional<ConjunctiveQuery> q2;
      if (DecodeQuery(&r, &q1) && DecodeQuery(&r, &q2) &&
          CheckContainment(&r, *q1, *q2)) {
        request = CheckContainmentRequest{std::move(*q1), std::move(*q2)};
      }
      break;
    }
    default:
      r.Fail("unknown request kind");
      break;
  }
  if (!request.has_value()) {
    *error = r.error().empty() ? "malformed request payload" : r.error();
    return std::nullopt;
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes after request payload";
    return std::nullopt;
  }
  return request;
}

std::optional<Response> DecodeResponsePayload(const uint8_t* data,
                                              std::size_t size,
                                              std::string* error) {
  Reader r(data, size);
  Response response;
  uint8_t status = 0;
  uint8_t kind = 0;
  uint8_t bits = 0;
  if (!r.ReadU8(&status) || !r.ReadU8(&kind) || !r.ReadU8(&bits)) {
    *error = r.error();
    return std::nullopt;
  }
  if (status > static_cast<uint8_t>(StatusCode::kRejected)) {
    *error = "unknown response status";
    return std::nullopt;
  }
  if (kind >= static_cast<uint8_t>(service::kNumRequestKinds)) {
    *error = "unknown response kind";
    return std::nullopt;
  }
  if (bits & ~0x7u) {
    *error = "unknown response flag bits";
    return std::nullopt;
  }
  response.status = static_cast<StatusCode>(status);
  response.kind = static_cast<RequestKind>(kind);
  response.cache_hit = (bits & (1u << 0)) != 0;
  response.coalesced = (bits & (1u << 1)) != 0;
  response.served_remotely = (bits & (1u << 2)) != 0;
  if (!r.ReadI64(&response.latency_ns) ||
      !r.ReadI64(&response.queue_wait_ns) ||
      !DecodeAnswer(&r, &response.answer)) {
    *error = r.error();
    return std::nullopt;
  }
  if (response.latency_ns < 0 || response.queue_wait_ns < 0) {
    *error = "negative latency";
    return std::nullopt;
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes after response payload";
    return std::nullopt;
  }
  return response;
}

std::optional<std::string> DecodeErrorPayload(const uint8_t* data,
                                              std::size_t size,
                                              std::string* error) {
  Reader r(data, size);
  std::string message;
  if (!r.ReadString(kMaxErrorBytes, &message)) {
    *error = r.error();
    return std::nullopt;
  }
  if (!r.AtEnd()) {
    *error = "trailing bytes after error payload";
    return std::nullopt;
  }
  return message;
}

// --- framing ----------------------------------------------------------------

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  CSPDB_CHECK_MSG(frame.payload.size() <= kMaxPayloadBytes,
                  "frame payload exceeds protocol maximum");
  PutU32(kWireMagic, out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(frame.type), out);
  PutU16(frame.flags, out);
  PutU64(frame.request_id, out);
  PutU32(static_cast<uint32_t>(frame.payload.size()), out);
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
}

void FrameAssembler::Feed(const uint8_t* data, std::size_t size) {
  if (poisoned_) return;
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer does not grow without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameAssembler::Status FrameAssembler::Next(Frame* frame) {
  if (poisoned_) return Status::kProtocolError;
  if (buffer_.size() - consumed_ < kHeaderBytes) return Status::kNeedMore;
  Reader r(buffer_.data() + consumed_, buffer_.size() - consumed_);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_size = 0;
  r.ReadU32(&magic);
  r.ReadU8(&version);
  r.ReadU8(&type);
  r.ReadU16(&flags);
  r.ReadU64(&request_id);
  r.ReadU32(&payload_size);
  if (magic != kWireMagic) {
    poisoned_ = true;
    error_ = "bad frame magic";
    return Status::kProtocolError;
  }
  if (version != kWireVersion) {
    poisoned_ = true;
    error_ = "unsupported wire version " + std::to_string(version);
    return Status::kProtocolError;
  }
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kPong)) {
    poisoned_ = true;
    error_ = "unknown frame type " + std::to_string(type);
    return Status::kProtocolError;
  }
  if ((flags & ~kKnownFlagsMask) != 0) {
    poisoned_ = true;
    error_ = "unknown frame flag bits";
    return Status::kProtocolError;
  }
  if (payload_size > kMaxPayloadBytes) {
    poisoned_ = true;
    error_ = "frame payload length " + std::to_string(payload_size) +
             " exceeds protocol maximum";
    return Status::kProtocolError;
  }
  if (buffer_.size() - consumed_ < kHeaderBytes + payload_size) {
    return Status::kNeedMore;
  }
  frame->type = static_cast<FrameType>(type);
  frame->flags = flags;
  frame->request_id = request_id;
  const uint8_t* payload = buffer_.data() + consumed_ + kHeaderBytes;
  frame->payload.assign(payload, payload + payload_size);
  consumed_ += kHeaderBytes + payload_size;
  return Status::kFrame;
}

void FrameAssembler::Reset() {
  buffer_.clear();
  consumed_ = 0;
  error_.clear();
  poisoned_ = false;
}

}  // namespace cspdb::net
