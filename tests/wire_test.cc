// Wire-protocol decoder fuzz/property suite (ISSUE 10 satellite). The
// decoder's contract is *strict and total*: any byte sequence — valid,
// truncated, oversized, version-skewed, bit-flipped, or garbage — must
// produce either a decoded value or a clean protocol error. It must
// never abort (the engine constructors CSPDB_CHECK on malformed input,
// so reaching one with unvalidated bytes is the bug this suite exists to
// catch) and never read out of bounds (the ASan/UBSan CI tiers run this
// file to hold that line).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "net/wire.h"
#include "relational/structure.h"
#include "service/fingerprint.h"
#include "service/request.h"
#include "service/workload.h"
#include "util/rng.h"

namespace cspdb::net {
namespace {

using service::Response;
using service::ServiceRequest;
using service::StatusCode;

std::vector<ServiceRequest> SampleRequests() {
  service::WorkloadOptions options;
  options.seed = 7;
  options.num_requests = 40;
  options.pool_size = 6;
  options.mutation_prob = 0.3;
  return service::GenerateRequestStream(options);
}

std::vector<uint8_t> Encode(const ServiceRequest& request) {
  std::vector<uint8_t> payload;
  EncodeRequestPayload(request, &payload);
  return payload;
}

// Canonical fingerprints see through encoding: decode(encode(r)) must
// fingerprint identically to r, which is the property the peer cache
// depends on (a forwarded request must hit the owner's cache entry).
service::Fingerprint FingerprintOf(const ServiceRequest& request) {
  switch (service::KindOf(request)) {
    case service::RequestKind::kSolveCsp:
      return service::CanonicalizeCsp(
                 std::get<service::SolveCspRequest>(request).instance)
          .fingerprint;
    case service::RequestKind::kEvalCq: {
      const auto& req = std::get<service::EvalCqRequest>(request);
      return service::CombineFingerprints(
          1, {service::FingerprintQuery(req.query),
              service::FingerprintStructure(req.database)});
    }
    case service::RequestKind::kDatalogFixpoint: {
      const auto& req = std::get<service::DatalogFixpointRequest>(request);
      return service::CombineFingerprints(
          2, {service::FingerprintProgram(req.program),
              service::FingerprintStructure(req.edb)});
    }
    case service::RequestKind::kCheckContainment: {
      const auto& req = std::get<service::CheckContainmentRequest>(request);
      return service::CombineFingerprints(
          3, {service::FingerprintQuery(req.q1),
              service::FingerprintQuery(req.q2)});
    }
  }
  return {};
}

TEST(WireRequest, RoundTripsEveryKindAndPreservesFingerprints) {
  int kinds_seen[4] = {0, 0, 0, 0};
  for (const ServiceRequest& request : SampleRequests()) {
    ++kinds_seen[static_cast<int>(service::KindOf(request))];
    const std::vector<uint8_t> payload = Encode(request);
    std::string error;
    std::optional<ServiceRequest> decoded =
        DecodeRequestPayload(payload.data(), payload.size(), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(service::KindOf(*decoded), service::KindOf(request));
    // Re-encoding the decoded request must be byte-identical (the
    // encoding is canonical), and the canonical fingerprint must
    // survive the trip.
    EXPECT_EQ(Encode(*decoded), payload);
    const service::Fingerprint a = FingerprintOf(request);
    const service::Fingerprint b = FingerprintOf(*decoded);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.exact, b.exact);
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(kinds_seen[k], 0) << "workload produced no kind-" << k
                                << " requests; suite lost coverage";
  }
}

TEST(WireRequest, EveryTruncationFailsCleanly) {
  for (const ServiceRequest& request : SampleRequests()) {
    const std::vector<uint8_t> payload = Encode(request);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      std::string error;
      std::optional<ServiceRequest> decoded =
          DecodeRequestPayload(payload.data(), len, &error);
      EXPECT_FALSE(decoded.has_value())
          << "prefix of " << len << "/" << payload.size()
          << " bytes decoded as a complete request";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(WireRequest, TrailingBytesRejected) {
  std::vector<uint8_t> payload = Encode(SampleRequests().front());
  payload.push_back(0);
  std::string error;
  EXPECT_FALSE(
      DecodeRequestPayload(payload.data(), payload.size(), &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(WireRequest, ByteFlipFuzzNeverCrashes) {
  // Flip one byte at a time (every position, several values) and decode.
  // The decoder may accept (a flipped value byte can still be valid) or
  // reject, but must never abort or read out of bounds — under ASan this
  // test is the memory-safety proof for the whole decode surface.
  Rng rng(123);
  const std::vector<ServiceRequest> requests = SampleRequests();
  for (std::size_t r = 0; r < 8 && r < requests.size(); ++r) {
    const std::vector<uint8_t> payload = Encode(requests[r]);
    for (std::size_t pos = 0; pos < payload.size(); ++pos) {
      std::vector<uint8_t> mutated = payload;
      mutated[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
      std::string error;
      (void)DecodeRequestPayload(mutated.data(), mutated.size(), &error);
    }
  }
}

TEST(WireRequest, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint8_t> garbage(rng.UniformInt(0, 200));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    std::string error;
    (void)DecodeRequestPayload(garbage.data(), garbage.size(), &error);
  }
}

TEST(WireRequest, LyingCountsAreRejectedWithoutAllocation) {
  // kind=SolveCsp, plausible variables/values, then a constraint count
  // far beyond the remaining bytes: the bounded-count rule must reject
  // it before any reserve() happens.
  std::vector<uint8_t> payload;
  payload.push_back(0);                        // kind = SolveCsp
  for (uint8_t b : {10, 0, 0, 0}) payload.push_back(b);  // num_variables
  for (uint8_t b : {4, 0, 0, 0}) payload.push_back(b);   // num_values
  for (int i = 0; i < 4; ++i) payload.push_back(0xff);   // constraints = 2^32-1
  std::string error;
  EXPECT_FALSE(
      DecodeRequestPayload(payload.data(), payload.size(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(WireRequest, HugeVariableCountInTinyPayloadRejected) {
  // CspInstance's constructor allocates per-variable bookkeeping, so a
  // hostile header claiming the maximum variable count in a ~13-byte
  // payload must be rejected *before* construction — the variable count
  // is bounded by the bytes actually sent, not just the range ceiling.
  std::vector<uint8_t> payload;
  payload.push_back(0);  // kind = SolveCsp
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<uint8_t>((1u << 16) >> (8 * i)));
  }
  for (uint8_t b : {2, 0, 0, 0}) payload.push_back(b);  // num_values
  for (uint8_t b : {0, 0, 0, 0}) payload.push_back(b);  // no constraints
  std::string error;
  EXPECT_FALSE(
      DecodeRequestPayload(payload.data(), payload.size(), &error).has_value());
  EXPECT_NE(error.find("remaining payload"), std::string::npos) << error;
}

TEST(WireRequest, SemanticViolationsRejected) {
  auto expect_reject = [](std::vector<uint8_t> payload, const char* what) {
    std::string error;
    EXPECT_FALSE(
        DecodeRequestPayload(payload.data(), payload.size(), &error)
            .has_value())
        << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  auto u32 = [](std::vector<uint8_t>* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  };

  {
    // CSP whose constraint scope names variable 5 of 3.
    std::vector<uint8_t> p;
    p.push_back(0);
    u32(&p, 3);  // num_variables
    u32(&p, 2);  // num_values
    u32(&p, 1);  // one constraint
    u32(&p, 1);  // scope length 1
    u32(&p, 5);  // variable 5: out of range
    u32(&p, 0);  // no tuples
    expect_reject(p, "scope variable out of range");
  }
  {
    // CSP tuple value outside the domain.
    std::vector<uint8_t> p;
    p.push_back(0);
    u32(&p, 3);
    u32(&p, 2);
    u32(&p, 1);
    u32(&p, 1);
    u32(&p, 0);
    u32(&p, 1);  // one tuple
    u32(&p, 7);  // value 7 of domain 2
    expect_reject(p, "tuple value out of range");
  }
  {
    // Containment request whose first query uses predicate E with two
    // different arities.
    std::vector<uint8_t> p;
    p.push_back(3);  // kCheckContainment
    u32(&p, 2);      // q1: num_variables
    u32(&p, 0);      // empty head
    u32(&p, 2);      // two atoms
    u32(&p, 1);      // strlen("E")
    p.push_back('E');
    u32(&p, 2);  // E(x0, x1)
    u32(&p, 0);
    u32(&p, 1);
    u32(&p, 1);  // strlen("E")
    p.push_back('E');
    u32(&p, 1);  // E(x0): arity clash
    u32(&p, 0);
    expect_reject(p, "inconsistent predicate arity");
  }
  {
    // Datalog program with an unsafe rule: H(x0) :- (empty body).
    std::vector<uint8_t> p;
    p.push_back(2);  // kDatalogFixpoint
    u32(&p, 1);      // one rule
    u32(&p, 1);      // strlen("H")
    p.push_back('H');
    u32(&p, 1);  // head args: (x0)
    u32(&p, 0);
    u32(&p, 0);  // empty body
    u32(&p, 1);  // num_variables = 1
    u32(&p, 0);  // goal: empty string
    // EDB: empty vocabulary, domain 0.
    u32(&p, 0);
    u32(&p, 0);
    expect_reject(p, "unsafe datalog rule");
  }
  {
    // Structure with a relation symbol of arity 0 (vocabulary requires
    // >= 1).
    std::vector<uint8_t> p;
    p.push_back(1);  // kEvalCq
    // Query: 1 variable, empty head, one atom E(x0).
    u32(&p, 1);
    u32(&p, 0);
    u32(&p, 1);
    u32(&p, 1);
    p.push_back('E');
    u32(&p, 1);
    u32(&p, 0);
    // Structure: one symbol "E" of arity 0.
    u32(&p, 1);
    u32(&p, 1);
    p.push_back('E');
    u32(&p, 0);  // arity 0
    expect_reject(p, "relation arity 0");
  }

  // Shapes whose parts each decode alone but that an engine meets with a
  // CSPDB_CHECK (an abort), so the decoder must refuse the whole request.
  Vocabulary binary;
  binary.AddSymbol("E", 2);
  Structure graph(binary, 3);
  graph.AddTuple(0, {0, 1});
  Vocabulary unary;
  unary.AddSymbol("E", 1);
  Structure unary_e(unary, 3);
  unary_e.AddTuple(0, {1});
  DatalogProgram closure;
  closure.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  DatalogProgram closure_with_goal = closure;
  closure_with_goal.SetGoal("T");
  const ConjunctiveQuery edge(2, {0}, {{"E", {0, 1}}});

  expect_reject(Encode(service::EvalCqRequest{edge, unary_e}),
                "EvalCq atom arity differs from the database relation");
  expect_reject(Encode(service::EvalCqRequest{
                    ConjunctiveQuery(3, {2}, {{"E", {0, 1}}}), graph}),
                "EvalCq head variable in no body atom");
  expect_reject(
      Encode(service::DatalogFixpointRequest{closure_with_goal, unary_e}),
      "Datalog EDB predicate arity differs from the EDB relation");
  expect_reject(Encode(service::DatalogFixpointRequest{closure, graph}),
                "Datalog program without a goal");
  expect_reject(Encode(service::CheckContainmentRequest{
                    ConjunctiveQuery(2, {}, {{"E", {0, 1}}}),
                    ConjunctiveQuery(1, {}, {{"E", {0}}})}),
                "containment queries disagree on a predicate's arity");
  expect_reject(Encode(service::CheckContainmentRequest{
                    edge, ConjunctiveQuery(2, {}, {{"E", {0, 1}}})}),
                "containment queries with different head lengths");
  expect_reject(Encode(service::CheckContainmentRequest{
                    ConjunctiveQuery(2, {0}, {{"__P0", {0, 1}}}), edge}),
                "containment query using a head-marker predicate name");

  // The same components in agreeing combinations decode.
  std::string error;
  for (const ServiceRequest& ok :
       {ServiceRequest{service::EvalCqRequest{edge, graph}},
        ServiceRequest{service::DatalogFixpointRequest{closure_with_goal,
                                                       graph}},
        ServiceRequest{service::CheckContainmentRequest{edge, edge}}}) {
    const std::vector<uint8_t> payload = Encode(ok);
    EXPECT_TRUE(DecodeRequestPayload(payload.data(), payload.size(), &error)
                    .has_value())
        << error;
  }
}

TEST(WireResponse, RoundTripsEveryAnswerVariant) {
  std::vector<Response> responses;
  {
    Response r;
    r.kind = service::RequestKind::kSolveCsp;
    service::CspAnswer a;
    a.solution = std::vector<int>{2, 0, 1};
    r.answer = a;
    r.cache_hit = true;
    r.latency_ns = 12345;
    responses.push_back(r);
  }
  {
    Response r;
    r.kind = service::RequestKind::kEvalCq;
    service::RowsAnswer a;
    a.arity = 2;
    a.num_rows = 2;
    a.rows = {0, 1, 1, 0};
    r.answer = a;
    r.coalesced = true;
    r.queue_wait_ns = 55;
    responses.push_back(r);
  }
  {
    Response r;
    r.kind = service::RequestKind::kDatalogFixpoint;
    service::DatalogAnswer a;
    a.goal_derived = true;
    a.goal_facts.arity = 0;
    a.goal_facts.num_rows = 1;
    a.total_idb_facts = 9;
    r.answer = a;
    r.served_remotely = true;
    responses.push_back(r);
  }
  {
    Response r;
    r.kind = service::RequestKind::kCheckContainment;
    r.status = StatusCode::kDeadlineExceeded;
    r.answer = service::BoolAnswer{true};
    responses.push_back(r);
  }
  for (const Response& response : responses) {
    std::vector<uint8_t> payload;
    EncodeResponsePayload(response, &payload);
    std::string error;
    std::optional<Response> decoded =
        DecodeResponsePayload(payload.data(), payload.size(), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->status, response.status);
    EXPECT_EQ(decoded->kind, response.kind);
    EXPECT_EQ(decoded->cache_hit, response.cache_hit);
    EXPECT_EQ(decoded->coalesced, response.coalesced);
    EXPECT_EQ(decoded->served_remotely, response.served_remotely);
    EXPECT_EQ(decoded->latency_ns, response.latency_ns);
    EXPECT_EQ(decoded->queue_wait_ns, response.queue_wait_ns);
    EXPECT_EQ(AnswerBytes(*decoded), AnswerBytes(response));
    // Truncations of response payloads fail cleanly too.
    for (std::size_t len = 0; len < payload.size(); ++len) {
      std::string e;
      EXPECT_FALSE(DecodeResponsePayload(payload.data(), len, &e).has_value());
    }
  }
}

// Every encoder reserves its payload's exact size up front, so a payload
// holds no spare capacity: a size estimate that ran short would regrow
// the buffer past its size, and one that ran long would leave slack.
TEST(WirePayload, EncodersReserveTheExactSize) {
  for (const ServiceRequest& request : SampleRequests()) {
    const std::vector<uint8_t> payload = Encode(request);
    EXPECT_EQ(payload.capacity(), payload.size())
        << "request kind " << static_cast<int>(service::KindOf(request));
  }
  std::vector<service::EngineAnswer> answers;
  answers.push_back(service::CspAnswer{std::vector<int>{2, 0, 1}, true});
  answers.push_back(service::CspAnswer{std::nullopt, false});
  answers.push_back(service::RowsAnswer{2, 3, {0, 1, 1, 0, 2, 2}});
  answers.push_back(
      service::DatalogAnswer{true, service::RowsAnswer{1, 2, {4, 5}}, 7});
  answers.push_back(service::BoolAnswer{true});
  for (const service::EngineAnswer& answer : answers) {
    Response response;
    response.answer = answer;
    std::vector<uint8_t> payload;
    EncodeResponsePayload(response, &payload);
    EXPECT_EQ(payload.capacity(), payload.size())
        << "answer variant " << answer.index();
    const std::vector<uint8_t> bytes = AnswerBytes(response);
    EXPECT_EQ(bytes.capacity(), bytes.size())
        << "answer variant " << answer.index();
  }
}

TEST(WireResponse, RowPayloadMismatchRejected) {
  service::RowsAnswer a;
  a.arity = 2;
  a.num_rows = 3;     // claims 3 rows...
  a.rows = {1, 2};    // ...but carries 1
  Response r;
  r.kind = service::RequestKind::kEvalCq;
  r.answer = a;
  std::vector<uint8_t> payload;
  EncodeResponsePayload(r, &payload);
  std::string error;
  EXPECT_FALSE(
      DecodeResponsePayload(payload.data(), payload.size(), &error)
          .has_value());
  EXPECT_NE(error.find("num_rows"), std::string::npos) << error;
}

TEST(WireResponse, RowCountTimesArityOverflowRejected) {
  // arity = 2^16 and num_rows = 2^48 multiply to exactly 2^64, which
  // wraps to 0 and would agree with an empty rows array if the check
  // multiplied instead of dividing.
  std::vector<uint8_t> p;
  auto u32 = [&p](uint32_t v) {
    for (int i = 0; i < 4; ++i) p.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto u64 = [&p](uint64_t v) {
    for (int i = 0; i < 8; ++i) p.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  p.push_back(0);  // status = kOk
  p.push_back(1);  // kind = kEvalCq
  p.push_back(0);  // flag bits
  u64(0);          // latency_ns
  u64(0);          // queue_wait_ns
  p.push_back(1);  // answer variant = RowsAnswer
  u32(1u << 16);   // arity (at the ceiling)
  u64(1ull << 48); // num_rows: arity * num_rows == 2^64 == 0 mod 2^64
  u32(0);          // rows array is empty
  std::string error;
  EXPECT_FALSE(DecodeResponsePayload(p.data(), p.size(), &error).has_value());
  EXPECT_NE(error.find("num_rows"), std::string::npos) << error;
}

std::vector<uint8_t> FrameBytes(const Frame& frame) {
  std::vector<uint8_t> out;
  AppendFrame(frame, &out);
  return out;
}

Frame SampleRequestFrame(uint64_t id) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = id;
  EncodeRequestPayload(SampleRequests().front(), &frame.payload);
  return frame;
}

TEST(FrameAssembler, ReassemblesAcrossArbitrarySplits) {
  // Three frames concatenated, fed in every chunk size from 1 byte up:
  // the assembler must yield exactly the same three frames regardless of
  // how the stream was split across reads.
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 3; ++id) {
    const std::vector<uint8_t> bytes = FrameBytes(SampleRequestFrame(id));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                            std::size_t{64}, stream.size()}) {
    FrameAssembler assembler;
    std::vector<uint64_t> ids;
    for (std::size_t offset = 0; offset < stream.size(); offset += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - offset);
      assembler.Feed(stream.data() + offset, n);
      Frame frame;
      while (assembler.Next(&frame) == FrameAssembler::Status::kFrame) {
        ids.push_back(frame.request_id);
        EXPECT_EQ(frame.type, FrameType::kRequest);
      }
    }
    EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3})) << "chunk=" << chunk;
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
}

TEST(FrameAssembler, OversizedLengthPrefixPoisons) {
  std::vector<uint8_t> bytes = FrameBytes(SampleRequestFrame(1));
  // Overwrite the payload-length field (offset 16) with kMax+1.
  const uint32_t huge = static_cast<uint32_t>(kMaxPayloadBytes) + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  FrameAssembler assembler;
  assembler.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kProtocolError);
  EXPECT_NE(assembler.error().find("exceeds"), std::string::npos);
  // Poisoned: stays an error even after more (valid) bytes arrive.
  const std::vector<uint8_t> good = FrameBytes(SampleRequestFrame(2));
  assembler.Feed(good.data(), good.size());
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kProtocolError);
  assembler.Reset();
  assembler.Feed(good.data(), good.size());
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kFrame);
}

TEST(FrameAssembler, WrongVersionMagicTypeAndFlagsPoison) {
  struct Case {
    std::size_t offset;
    uint8_t value;
    const char* what;
  };
  for (const Case& c :
       {Case{0, 0x00, "magic"}, Case{4, 2, "version"}, Case{5, 99, "type"},
        Case{6, 0xff, "flags"}}) {
    std::vector<uint8_t> bytes = FrameBytes(SampleRequestFrame(1));
    bytes[c.offset] = c.value;
    FrameAssembler assembler;
    assembler.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kProtocolError)
        << c.what;
    EXPECT_FALSE(assembler.error().empty()) << c.what;
  }
}

TEST(FrameAssembler, GarbageMidStreamAfterValidFrame) {
  std::vector<uint8_t> stream = FrameBytes(SampleRequestFrame(1));
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    stream.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
  }
  FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_EQ(assembler.Next(&frame), FrameAssembler::Status::kFrame);
  EXPECT_EQ(frame.request_id, 1u);
  // The garbage that follows cannot be a valid header: the stream
  // poisons rather than resynchronizing on a guess.
  EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kProtocolError);
}

TEST(FrameAssembler, TruncatedHeaderNeedsMore) {
  const std::vector<uint8_t> bytes = FrameBytes(SampleRequestFrame(1));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameAssembler assembler;
    assembler.Feed(bytes.data(), len);
    Frame frame;
    EXPECT_EQ(assembler.Next(&frame), FrameAssembler::Status::kNeedMore)
        << "prefix " << len;
  }
}

TEST(WireError, RoundTripsAndRejectsJunk) {
  std::vector<uint8_t> payload;
  EncodeErrorPayload("bad frame magic", &payload);
  std::string error;
  std::optional<std::string> message =
      DecodeErrorPayload(payload.data(), payload.size(), &error);
  ASSERT_TRUE(message.has_value()) << error;
  EXPECT_EQ(*message, "bad frame magic");
  payload.push_back(0);
  EXPECT_FALSE(
      DecodeErrorPayload(payload.data(), payload.size(), &error).has_value());
}

}  // namespace
}  // namespace cspdb::net
