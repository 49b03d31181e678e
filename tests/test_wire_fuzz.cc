// Negative suite for the wire codec: every decoder must survive
// truncation, bit flips, absurd length prefixes, trailing garbage and
// plain random bytes without crashing, over-reading or over-allocating
// (run under ASan/UBSan in CI). Where a mutation happens to stay
// structurally valid, the decoded value must round-trip cleanly — decode
// is either a hard reject or a full parse, never a partial one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "dist/wire.h"

namespace platod2gl {
namespace {

using wire::DecodeSampleRequest;
using wire::DecodeSampleResponse;
using wire::DecodeUpdateBatch;
using wire::EncodeSampleRequest;
using wire::EncodeSampleResponse;
using wire::EncodeUpdateBatch;
using wire::SampleRequest;

SampleRequest MakeRequest() {
  SampleRequest req;
  req.edge_type = 2;
  req.fanout = 7;
  req.weighted = true;
  req.seeds = {1, 99, 12345678901234ULL, 0};
  return req;
}

NeighborBatch MakeResponse() {
  NeighborBatch b;
  b.neighbors = {5, 6, 7, 100, 101};
  b.offsets = {0, 3, 3, 5};  // middle seed is empty
  return b;
}

/// A gather reply: the same layout over f32 feature values.
wire::FeatureBatch MakeFeatureResponse() {
  wire::FeatureBatch b;
  b.values = {0.5f, -1.0f, 2.0f, 3.25f, 1e-3f};
  b.offsets = {0, 2, 2, 5};  // middle row is empty
  return b;
}

std::vector<EdgeUpdate> MakeUpdates() {
  return {{UpdateKind::kInsert, Edge{1, 2, 1.5, 0}},
          {UpdateKind::kInPlaceUpdate, Edge{3, 4, -2.0, 1}},
          {UpdateKind::kDelete, Edge{5, 6, 0.0, 0}}};
}

// Decode helpers with a uniform signature so one sweep drives all three.
bool TryRequest(const std::string& bytes) {
  SampleRequest out;
  return DecodeSampleRequest(bytes, &out);
}
bool TryResponse(const std::string& bytes) {
  NeighborBatch out;
  return DecodeSampleResponse(bytes, &out);
}
bool TryFeatures(const std::string& bytes) {
  wire::FeatureBatch out;
  return DecodeSampleResponse(bytes, &out);
}
bool TryUpdates(const std::string& bytes) {
  std::vector<EdgeUpdate> out;
  return DecodeUpdateBatch(bytes, &out);
}

// --- Truncation: every strict prefix must be rejected ----------------------

TEST(WireFuzzTest, EveryTruncationOfARequestIsRejected) {
  const std::string full = EncodeSampleRequest(MakeRequest());
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(TryRequest(full.substr(0, n))) << "prefix length " << n;
  }
  EXPECT_TRUE(TryRequest(full)) << "sanity: the untruncated message decodes";
}

TEST(WireFuzzTest, EveryTruncationOfAResponseIsRejected) {
  const std::string full = EncodeSampleResponse(MakeResponse());
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(TryResponse(full.substr(0, n))) << "prefix length " << n;
  }
  EXPECT_TRUE(TryResponse(full));
  const std::string rows = EncodeSampleResponse(MakeFeatureResponse());
  for (std::size_t n = 0; n < rows.size(); ++n) {
    EXPECT_FALSE(TryFeatures(rows.substr(0, n))) << "prefix length " << n;
  }
  EXPECT_TRUE(TryFeatures(rows));
}

TEST(WireFuzzTest, EveryTruncationOfAnUpdateBatchIsRejected) {
  const std::string full = EncodeUpdateBatch(MakeUpdates());
  for (std::size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(TryUpdates(full.substr(0, n))) << "prefix length " << n;
  }
  EXPECT_TRUE(TryUpdates(full));
}

// --- Trailing garbage: decoders demand exact consumption -------------------

TEST(WireFuzzTest, TrailingGarbageIsRejected) {
  for (const char extra : {'\0', 'S', '\xFF'}) {
    EXPECT_FALSE(TryRequest(EncodeSampleRequest(MakeRequest()) + extra));
    EXPECT_FALSE(TryResponse(EncodeSampleResponse(MakeResponse()) + extra));
    EXPECT_FALSE(
        TryFeatures(EncodeSampleResponse(MakeFeatureResponse()) + extra));
    EXPECT_FALSE(TryUpdates(EncodeUpdateBatch(MakeUpdates()) + extra));
  }
}

// --- Absurd counts: rejected before any allocation -------------------------

template <typename T>
void Append(std::string* s, T v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

TEST(WireFuzzTest, AbsurdCountsAreRejectedWithoutAllocating) {
  // count = 0xFFFFFFFF with a near-empty tail: the arithmetic bounds check
  // must fire before any resize/reserve (a naive decoder would attempt a
  // multi-GB allocation here and ASan/OOM-kill the suite).
  {
    std::string bytes = "S";
    Append<std::uint32_t>(&bytes, 0);  // edge_type
    Append<std::uint32_t>(&bytes, 5);  // fanout
    Append<std::uint8_t>(&bytes, 1);   // weighted
    Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);
    bytes += "xx";
    EXPECT_FALSE(TryRequest(bytes));
  }
  for (const char tag : {'R', 'F'}) {
    const auto try_reply = tag == 'R' ? TryResponse : TryFeatures;
    {
      std::string bytes(1, tag);
      Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);  // range count
      bytes += "xx";
      EXPECT_FALSE(try_reply(bytes)) << tag;
    }
    {
      // Plausible range count, absurd per-range length prefix.
      std::string bytes(1, tag);
      Append<std::uint32_t>(&bytes, 1);
      Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);  // len of range 0
      bytes += "xxxxxxxx";
      EXPECT_FALSE(try_reply(bytes)) << tag;
    }
  }
  {
    std::string bytes = "U";
    Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);
    bytes += "xx";
    EXPECT_FALSE(TryUpdates(bytes));
  }
}

TEST(WireFuzzTest, WrongTagAndEmptyBufferAreRejected) {
  EXPECT_FALSE(TryRequest(""));
  EXPECT_FALSE(TryResponse(""));
  EXPECT_FALSE(TryFeatures(""));
  EXPECT_FALSE(TryUpdates(""));
  const std::string req = EncodeSampleRequest(MakeRequest());
  EXPECT_FALSE(TryResponse(req)) << "request bytes are not a response";
  EXPECT_FALSE(TryFeatures(req));
  EXPECT_FALSE(TryUpdates(req));
  EXPECT_FALSE(TryFeatures(EncodeSampleResponse(MakeResponse())))
      << "a sample reply is not a gather reply";
}

// --- Bit-flip sweeps --------------------------------------------------------
//
// Flipping any single bit must either be rejected or produce a message
// that still round-trips exactly (a payload-byte flip changes a vertex id
// or a weight — structurally fine by design; see docs/fault_tolerance.md
// for why payload-level integrity is out of scope for the wire format).

template <typename DecodeFn, typename EncodeFn, typename Msg>
void BitFlipSweep(const std::string& clean, DecodeFn decode, EncodeFn encode,
                  Msg* scratch) {
  std::size_t accepted = 0;
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = clean;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      if (!decode(mutated, scratch)) continue;
      ++accepted;
      // Accepted ⇒ fully parsed: re-encoding must reproduce the mutated
      // bytes except where the codec canonicalises (the weighted bool),
      // so sizes always match and a second decode must agree.
      const std::string re = encode(*scratch);
      ASSERT_EQ(re.size(), mutated.size())
          << "byte " << byte << " bit " << bit
          << ": partial parse slipped through";
      Msg again;
      ASSERT_TRUE(decode(re, &again));
    }
  }
  // Sanity: some payload flips survive (the sweep actually exercised the
  // accept path, not just the reject path).
  EXPECT_GT(accepted, 0u);
}

TEST(WireFuzzTest, RequestSurvivesFullBitFlipSweep) {
  SampleRequest scratch;
  BitFlipSweep(EncodeSampleRequest(MakeRequest()), DecodeSampleRequest,
               EncodeSampleRequest, &scratch);
}

TEST(WireFuzzTest, ResponseSurvivesFullBitFlipSweep) {
  const auto decode = [](const std::string& bytes, auto* batch) {
    return DecodeSampleResponse(bytes, batch);
  };
  const auto encode = [](const auto& batch) {
    return EncodeSampleResponse(batch);
  };
  NeighborBatch ids;
  BitFlipSweep(EncodeSampleResponse(MakeResponse()), decode, encode, &ids);
  wire::FeatureBatch rows;
  BitFlipSweep(EncodeSampleResponse(MakeFeatureResponse()), decode, encode,
               &rows);
}

TEST(WireFuzzTest, UpdateBatchSurvivesFullBitFlipSweep) {
  std::vector<EdgeUpdate> scratch;
  BitFlipSweep(EncodeUpdateBatch(MakeUpdates()), DecodeUpdateBatch,
               EncodeUpdateBatch, &scratch);
}

// --- Random garbage ---------------------------------------------------------

TEST(WireFuzzTest, RandomGarbageNeverCrashesDecoders) {
  SplitMix64 rng(0xF022EDBEEFULL);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.Next() % 64;
    std::string bytes;
    bytes.reserve(len + 1);
    // Start with a real tag half the time so the sweep gets past byte 0.
    if (rng.Next() & 1) bytes.push_back("SRFU"[rng.Next() % 4]);
    while (bytes.size() < len) {
      bytes.push_back(static_cast<char>(rng.Next()));
    }
    // Must not crash, over-read (ASan) or over-allocate; accepts are fine
    // when the garbage happens to be well-formed.
    TryRequest(bytes);
    TryResponse(bytes);
    TryFeatures(bytes);
    TryUpdates(bytes);
  }
}

TEST(WireFuzzTest, EmptyMessagesRoundTrip) {
  // Degenerate-but-valid messages stay valid: no seeds, no updates.
  SampleRequest req;
  SampleRequest req2;
  ASSERT_TRUE(DecodeSampleRequest(EncodeSampleRequest(req), &req2));
  EXPECT_EQ(req2, req);

  NeighborBatch empty;
  NeighborBatch out;
  ASSERT_TRUE(DecodeSampleResponse(EncodeSampleResponse(empty), &out));
  EXPECT_EQ(out.NumSeeds(), 0u);
  wire::FeatureBatch no_rows;
  wire::FeatureBatch rows_out;
  ASSERT_TRUE(
      DecodeSampleResponse(EncodeSampleResponse(no_rows), &rows_out));
  EXPECT_EQ(rows_out.offsets, std::vector<std::size_t>{0});

  std::vector<EdgeUpdate> none;
  std::vector<EdgeUpdate> decoded;
  ASSERT_TRUE(DecodeUpdateBatch(EncodeUpdateBatch(none), &decoded));
  EXPECT_TRUE(decoded.empty());
}

// --- Replication messages (versioned; see docs/replication.md) -------------

using wire::DecodeRepAck;
using wire::DecodeRepDigest;
using wire::DecodeRepLogAppend;
using wire::DecodeRepSnapshot;
using wire::DecodeResult;
using wire::EncodeRepAck;
using wire::EncodeRepDigest;
using wire::EncodeRepLogAppend;
using wire::EncodeRepSnapshot;
using wire::RepAck;
using wire::RepDigest;
using wire::RepLogAppend;
using wire::RepSnapshot;

RepLogAppend MakeAppend() {
  RepLogAppend msg;
  msg.shard = 3;
  msg.entries = {
      {11, {UpdateKind::kInsert, Edge{1, 2, 1.5, 0}}},
      {12, {UpdateKind::kInPlaceUpdate, Edge{3, 4, -2.0, 1}}},
      {13, {UpdateKind::kDelete, Edge{5, 6, 0.0, 0}}}};
  return msg;
}

RepAck MakeAck() { return RepAck{2, 1, 987654321ULL}; }

RepDigest MakeDigest() {
  RepDigest msg;
  msg.shard = 1;
  msg.through_seq = 42;
  msg.bucket_edges = {3, 0, 17, 2};
  msg.bucket_crcs = {0xDEADBEEF, 0, 0x12345678, 0xFF};
  return msg;
}

RepSnapshot MakeSnapshot() {
  RepSnapshot msg;
  msg.shard = 0;
  msg.covered_seq = 100;
  msg.checkpoint = "PD2Gfake-checkpoint-bytes";  // payload is opaque here
  return msg;
}

DecodeResult TryAppend(const std::string& bytes) {
  RepLogAppend out;
  return DecodeRepLogAppend(bytes, &out);
}
DecodeResult TryAck(const std::string& bytes) {
  RepAck out;
  return DecodeRepAck(bytes, &out);
}
DecodeResult TryDigest(const std::string& bytes) {
  RepDigest out;
  return DecodeRepDigest(bytes, &out);
}
DecodeResult TrySnapshot(const std::string& bytes) {
  RepSnapshot out;
  return DecodeRepSnapshot(bytes, &out);
}

TEST(RepWireFuzzTest, CleanMessagesRoundTripExactly) {
  RepLogAppend a;
  ASSERT_EQ(DecodeRepLogAppend(EncodeRepLogAppend(MakeAppend()), &a),
            DecodeResult::kOk);
  EXPECT_EQ(a, MakeAppend());
  RepAck k;
  ASSERT_EQ(DecodeRepAck(EncodeRepAck(MakeAck()), &k), DecodeResult::kOk);
  EXPECT_EQ(k, MakeAck());
  RepDigest d;
  ASSERT_EQ(DecodeRepDigest(EncodeRepDigest(MakeDigest()), &d),
            DecodeResult::kOk);
  EXPECT_EQ(d, MakeDigest());
  RepSnapshot s;
  ASSERT_EQ(DecodeRepSnapshot(EncodeRepSnapshot(MakeSnapshot()), &s),
            DecodeResult::kOk);
  EXPECT_EQ(s, MakeSnapshot());
}

TEST(RepWireFuzzTest, EveryTruncationIsRejected) {
  const std::string msgs[] = {
      EncodeRepLogAppend(MakeAppend()), EncodeRepAck(MakeAck()),
      EncodeRepDigest(MakeDigest()), EncodeRepSnapshot(MakeSnapshot())};
  DecodeResult (*decoders[])(const std::string&) = {TryAppend, TryAck,
                                                    TryDigest, TrySnapshot};
  for (int m = 0; m < 4; ++m) {
    for (std::size_t n = 0; n < msgs[m].size(); ++n) {
      EXPECT_NE(decoders[m](msgs[m].substr(0, n)), DecodeResult::kOk)
          << "message " << m << " prefix length " << n;
    }
    EXPECT_EQ(decoders[m](msgs[m]), DecodeResult::kOk) << "message " << m;
  }
}

TEST(RepWireFuzzTest, TrailingGarbageIsRejected) {
  for (const char extra : {'\0', 'L', '\xFF'}) {
    EXPECT_NE(TryAppend(EncodeRepLogAppend(MakeAppend()) + extra),
              DecodeResult::kOk);
    EXPECT_NE(TryAck(EncodeRepAck(MakeAck()) + extra), DecodeResult::kOk);
    EXPECT_NE(TryDigest(EncodeRepDigest(MakeDigest()) + extra),
              DecodeResult::kOk);
    EXPECT_NE(TrySnapshot(EncodeRepSnapshot(MakeSnapshot()) + extra),
              DecodeResult::kOk);
  }
}

TEST(RepWireFuzzTest, AbsurdCountsAreRejectedWithoutAllocating) {
  {  // entry count far beyond the remaining bytes
    std::string bytes = "L";
    Append<std::uint8_t>(&bytes, wire::kReplicationWireVersion);
    Append<std::uint32_t>(&bytes, 3);            // shard
    Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);  // count
    bytes += "xx";
    EXPECT_EQ(TryAppend(bytes), DecodeResult::kMalformed);
  }
  {  // digest bucket count
    std::string bytes = "G";
    Append<std::uint8_t>(&bytes, wire::kReplicationWireVersion);
    Append<std::uint32_t>(&bytes, 1);
    Append<std::uint64_t>(&bytes, 42);
    Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);
    bytes += "xx";
    EXPECT_EQ(TryDigest(bytes), DecodeResult::kMalformed);
  }
  {  // snapshot length prefix
    std::string bytes = "B";
    Append<std::uint8_t>(&bytes, wire::kReplicationWireVersion);
    Append<std::uint32_t>(&bytes, 0);
    Append<std::uint64_t>(&bytes, 100);
    Append<std::uint32_t>(&bytes, 0xFFFFFFFFu);
    bytes += "xx";
    EXPECT_EQ(TrySnapshot(bytes), DecodeResult::kMalformed);
  }
}

TEST(RepWireFuzzTest, UnknownVersionIsNegotiationFailureNotCorruption) {
  // An old/new-format peer must surface as kUnsupportedVersion (mapped to
  // Status::Unimplemented by the manager), strictly distinct from
  // kMalformed — so operators see "upgrade the peer", not "data loss".
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{2},
                               std::uint8_t{99}, std::uint8_t{255}}) {
    EXPECT_EQ(TryAppend(EncodeRepLogAppend(MakeAppend(), v)),
              DecodeResult::kUnsupportedVersion)
        << "version " << int{v};
    EXPECT_EQ(TryAck(EncodeRepAck(MakeAck(), v)),
              DecodeResult::kUnsupportedVersion);
    EXPECT_EQ(TryDigest(EncodeRepDigest(MakeDigest(), v)),
              DecodeResult::kUnsupportedVersion);
    EXPECT_EQ(TrySnapshot(EncodeRepSnapshot(MakeSnapshot(), v)),
              DecodeResult::kUnsupportedVersion);
  }
  // A wrong tag is NOT a version problem, even with a plausible version
  // byte in position 1.
  EXPECT_EQ(TryAppend(EncodeRepAck(MakeAck())), DecodeResult::kMalformed);
  EXPECT_EQ(TryAck(EncodeRepLogAppend(MakeAppend())),
            DecodeResult::kMalformed);
  EXPECT_EQ(TryAppend(""), DecodeResult::kMalformed);
}

TEST(RepWireFuzzTest, NonContiguousEntriesAreRejected) {
  // The decoder pins the transport invariant the replica's contiguity
  // check relies on: entries within one message are strictly sequential.
  RepLogAppend gap = MakeAppend();
  gap.entries[2].seq = 99;
  RepLogAppend out;
  EXPECT_EQ(DecodeRepLogAppend(EncodeRepLogAppend(gap), &out),
            DecodeResult::kMalformed);
}

template <typename DecodeFn, typename EncodeFn, typename Msg>
void RepBitFlipSweep(const std::string& clean, DecodeFn decode,
                     EncodeFn encode, Msg* scratch) {
  std::size_t accepted = 0;
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = clean;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      const DecodeResult r = decode(mutated, scratch);
      if (byte == 1) {
        // The version byte: any flip must be a clean negotiation failure.
        ASSERT_EQ(r, DecodeResult::kUnsupportedVersion)
            << "bit " << bit << " of the version byte";
        continue;
      }
      if (r != DecodeResult::kOk) continue;
      ++accepted;
      const std::string re = encode(*scratch, wire::kReplicationWireVersion);
      ASSERT_EQ(re.size(), mutated.size())
          << "byte " << byte << " bit " << bit
          << ": partial parse slipped through";
      Msg again;
      ASSERT_EQ(decode(re, &again), DecodeResult::kOk);
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(RepWireFuzzTest, AppendSurvivesFullBitFlipSweep) {
  RepLogAppend scratch;
  RepBitFlipSweep(EncodeRepLogAppend(MakeAppend()), DecodeRepLogAppend,
                  EncodeRepLogAppend, &scratch);
}

TEST(RepWireFuzzTest, AckSurvivesFullBitFlipSweep) {
  RepAck scratch;
  RepBitFlipSweep(EncodeRepAck(MakeAck()), DecodeRepAck, EncodeRepAck,
                  &scratch);
}

TEST(RepWireFuzzTest, DigestSurvivesFullBitFlipSweep) {
  RepDigest scratch;
  RepBitFlipSweep(EncodeRepDigest(MakeDigest()), DecodeRepDigest,
                  EncodeRepDigest, &scratch);
}

TEST(RepWireFuzzTest, SnapshotSurvivesFullBitFlipSweep) {
  RepSnapshot scratch;
  RepBitFlipSweep(EncodeRepSnapshot(MakeSnapshot()), DecodeRepSnapshot,
                  EncodeRepSnapshot, &scratch);
}

TEST(RepWireFuzzTest, RandomGarbageNeverCrashesDecoders) {
  SplitMix64 rng(0x2EB11CA7E5EEDULL);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.Next() % 80;
    std::string bytes;
    bytes.reserve(len + 2);
    if (rng.Next() & 1) {
      bytes.push_back("LAGB"[rng.Next() % 4]);
      // A valid version byte half the time, so sweeps get past the
      // negotiation gate and into the structural checks.
      if (rng.Next() & 1) {
        bytes.push_back(static_cast<char>(wire::kReplicationWireVersion));
      }
    }
    while (bytes.size() < len) {
      bytes.push_back(static_cast<char>(rng.Next()));
    }
    TryAppend(bytes);
    TryAck(bytes);
    TryDigest(bytes);
    TrySnapshot(bytes);
  }
}

}  // namespace
}  // namespace platod2gl
