// Wire format for the graph-server RPCs.
//
// The in-process cluster simulation executes requests as function calls;
// a real deployment serialises them. This codec defines the byte layout
// so the simulation can account for bytes-on-the-wire (and tests pin the
// format), keeping the virtual-network model honest:
//
//   SampleRequest:  tag 'S' | edge_type u32 | fanout u32 | weighted u8 |
//                   count u32 | count x seed u64
//   SampleResponse: tag 'R' | count u32 | count x (len u32, len x u64)
//   (gather reply)  tag 'F' | count u32 | count x (len u32, len x f32)
//   UpdateBatch:    tag 'U' | count u32 | count x
//                   (kind u8, type u32, src u64, dst u64, weight f64)
//
// Replication messages (docs/replication.md) additionally carry a version
// byte right after the tag — the primary/replica protocol is expected to
// evolve independently of the client RPCs, so peers negotiate: a decoder
// that sees a tag it knows but a version it does not returns
// kUnsupportedVersion, which the replication layer surfaces as a clean
// kUnimplemented instead of treating the peer's bytes as corruption.
//
//   RepLogAppend:   tag 'L' | ver u8 | shard u32 | count u32 | count x
//                   (seq u64, kind u8, type u32, src u64, dst u64, w f64)
//   RepAck:         tag 'A' | ver u8 | shard u32 | replica u32 |
//                   applied_seq u64
//   RepDigest:      tag 'G' | ver u8 | shard u32 | through_seq u64 |
//                   count u32 | count x (edge_count u64, crc u32)
//   RepSnapshot:    tag 'B' | ver u8 | shard u32 | covered_seq u64 |
//                   len u32 | len bytes (io/checkpoint image, self-CRC'd)
//
// All integers little-endian (the deployment is homogeneous x86).
//
// Decoders are hardened against malformed input: every length/count
// prefix is bounds-checked against the remaining payload BEFORE any
// allocation or read, so truncated buffers, bit-flipped prefixes, absurd
// counts and trailing garbage all return false without over-reading
// (negative suite: tests/test_wire_fuzz.cc). The cluster's fault
// injector routes corrupted responses through these decoders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sampling/neighbor_sampler.h"

namespace platod2gl {
struct TimedUpdate;  // temporal/edge_log.h
}  // namespace platod2gl

namespace platod2gl::wire {

struct SampleRequest {
  EdgeType edge_type = 0;
  std::uint32_t fanout = 0;
  bool weighted = true;
  std::vector<VertexId> seeds;

  friend bool operator==(const SampleRequest&,
                         const SampleRequest&) = default;
};

std::string EncodeSampleRequest(const SampleRequest& req);
bool DecodeSampleRequest(const std::string& bytes, SampleRequest* req);
/// EncodeSampleRequest(req).size() for a request carrying `seeds` seeds,
/// without encoding: what the cluster counts as sent per sampling request.
std::size_t SampleRequestBytes(std::size_t seeds);

/// Feature rows of a gather reply: row i is values[offsets[i],
/// offsets[i + 1]), empty when the vertex has no features.
struct FeatureBatch {
  std::vector<float> values;
  std::vector<std::size_t> offsets;  // size = #rows + 1
};

/// Every shard RPC answers with one flat reply in the SampleResponse
/// layout: a sampling or traversal reply reuses NeighborBatch (per-seed
/// ranges of u64 ids), a gather reply is a FeatureBatch (per-id rows of
/// f32 values). One codec serves both element types.
std::string EncodeSampleResponse(const NeighborBatch& batch);
std::string EncodeSampleResponse(const FeatureBatch& batch);
bool DecodeSampleResponse(const std::string& bytes, NeighborBatch* batch);
bool DecodeSampleResponse(const std::string& bytes, FeatureBatch* batch);
/// EncodeSampleResponse(batch).size(), without encoding: what the cluster
/// counts as received for a delivered reply.
std::size_t SampleResponseBytes(const NeighborBatch& batch);
std::size_t SampleResponseBytes(const FeatureBatch& batch);

std::string EncodeUpdateBatch(const std::vector<EdgeUpdate>& batch);
bool DecodeUpdateBatch(const std::string& bytes,
                       std::vector<EdgeUpdate>* batch);
/// EncodeUpdateBatch(batch).size() for an `n`-update batch, without
/// encoding: what the cluster counts as sent per update RPC attempt.
std::size_t UpdateBatchBytes(std::size_t n);

// --- Replication protocol (primary -> replica log shipping) --------------

/// Current replication wire version. Encoders stamp it; decoders refuse
/// anything else with kUnsupportedVersion (never kMalformed — an old peer
/// is a negotiation failure, not corruption).
inline constexpr std::uint8_t kReplicationWireVersion = 1;

/// Three-state decode result for the versioned replication messages.
enum class DecodeResult : std::uint8_t {
  kOk = 0,
  kMalformed = 1,           ///< structural damage: reject, never over-read
  kUnsupportedVersion = 2,  ///< recognised tag, unknown version byte
};

/// One WAL entry in flight: the per-shard sequence number (the WAL's
/// timestamp key, see dist/shard.h) plus the update itself.
struct RepLogEntry {
  std::uint64_t seq = 0;
  EdgeUpdate update;

  friend bool operator==(const RepLogEntry&, const RepLogEntry&) = default;
};

/// A contiguous run of WAL entries shipped primary -> replica. The replica
/// applies a message only if it starts exactly at applied_seq + 1
/// (contiguity check); anything else is acked-around via retransmission.
struct RepLogAppend {
  std::uint32_t shard = 0;
  std::vector<RepLogEntry> entries;

  friend bool operator==(const RepLogAppend&, const RepLogAppend&) = default;
};

/// Replica -> primary cumulative acknowledgement: every WAL entry with
/// seq <= applied_seq has been applied to the replica's store.
struct RepAck {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  std::uint64_t applied_seq = 0;

  friend bool operator==(const RepAck&, const RepAck&) = default;
};

/// Anti-entropy digest: per-keyrange-bucket (edge count, CRC-32 xor) pairs
/// over the store's topology as of WAL position through_seq.
struct RepDigest {
  std::uint32_t shard = 0;
  std::uint64_t through_seq = 0;
  std::vector<std::uint64_t> bucket_edges;  ///< edges per bucket
  std::vector<std::uint32_t> bucket_crcs;   ///< xor of per-edge CRC-32s

  friend bool operator==(const RepDigest&, const RepDigest&) = default;
};

/// Snapshot bootstrap: a full io/checkpoint image (internally CRC-checked)
/// covering WAL entries <= covered_seq, shipped when the primary's WAL no
/// longer reaches back to the replica's applied watermark.
struct RepSnapshot {
  std::uint32_t shard = 0;
  std::uint64_t covered_seq = 0;
  std::string checkpoint;  ///< io/checkpoint bytes (see SaveGraphToBytes)

  friend bool operator==(const RepSnapshot&, const RepSnapshot&) = default;
};

/// Encoders stamp `version` so tests can model an old-format peer;
/// decoders fill `out` only on kOk.
std::string EncodeRepLogAppend(const RepLogAppend& msg,
                               std::uint8_t version = kReplicationWireVersion);
DecodeResult DecodeRepLogAppend(const std::string& bytes, RepLogAppend* out);

/// Shipping fast path: encode `count` contiguous entries (seqs first_seq,
/// first_seq + 1, ...) straight out of a WAL window, without materialising
/// the intermediate entry vector. Both encoders share one body, so the
/// bytes equal EncodeRepLogAppend's over the equivalent RepLogAppend.
std::string EncodeRepLogAppendWindow(
    std::uint32_t shard, std::uint64_t first_seq, const TimedUpdate* window,
    std::size_t count, std::uint8_t version = kReplicationWireVersion);

std::string EncodeRepAck(const RepAck& msg,
                         std::uint8_t version = kReplicationWireVersion);
DecodeResult DecodeRepAck(const std::string& bytes, RepAck* out);

std::string EncodeRepDigest(const RepDigest& msg,
                            std::uint8_t version = kReplicationWireVersion);
DecodeResult DecodeRepDigest(const std::string& bytes, RepDigest* out);

std::string EncodeRepSnapshot(const RepSnapshot& msg,
                              std::uint8_t version = kReplicationWireVersion);
DecodeResult DecodeRepSnapshot(const std::string& bytes, RepSnapshot* out);

}  // namespace platod2gl::wire
