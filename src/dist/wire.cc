#include "dist/wire.h"

#include <cstring>
#include <utility>

#include "temporal/edge_log.h"

namespace platod2gl::wire {
namespace {

template <typename T>
void Put(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool Get(const std::string& in, std::size_t* pos, T* value) {
  if (*pos + sizeof(T) > in.size()) return false;
  std::memcpy(value, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

/// The update record UpdateBatch and RepLogAppend share:
/// kind u8 | type u32 | src u64 | dst u64 | weight f64. A RepLogAppend
/// entry is a seq u64 followed by one.
constexpr std::size_t kUpdateBytes = 29;
constexpr std::size_t kRepEntryBytes = sizeof(std::uint64_t) + kUpdateBytes;

void PutUpdate(std::string* out, const EdgeUpdate& u) {
  Put(out, static_cast<std::uint8_t>(u.kind));
  Put(out, u.edge.type);
  Put(out, u.edge.src);
  Put(out, u.edge.dst);
  Put(out, u.edge.weight);
}

/// False on a truncated record or an unknown update kind.
bool GetUpdate(const std::string& in, std::size_t* pos, EdgeUpdate* u) {
  std::uint8_t kind;
  if (!Get(in, pos, &kind) || !Get(in, pos, &u->edge.type) ||
      !Get(in, pos, &u->edge.src) || !Get(in, pos, &u->edge.dst) ||
      !Get(in, pos, &u->edge.weight)) {
    return false;
  }
  if (kind > static_cast<std::uint8_t>(UpdateKind::kDelete)) return false;
  u->kind = static_cast<UpdateKind>(kind);
  return true;
}

/// The SampleResponse layout over element type T, written once:
/// tag | count u32 | count x (len u32, len x T).
template <typename T>
std::size_t RangesBytes(const std::vector<std::size_t>& offsets) {
  if (offsets.empty()) return 1 + sizeof(std::uint32_t);
  return 1 + sizeof(std::uint32_t) +
         (offsets.size() - 1) * sizeof(std::uint32_t) +
         (offsets.back() - offsets.front()) * sizeof(T);
}

template <typename T>
std::string EncodeRanges(char tag, const std::vector<T>& values,
                         const std::vector<std::size_t>& offsets) {
  std::string out;
  out.reserve(RangesBytes<T>(offsets));
  out.push_back(tag);
  const std::size_t ranges = offsets.empty() ? 0 : offsets.size() - 1;
  Put(&out, static_cast<std::uint32_t>(ranges));
  for (std::size_t i = 0; i < ranges; ++i) {
    Put(&out, static_cast<std::uint32_t>(offsets[i + 1] - offsets[i]));
    for (std::size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      Put(&out, values[j]);
    }
  }
  return out;
}

template <typename T>
bool DecodeRanges(const std::string& bytes, char tag, std::vector<T>* values,
                  std::vector<std::size_t>* offsets) {
  std::size_t pos = 0;
  if (bytes.empty() || bytes[pos++] != tag) return false;
  std::uint32_t ranges = 0;
  if (!Get(bytes, &pos, &ranges)) return false;
  // Each range contributes at least a 4-byte length prefix: reject absurd
  // range counts before reserving anything.
  if (static_cast<std::size_t>(ranges) * sizeof(std::uint32_t) >
      bytes.size() - pos) {
    return false;
  }
  values->clear();
  offsets->assign(1, 0);
  offsets->reserve(static_cast<std::size_t>(ranges) + 1);
  for (std::uint32_t i = 0; i < ranges; ++i) {
    std::uint32_t len = 0;
    if (!Get(bytes, &pos, &len)) return false;
    // Bounds-check the whole range before reading it: a bit-flipped
    // length prefix must never cause an over-read or an absurd reserve.
    if (static_cast<std::size_t>(len) * sizeof(T) > bytes.size() - pos) {
      return false;
    }
    for (std::uint32_t j = 0; j < len; ++j) {
      T v{};
      if (!Get(bytes, &pos, &v)) return false;
      values->push_back(v);
    }
    offsets->push_back(values->size());
  }
  return pos == bytes.size();
}

}  // namespace

std::size_t SampleRequestBytes(std::size_t seeds) {
  // tag, edge_type, fanout, weighted, count, then the seeds.
  return 14 + seeds * sizeof(VertexId);
}

std::string EncodeSampleRequest(const SampleRequest& req) {
  std::string out;
  out.reserve(SampleRequestBytes(req.seeds.size()));
  out.push_back('S');
  Put(&out, req.edge_type);
  Put(&out, req.fanout);
  Put(&out, static_cast<std::uint8_t>(req.weighted ? 1 : 0));
  Put(&out, static_cast<std::uint32_t>(req.seeds.size()));
  for (VertexId s : req.seeds) Put(&out, s);
  return out;
}

bool DecodeSampleRequest(const std::string& bytes, SampleRequest* req) {
  std::size_t pos = 0;
  if (bytes.empty() || bytes[pos++] != 'S') return false;
  std::uint8_t weighted;
  std::uint32_t count;
  if (!Get(bytes, &pos, &req->edge_type) || !Get(bytes, &pos, &req->fanout) ||
      !Get(bytes, &pos, &weighted) || !Get(bytes, &pos, &count)) {
    return false;
  }
  // Bounds-check the declared count against the actual tail BEFORE
  // allocating: a malformed count of ~4 billion must be rejected, not
  // turned into a 32 GB resize. The seed array is the whole remaining
  // payload, so the check is exact and also rejects trailing garbage.
  if (bytes.size() - pos !=
      static_cast<std::size_t>(count) * sizeof(VertexId)) {
    return false;
  }
  req->weighted = weighted != 0;
  req->seeds.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!Get(bytes, &pos, &req->seeds[i])) return false;
  }
  return pos == bytes.size();
}

std::string EncodeSampleResponse(const NeighborBatch& batch) {
  return EncodeRanges('R', batch.neighbors, batch.offsets);
}
std::string EncodeSampleResponse(const FeatureBatch& batch) {
  return EncodeRanges('F', batch.values, batch.offsets);
}
bool DecodeSampleResponse(const std::string& bytes, NeighborBatch* batch) {
  return DecodeRanges(bytes, 'R', &batch->neighbors, &batch->offsets);
}
bool DecodeSampleResponse(const std::string& bytes, FeatureBatch* batch) {
  return DecodeRanges(bytes, 'F', &batch->values, &batch->offsets);
}
std::size_t SampleResponseBytes(const NeighborBatch& batch) {
  return RangesBytes<VertexId>(batch.offsets);
}
std::size_t SampleResponseBytes(const FeatureBatch& batch) {
  return RangesBytes<float>(batch.offsets);
}

std::size_t UpdateBatchBytes(std::size_t n) {
  return 5 + n * kUpdateBytes;  // tag, count, then the records
}

std::string EncodeUpdateBatch(const std::vector<EdgeUpdate>& batch) {
  std::string out;
  out.reserve(UpdateBatchBytes(batch.size()));
  out.push_back('U');
  Put(&out, static_cast<std::uint32_t>(batch.size()));
  for (const EdgeUpdate& u : batch) PutUpdate(&out, u);
  return out;
}

bool DecodeUpdateBatch(const std::string& bytes,
                       std::vector<EdgeUpdate>* batch) {
  std::size_t pos = 0;
  if (bytes.empty() || bytes[pos++] != 'U') return false;
  std::uint32_t count;
  if (!Get(bytes, &pos, &count)) return false;
  // Updates are fixed-size records and the whole remaining payload:
  // exact arithmetic check before the reserve, so truncation, trailing
  // garbage and absurd counts are all rejected without allocating.
  if (bytes.size() - pos != static_cast<std::size_t>(count) * kUpdateBytes) {
    return false;
  }
  batch->clear();
  batch->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EdgeUpdate u;
    if (!GetUpdate(bytes, &pos, &u)) return false;
    batch->push_back(u);
  }
  return pos == bytes.size();
}

namespace {

/// Shared header check for the versioned replication messages: consumes
/// the tag and version byte. kUnsupportedVersion is only reported once the
/// tag matched — an unknown tag is plain malformed input.
DecodeResult GetRepHeader(const std::string& bytes, char tag,
                          std::size_t* pos) {
  if (bytes.size() < 2 || bytes[0] != tag) return DecodeResult::kMalformed;
  const auto version = static_cast<std::uint8_t>(bytes[1]);
  if (version != kReplicationWireVersion) {
    return DecodeResult::kUnsupportedVersion;
  }
  *pos = 2;
  return DecodeResult::kOk;
}

}  // namespace

std::string EncodeRepLogAppend(const RepLogAppend& msg, std::uint8_t version) {
  std::string out;
  out.reserve(10 + msg.entries.size() * kRepEntryBytes);
  out.push_back('L');
  Put(&out, version);
  Put(&out, msg.shard);
  Put(&out, static_cast<std::uint32_t>(msg.entries.size()));
  for (const RepLogEntry& e : msg.entries) {
    Put(&out, e.seq);
    PutUpdate(&out, e.update);
  }
  return out;
}

std::string EncodeRepLogAppendWindow(std::uint32_t shard,
                                     std::uint64_t first_seq,
                                     const TimedUpdate* window,
                                     std::size_t count,
                                     std::uint8_t version) {
  std::string out;
  out.reserve(10 + count * kRepEntryBytes);
  out.push_back('L');
  Put(&out, version);
  Put(&out, shard);
  Put(&out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    Put(&out, first_seq + i);
    PutUpdate(&out, window[i].update);
  }
  return out;
}

DecodeResult DecodeRepLogAppend(const std::string& bytes, RepLogAppend* out) {
  std::size_t pos = 0;
  const DecodeResult head = GetRepHeader(bytes, 'L', &pos);
  if (head != DecodeResult::kOk) return head;
  std::uint32_t count;
  if (!Get(bytes, &pos, &out->shard) || !Get(bytes, &pos, &count)) {
    return DecodeResult::kMalformed;
  }
  // Entries are fixed-size records and the whole remaining payload:
  // exact arithmetic check before the reserve (same hardening discipline
  // as DecodeUpdateBatch — absurd counts must not drive an allocation).
  if (bytes.size() - pos !=
      static_cast<std::size_t>(count) * kRepEntryBytes) {
    return DecodeResult::kMalformed;
  }
  out->entries.clear();
  out->entries.reserve(count);
  std::uint64_t prev_seq = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    RepLogEntry e;
    if (!Get(bytes, &pos, &e.seq) || !GetUpdate(bytes, &pos, &e.update)) {
      return DecodeResult::kMalformed;
    }
    // Sequence numbers must be strictly increasing within a message — a
    // run that is not contiguous-sorted can never be a valid WAL window.
    if (i > 0 && e.seq != prev_seq + 1) return DecodeResult::kMalformed;
    prev_seq = e.seq;
    out->entries.push_back(e);
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

std::string EncodeRepAck(const RepAck& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18);
  out.push_back('A');
  Put(&out, version);
  Put(&out, msg.shard);
  Put(&out, msg.replica);
  Put(&out, msg.applied_seq);
  return out;
}

DecodeResult DecodeRepAck(const std::string& bytes, RepAck* out) {
  std::size_t pos = 0;
  const DecodeResult head = GetRepHeader(bytes, 'A', &pos);
  if (head != DecodeResult::kOk) return head;
  if (!Get(bytes, &pos, &out->shard) || !Get(bytes, &pos, &out->replica) ||
      !Get(bytes, &pos, &out->applied_seq)) {
    return DecodeResult::kMalformed;
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

std::string EncodeRepDigest(const RepDigest& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18 + msg.bucket_edges.size() * 12);
  out.push_back('G');
  Put(&out, version);
  Put(&out, msg.shard);
  Put(&out, msg.through_seq);
  Put(&out, static_cast<std::uint32_t>(msg.bucket_edges.size()));
  for (std::size_t i = 0; i < msg.bucket_edges.size(); ++i) {
    Put(&out, msg.bucket_edges[i]);
    Put(&out, msg.bucket_crcs[i]);
  }
  return out;
}

DecodeResult DecodeRepDigest(const std::string& bytes, RepDigest* out) {
  std::size_t pos = 0;
  const DecodeResult head = GetRepHeader(bytes, 'G', &pos);
  if (head != DecodeResult::kOk) return head;
  std::uint32_t count;
  if (!Get(bytes, &pos, &out->shard) || !Get(bytes, &pos, &out->through_seq) ||
      !Get(bytes, &pos, &count)) {
    return DecodeResult::kMalformed;
  }
  // Buckets are fixed 12-byte records and the whole remaining payload.
  if (bytes.size() - pos != static_cast<std::size_t>(count) * 12) {
    return DecodeResult::kMalformed;
  }
  out->bucket_edges.assign(count, 0);
  out->bucket_crcs.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!Get(bytes, &pos, &out->bucket_edges[i]) ||
        !Get(bytes, &pos, &out->bucket_crcs[i])) {
      return DecodeResult::kMalformed;
    }
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

std::string EncodeRepSnapshot(const RepSnapshot& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18 + msg.checkpoint.size());
  out.push_back('B');
  Put(&out, version);
  Put(&out, msg.shard);
  Put(&out, msg.covered_seq);
  Put(&out, static_cast<std::uint32_t>(msg.checkpoint.size()));
  out.append(msg.checkpoint);
  return out;
}

DecodeResult DecodeRepSnapshot(const std::string& bytes, RepSnapshot* out) {
  std::size_t pos = 0;
  const DecodeResult head = GetRepHeader(bytes, 'B', &pos);
  if (head != DecodeResult::kOk) return head;
  std::uint32_t len;
  if (!Get(bytes, &pos, &out->shard) || !Get(bytes, &pos, &out->covered_seq) ||
      !Get(bytes, &pos, &len)) {
    return DecodeResult::kMalformed;
  }
  // The checkpoint image is the whole remaining payload: exact check
  // before the copy. Its *contents* are verified separately by the
  // io/checkpoint CRC-32 footer on load.
  if (bytes.size() - pos != static_cast<std::size_t>(len)) {
    return DecodeResult::kMalformed;
  }
  out->checkpoint.assign(bytes, pos, len);
  pos += len;
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

namespace {

/// Shared header check for the versioned serving messages — same
/// negotiation stance as GetRepHeader: kUnsupportedVersion only once the
/// tag matched. Unlike the replication protocol, serving clients span a
/// version RANGE (v1 predates the trace context): the accepted version is
/// returned so the body decoder can skip the fields that version lacks.
DecodeResult GetServeHeader(const std::string& bytes, char tag,
                            std::size_t* pos, std::uint8_t* version) {
  if (bytes.size() < 2 || bytes[0] != tag) return DecodeResult::kMalformed;
  *version = static_cast<std::uint8_t>(bytes[1]);
  if (*version < kMinServeWireVersion || *version > kServeWireVersion) {
    return DecodeResult::kUnsupportedVersion;
  }
  *pos = 2;
  return DecodeResult::kOk;
}

}  // namespace

std::string EncodeQueryRequest(const serve::QueryRequest& req,
                               std::uint8_t version) {
  std::string out;
  out.reserve(43 + req.seeds.size() * sizeof(VertexId) +
              req.plan.ops.size() * 34);
  out.push_back('Q');
  Put(&out, version);
  Put(&out, req.tenant);
  Put(&out, req.request_id);
  Put(&out, req.rng_seed);
  if (version != 1) {
    // v2+: the propagated trace context rides between the RNG seed and
    // the seed array. Encoding at version 1 emits the exact legacy
    // layout, byte for byte.
    Put(&out, req.trace.trace_id);
    Put(&out, req.trace.parent_span);
    Put(&out, req.trace.flags);
  }
  Put(&out, static_cast<std::uint32_t>(req.seeds.size()));
  for (VertexId s : req.seeds) Put(&out, s);
  Put(&out, static_cast<std::uint32_t>(req.plan.ops.size()));
  for (const serve::PlanOp& op : req.plan.ops) {
    Put(&out, static_cast<std::uint8_t>(op.kind));
    Put(&out, op.input);
    Put(&out, op.edge_type);
    Put(&out, op.fanout);
    Put(&out, static_cast<std::uint8_t>(op.weighted ? 1 : 0));
    Put(&out, op.count);
    Put(&out, op.range_lo);
    Put(&out, op.range_hi);
  }
  return out;
}

DecodeResult DecodeQueryRequest(const std::string& bytes,
                                serve::QueryRequest* out) {
  std::size_t pos = 0;
  std::uint8_t version = 0;
  const DecodeResult head = GetServeHeader(bytes, 'Q', &pos, &version);
  if (head != DecodeResult::kOk) return head;
  if (!Get(bytes, &pos, &out->tenant) || !Get(bytes, &pos, &out->request_id) ||
      !Get(bytes, &pos, &out->rng_seed)) {
    return DecodeResult::kMalformed;
  }
  out->trace = obs::TraceContext{};
  if (version != 1) {
    if (!Get(bytes, &pos, &out->trace.trace_id) ||
        !Get(bytes, &pos, &out->trace.parent_span) ||
        !Get(bytes, &pos, &out->trace.flags)) {
      return DecodeResult::kMalformed;
    }
  }
  std::uint32_t seed_count;
  if (!Get(bytes, &pos, &seed_count)) return DecodeResult::kMalformed;
  // The seed array cannot exceed the remaining payload: bounds-check the
  // declared count BEFORE allocating (absurd counts must not drive a
  // resize).
  if (static_cast<std::size_t>(seed_count) * sizeof(VertexId) >
      bytes.size() - pos) {
    return DecodeResult::kMalformed;
  }
  out->seeds.resize(seed_count);
  for (std::uint32_t i = 0; i < seed_count; ++i) {
    if (!Get(bytes, &pos, &out->seeds[i])) return DecodeResult::kMalformed;
  }
  std::uint32_t op_count;
  if (!Get(bytes, &pos, &op_count)) return DecodeResult::kMalformed;
  // Ops are fixed 34-byte records and the whole remaining payload: exact
  // arithmetic check before the reserve — this also rejects trailing
  // garbage.
  if (bytes.size() - pos != static_cast<std::size_t>(op_count) * 34) {
    return DecodeResult::kMalformed;
  }
  out->plan.ops.clear();
  out->plan.ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    serve::PlanOp op;
    std::uint8_t kind;
    std::uint8_t weighted;
    if (!Get(bytes, &pos, &kind) || !Get(bytes, &pos, &op.input) ||
        !Get(bytes, &pos, &op.edge_type) || !Get(bytes, &pos, &op.fanout) ||
        !Get(bytes, &pos, &weighted) || !Get(bytes, &pos, &op.count) ||
        !Get(bytes, &pos, &op.range_lo) || !Get(bytes, &pos, &op.range_hi)) {
      return DecodeResult::kMalformed;
    }
    if (kind > static_cast<std::uint8_t>(serve::OpKind::kGather) ||
        weighted > 1) {
      return DecodeResult::kMalformed;
    }
    op.kind = static_cast<serve::OpKind>(kind);
    op.weighted = weighted != 0;
    out->plan.ops.push_back(op);
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

std::string EncodeQueryResponse(const serve::QueryResponse& resp,
                                std::uint8_t version) {
  std::string out;
  out.push_back('P');
  Put(&out, version);
  Put(&out, resp.tenant);
  Put(&out, resp.request_id);
  Put(&out, static_cast<std::uint8_t>(resp.status));
  Put(&out, resp.epoch);
  if (version != 1) Put(&out, resp.trace_id);
  Put(&out, static_cast<std::uint32_t>(resp.stages.size()));
  for (const serve::StageOutput& stage : resp.stages) {
    Put(&out, static_cast<std::uint32_t>(stage.ids.size()));
    for (VertexId v : stage.ids) Put(&out, v);
    Put(&out, static_cast<std::uint32_t>(stage.offsets.size()));
    for (std::uint64_t o : stage.offsets) Put(&out, o);
    Put(&out, stage.feature_dim);
    Put(&out, static_cast<std::uint32_t>(stage.features.size()));
    for (float f : stage.features) Put(&out, f);
  }
  return out;
}

DecodeResult DecodeQueryResponse(const std::string& bytes,
                                 serve::QueryResponse* out) {
  std::size_t pos = 0;
  std::uint8_t version = 0;
  const DecodeResult head = GetServeHeader(bytes, 'P', &pos, &version);
  if (head != DecodeResult::kOk) return head;
  std::uint8_t status;
  std::uint32_t stage_count;
  if (!Get(bytes, &pos, &out->tenant) || !Get(bytes, &pos, &out->request_id) ||
      !Get(bytes, &pos, &status) || !Get(bytes, &pos, &out->epoch)) {
    return DecodeResult::kMalformed;
  }
  out->trace_id = 0;
  if (version != 1 && !Get(bytes, &pos, &out->trace_id)) {
    return DecodeResult::kMalformed;
  }
  if (!Get(bytes, &pos, &stage_count)) return DecodeResult::kMalformed;
  if (status > static_cast<std::uint8_t>(serve::RequestStatus::kShed)) {
    return DecodeResult::kMalformed;
  }
  out->status = static_cast<serve::RequestStatus>(status);
  out->latency_us = 0;  // server-side metadata, not carried on the wire
  // Each stage contributes at least its four length/dim prefixes: reject
  // absurd stage counts before reserving anything.
  if (static_cast<std::size_t>(stage_count) * 16 > bytes.size() - pos) {
    return DecodeResult::kMalformed;
  }
  out->stages.clear();
  out->stages.reserve(stage_count);
  for (std::uint32_t i = 0; i < stage_count; ++i) {
    serve::StageOutput stage;
    std::uint32_t ids_len;
    if (!Get(bytes, &pos, &ids_len)) return DecodeResult::kMalformed;
    if (static_cast<std::size_t>(ids_len) * sizeof(VertexId) >
        bytes.size() - pos) {
      return DecodeResult::kMalformed;
    }
    stage.ids.resize(ids_len);
    for (std::uint32_t j = 0; j < ids_len; ++j) {
      if (!Get(bytes, &pos, &stage.ids[j])) return DecodeResult::kMalformed;
    }
    std::uint32_t off_len;
    if (!Get(bytes, &pos, &off_len)) return DecodeResult::kMalformed;
    if (static_cast<std::size_t>(off_len) * sizeof(std::uint64_t) >
        bytes.size() - pos) {
      return DecodeResult::kMalformed;
    }
    stage.offsets.resize(off_len);
    for (std::uint32_t j = 0; j < off_len; ++j) {
      if (!Get(bytes, &pos, &stage.offsets[j])) {
        return DecodeResult::kMalformed;
      }
    }
    // Structural invariants of the NeighborBatch layout: offsets (when
    // present) start at 0, never decrease, and cover exactly the id
    // array; a stage with no offsets carries no ids (gather sink).
    if (off_len == 0) {
      if (ids_len != 0) return DecodeResult::kMalformed;
    } else {
      if (stage.offsets.front() != 0 || stage.offsets.back() != ids_len) {
        return DecodeResult::kMalformed;
      }
      for (std::uint32_t j = 1; j < off_len; ++j) {
        if (stage.offsets[j] < stage.offsets[j - 1]) {
          return DecodeResult::kMalformed;
        }
      }
    }
    std::uint32_t feat_len;
    if (!Get(bytes, &pos, &stage.feature_dim) ||
        !Get(bytes, &pos, &feat_len)) {
      return DecodeResult::kMalformed;
    }
    if (static_cast<std::size_t>(feat_len) * sizeof(float) >
        bytes.size() - pos) {
      return DecodeResult::kMalformed;
    }
    // Feature rows are dense [n x dim]: a row count that doesn't divide
    // evenly (or features without a dim) is structural damage.
    if (stage.feature_dim == 0) {
      if (feat_len != 0) return DecodeResult::kMalformed;
    } else if (feat_len % stage.feature_dim != 0) {
      return DecodeResult::kMalformed;
    }
    stage.features.resize(feat_len);
    for (std::uint32_t j = 0; j < feat_len; ++j) {
      if (!Get(bytes, &pos, &stage.features[j])) {
        return DecodeResult::kMalformed;
      }
    }
    out->stages.push_back(std::move(stage));
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

std::string EncodeTraceContext(const obs::TraceContext& ctx,
                               std::uint8_t version) {
  std::string out;
  out.reserve(15);
  out.push_back('T');
  Put(&out, version);
  Put(&out, ctx.trace_id);
  Put(&out, ctx.parent_span);
  Put(&out, ctx.flags);
  return out;
}

DecodeResult DecodeTraceContext(const std::string& bytes,
                                obs::TraceContext* out) {
  std::size_t pos = 0;
  if (bytes.size() < 2 || bytes[0] != 'T') return DecodeResult::kMalformed;
  if (static_cast<std::uint8_t>(bytes[1]) != kTraceWireVersion) {
    return DecodeResult::kUnsupportedVersion;
  }
  pos = 2;
  if (!Get(bytes, &pos, &out->trace_id) ||
      !Get(bytes, &pos, &out->parent_span) || !Get(bytes, &pos, &out->flags)) {
    return DecodeResult::kMalformed;
  }
  return pos == bytes.size() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

}  // namespace platod2gl::wire
