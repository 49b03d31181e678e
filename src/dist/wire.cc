#include "dist/wire.h"

#include <cstring>

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

/// The RepLogAppend layout, written once: entry i is seq_of(i) followed by
/// update_of(i).
template <typename SeqOf, typename UpdateOf>
std::string EncodeAppend(std::uint32_t shard, std::size_t count,
                         std::uint8_t version, SeqOf seq_of,
                         UpdateOf update_of) {
  std::string out;
  out.reserve(10 + count * kRepEntryBytes);
  out.push_back('L');
  Put(&out, version);
  Put(&out, shard);
  Put(&out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    Put(&out, static_cast<std::uint64_t>(seq_of(i)));
    PutUpdate(&out, update_of(i));
  }
  return out;
}

}  // namespace

std::string EncodeRepLogAppend(const RepLogAppend& msg, std::uint8_t version) {
  return EncodeAppend(
      msg.shard, msg.entries.size(), version,
      [&](std::size_t i) { return msg.entries[i].seq; },
      [&](std::size_t i) -> const EdgeUpdate& {
        return msg.entries[i].update;
      });
}

std::string EncodeRepLogAppendWindow(std::uint32_t shard,
                                     std::uint64_t first_seq,
                                     const TimedUpdate* window,
                                     std::size_t count,
                                     std::uint8_t version) {
  return EncodeAppend(
      shard, count, version, [&](std::size_t i) { return first_seq + i; },
      [&](std::size_t i) -> const EdgeUpdate& { return window[i].update; });
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

}  // namespace platod2gl::wire
