#include "core/compressed_ids.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/memory.h"

namespace platod2gl {

CompressedIdList::CompressedIdList(const std::vector<VertexId>& ids,
                                   bool enable_compression,
                                   std::size_t capacity)
    : enable_(enable_compression) {
  if (ids.empty()) return;
  if (enable_) {
    // Appending one by one narrows z to the widest allowed prefix that
    // every ID shares with the first; OR-ing the differences finds it at
    // once.
    VertexId diff = 0;
    for (VertexId v : ids) diff |= v ^ ids.front();
    const int shared = diff == 0 ? 8 : __builtin_clzll(diff) / 8;
    z_ = SnapToAllowed(static_cast<std::uint8_t>(shared));
  }
  const std::size_t w = SuffixWidth();
  prefix_ = z_ == 0 ? 0 : ids.front() >> (8 * w);
  count_ = static_cast<std::uint32_t>(ids.size());
  bytes_.reserve(std::max(capacity, ids.size()) * w);
  bytes_.resize(ids.size() * w);
  for (std::size_t i = 0; i < ids.size(); ++i) WriteSuffix(i * w, ids[i]);
}

VertexId CompressedIdList::Get(std::size_t i) const {
  assert(i < count_);
  const std::size_t w = SuffixWidth();
  VertexId suffix = ReadSuffix(i * w);
  if (z_ == 0) return suffix;
  return (prefix_ << (8 * w)) | suffix;
}

std::uint8_t CompressedIdList::SharedBytesWith(VertexId id) const {
  if (z_ == 0) return 0;
  // XOR the reconstructed prefix base with the candidate: the number of
  // equal leading bytes is the count of leading zero bytes of the XOR.
  const std::size_t w = SuffixWidth();
  const VertexId base = prefix_ << (8 * w);
  const VertexId diff = (base ^ id) >> (8 * w) << (8 * w);  // high z bytes
  if (diff == 0) return z_;
  const int lead_bits = __builtin_clzll(diff);
  return static_cast<std::uint8_t>(
      std::min<int>(z_, lead_bits / 8));
}

std::uint8_t CompressedIdList::SnapToAllowed(std::uint8_t limit) {
  for (std::uint8_t z : kAllowedPrefixBytes) {
    if (z <= limit) return z;
  }
  return 0;
}

void CompressedIdList::Reencode(std::uint8_t new_z) {
  assert(new_z <= z_);
  if (new_z == z_) return;
  const std::size_t room = capacity();
  std::vector<VertexId> decoded = Decode();
  z_ = new_z;
  prefix_ =
      (count_ == 0 || z_ == 0) ? 0 : decoded[0] >> (8 * SuffixWidth());
  const std::size_t w = SuffixWidth();
  std::vector<std::uint8_t> wider;
  wider.reserve(room * w);
  wider.resize(decoded.size() * w);
  bytes_.swap(wider);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    WriteSuffix(i * w, decoded[i]);
  }
}

void CompressedIdList::Reserve(std::size_t n) {
  if (count_ > 0) bytes_.reserve(n * SuffixWidth());
}

void CompressedIdList::ReserveOneMore() {
  const std::size_t w = SuffixWidth();
  if (bytes_.size() + w > bytes_.capacity()) {
    bytes_.reserve(GrownCapacity(count_) * w);
  }
}

// Suffix widths are always 8 - z with z in {0,4,6,7}, i.e. exactly
// {8,4,2,1} bytes — each maps to one unaligned load/store plus a byte
// swap, which keeps the hot leaf-scan path off a per-byte loop.
void CompressedIdList::WriteSuffix(std::size_t byte_pos, VertexId id) {
  std::uint8_t* p = bytes_.data() + byte_pos;
  switch (SuffixWidth()) {
    case 1: {
      *p = static_cast<std::uint8_t>(id);
      return;
    }
    case 2: {
      const std::uint16_t v = __builtin_bswap16(static_cast<std::uint16_t>(id));
      std::memcpy(p, &v, 2);
      return;
    }
    case 4: {
      const std::uint32_t v = __builtin_bswap32(static_cast<std::uint32_t>(id));
      std::memcpy(p, &v, 4);
      return;
    }
    default: {
      const std::uint64_t v = __builtin_bswap64(id);
      std::memcpy(p, &v, 8);
      return;
    }
  }
}

VertexId CompressedIdList::ReadSuffix(std::size_t byte_pos) const {
  const std::uint8_t* p = bytes_.data() + byte_pos;
  switch (SuffixWidth()) {
    case 1:
      return *p;
    case 2: {
      std::uint16_t v;
      std::memcpy(&v, p, 2);
      return __builtin_bswap16(v);
    }
    case 4: {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return __builtin_bswap32(v);
    }
    default: {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      return __builtin_bswap64(v);
    }
  }
}

void CompressedIdList::Append(VertexId id) {
  if (count_ == 0) {
    z_ = enable_ ? kAllowedPrefixBytes.front() : 0;
    prefix_ = z_ == 0 ? 0 : id >> (8 * SuffixWidth());
    bytes_.clear();
  } else if (enable_) {
    const std::uint8_t shared = SharedBytesWith(id);
    if (shared < z_) Reencode(SnapToAllowed(shared));
  }
  ReserveOneMore();
  const std::size_t w = SuffixWidth();
  bytes_.resize(bytes_.size() + w);
  WriteSuffix(count_ * w, id);
  ++count_;
}

void CompressedIdList::Insert(std::size_t pos, VertexId id) {
  assert(pos <= count_);
  if (pos == count_) {
    Append(id);
    return;
  }
  if (count_ == 0) {
    Append(id);
    return;
  }
  if (enable_) {
    const std::uint8_t shared = SharedBytesWith(id);
    if (shared < z_) Reencode(SnapToAllowed(shared));
  }
  ReserveOneMore();
  const std::size_t w = SuffixWidth();
  bytes_.insert(bytes_.begin() + static_cast<std::ptrdiff_t>(pos * w), w, 0);
  WriteSuffix(pos * w, id);
  ++count_;
}

void CompressedIdList::Set(std::size_t i, VertexId id) {
  assert(i < count_);
  if (enable_) {
    const std::uint8_t shared = SharedBytesWith(id);
    if (shared < z_) Reencode(SnapToAllowed(shared));
  } else if (z_ != 0) {
    Reencode(0);
  }
  WriteSuffix(i * SuffixWidth(), id);
}

void CompressedIdList::RemoveAt(std::size_t i) {
  assert(i < count_);
  const std::size_t w = SuffixWidth();
  bytes_.erase(bytes_.begin() + static_cast<std::ptrdiff_t>(i * w),
               bytes_.begin() + static_cast<std::ptrdiff_t>((i + 1) * w));
  --count_;
}

void CompressedIdList::RemoveSwapLast(std::size_t i) {
  assert(i < count_);
  const std::size_t w = SuffixWidth();
  const std::size_t last = count_ - 1;
  if (i != last) {
    std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(last * w), w,
                bytes_.begin() + static_cast<std::ptrdiff_t>(i * w));
  }
  bytes_.resize(last * w);
  --count_;
}

std::size_t CompressedIdList::Find(VertexId id) const {
  if (count_ == 0) return npos;
  const std::size_t w = SuffixWidth();
  // Fast reject: an ID that does not share the prefix cannot be present.
  if (z_ != 0 && (id >> (8 * w)) != prefix_) return npos;
  const VertexId target =
      id & (w == 8 ? ~0ULL : ((1ULL << (8 * w)) - 1));
  for (std::size_t i = 0, pos = 0; i < count_; ++i, pos += w) {
    if (ReadSuffix(pos) == target) return i;
  }
  return npos;
}

std::vector<VertexId> CompressedIdList::Decode() const {
  std::vector<VertexId> out;
  DecodeInto(&out);
  return out;
}

void CompressedIdList::DecodeInto(std::vector<VertexId>* out) const {
  out->clear();
  out->reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) out->push_back(Get(i));
}

void CompressedIdList::Clear() {
  bytes_.clear();
  count_ = 0;
  z_ = 0;
  prefix_ = 0;
}

bool CompressedIdList::CheckConsistent(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (std::find(kAllowedPrefixBytes.begin(), kAllowedPrefixBytes.end(), z_) ==
      kAllowedPrefixBytes.end()) {
    return fail("prefix width z=" + std::to_string(z_) + " not in {0,4,6,7}");
  }
  if (!enable_ && z_ != 0) {
    return fail("compression disabled but z=" + std::to_string(z_));
  }
  if (bytes_.size() != static_cast<std::size_t>(count_) * SuffixWidth()) {
    return fail("encoded byte count " + std::to_string(bytes_.size()) +
                " != count * suffix width " +
                std::to_string(static_cast<std::size_t>(count_) *
                               SuffixWidth()));
  }
  if (z_ > 0 && z_ < 8 && (prefix_ >> (8 * z_)) != 0) {
    return fail("stored prefix wider than z bytes");
  }
  // Decode -> re-encode round-trip: a fresh list fed this list's IDs must
  // reproduce them exactly, with at least as wide a prefix (Append only
  // ever narrows z, so the live list may be narrower than optimal but
  // never wider).
  CompressedIdList fresh(enable_);
  for (std::size_t i = 0; i < count_; ++i) fresh.Append(Get(i));
  if (fresh.size() != count_) return fail("round-trip size mismatch");
  for (std::size_t i = 0; i < count_; ++i) {
    if (fresh.Get(i) != Get(i)) {
      return fail("round-trip mismatch at position " + std::to_string(i));
    }
  }
  if (fresh.prefix_bytes() < z_) {
    return fail("stored prefix wider than the IDs share (z=" +
                std::to_string(z_) + ", achievable " +
                std::to_string(fresh.prefix_bytes()) + ")");
  }
  return true;
}

}  // namespace platod2gl
