// CP-IDs: dynamic shared-prefix compression of vertex IDs (paper Section
// VI-A).
//
// All IDs inside one samtree node tend to share high bytes (IDs are
// allocated with locality in production graphs), so a node stores
//
//   z | prefix | suf(v_0) | suf(v_1) | ... | suf(v_{n-1})
//
// where `prefix` is the z leading bytes common to every ID and suf(v) is
// the remaining (8 - z) bytes, big-endian. Following the paper, z is
// restricted to {0, 4, 6, 7} bytes so prefix selection is a couple of
// comparisons. When an inserted ID does not share the current prefix the
// list is re-encoded with the widest allowed prefix that still fits — a
// rare O(n) event (the paper's "Updates" rule in Appendix A).
//
// With compression disabled (the paper's "w/o CP" ablation) the list
// behaves identically but always encodes with z = 0, i.e. 8 bytes per ID.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace platod2gl {

class CompressedIdList {
 public:
  /// Prefix lengths (bytes) the encoder may choose from.
  static constexpr std::array<std::uint8_t, 4> kAllowedPrefixBytes = {7, 6, 4,
                                                                      0};

  explicit CompressedIdList(bool enable_compression = true)
      : enable_(enable_compression) {}

  /// Encode a whole list at once: the same z, prefix and suffixes as
  /// appending `ids` one by one, with room for max(capacity, ids.size())
  /// IDs (sized exactly unless the caller asks for room).
  CompressedIdList(const std::vector<VertexId>& ids, bool enable_compression,
                   std::size_t capacity = 0);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// IDs the encoded buffer holds room for at the current suffix width.
  /// A re-encode to a wider suffix keeps this room.
  std::size_t capacity() const { return bytes_.capacity() / SuffixWidth(); }
  /// Make room for n IDs at the current suffix width (no-op when there is
  /// room, or when the list is empty: its first ID picks the width).
  void Reserve(std::size_t n);

  /// Current shared-prefix length in bytes (z).
  std::uint8_t prefix_bytes() const { return z_; }

  /// Decode the ID at position i — O(1).
  VertexId Get(std::size_t i) const;

  /// Append an ID at the end — amortised O(1); O(n) if the shared prefix
  /// must shrink. A full list grows by a bounded step (GrownCapacity
  /// entries), not by doubling.
  void Append(VertexId id);

  /// Insert an ID at `pos`, shifting later entries — O(n). Used by the
  /// *ordered* ID lists of internal samtree nodes.
  void Insert(std::size_t pos, VertexId id);

  /// Overwrite the ID at position i.
  void Set(std::size_t i, VertexId id);

  /// Remove position i by shifting later entries forward — O(n) (ordered
  /// lists).
  void RemoveAt(std::size_t i);

  /// Remove position i by swapping in the last entry — O(1) (unordered
  /// leaf lists; mirrors FSTable::RemoveSwapLast).
  void RemoveSwapLast(std::size_t i);

  /// Linear scan for an ID; returns its position or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t Find(VertexId id) const;

  /// Decode the whole list — O(n).
  std::vector<VertexId> Decode() const;
  /// Decode the whole list into *out, reusing its buffer.
  void DecodeInto(std::vector<VertexId>* out) const;

  void Clear();

  /// Heap bytes held by the encoded list (plus the fixed header the paper's
  /// string format carries: 1 byte of z + z bytes of prefix).
  std::size_t MemoryUsage() const {
    return bytes_.capacity() + 1 + z_;
  }

  /// Structural self-check for the samtree invariant sweep: z must be one
  /// of the paper's allowed widths (and 0 when compression is disabled),
  /// the encoded byte count must match count * (8 - z), the stored prefix
  /// must fit in z bytes, and every ID must survive a decode -> re-encode
  /// round-trip through a fresh list (exercising prefix selection and
  /// re-encoding against the stored representation). Returns true when
  /// consistent, otherwise fills *error.
  bool CheckConsistent(std::string* error) const;

 private:
  std::size_t SuffixWidth() const { return 8u - z_; }

  /// Number of leading bytes `id` shares with the current prefix
  /// (only meaningful when count_ > 0).
  std::uint8_t SharedBytesWith(VertexId id) const;

  /// Largest allowed prefix length <= `limit`.
  static std::uint8_t SnapToAllowed(std::uint8_t limit);

  /// Re-encode every suffix with a new (smaller) prefix length, keeping
  /// the room in IDs.
  void Reencode(std::uint8_t new_z);

  /// Make room for one more suffix of the current width.
  void ReserveOneMore();

  void WriteSuffix(std::size_t byte_pos, VertexId id);
  VertexId ReadSuffix(std::size_t byte_pos) const;

  // count_, z_ and enable_ share one word, so the list is 40 bytes.
  std::uint32_t count_ = 0;
  std::uint8_t z_ = 0;        // shared prefix length in bytes
  bool enable_;
  std::uint64_t prefix_ = 0;  // top z bytes of every ID (right-aligned)
  std::vector<std::uint8_t> bytes_;  // count_ * (8 - z_) big-endian suffixes
};

}  // namespace platod2gl
