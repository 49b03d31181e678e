#include "io/wal.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/crc32.h"

namespace platod2gl {
namespace {

constexpr char kMagic[4] = {'P', 'D', '2', 'W'};
// ts u64 | kind u8 | type u32 | src u64 | dst u64 | w f64
constexpr std::size_t kEntryBytes = 8 + 1 + 4 + 8 + 8 + 8;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // magic, version, count
constexpr std::size_t kFooterBytes = 4;          // crc32 (v2)

template <typename T>
void Put(std::vector<unsigned char>* buf, T v) {
  unsigned char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  buf->insert(buf->end(), raw, raw + sizeof(T));
}

/// Bounds-checked read cursor: every Get validates remaining bytes first.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<unsigned char> EncodeWal(const std::vector<TimedUpdate>& entries,
                                     std::uint32_t version) {
  std::vector<unsigned char> buf;
  buf.reserve(kHeaderBytes + entries.size() * kEntryBytes + kFooterBytes);
  buf.insert(buf.end(), kMagic, kMagic + 4);
  Put<std::uint32_t>(&buf, version);
  Put<std::uint64_t>(&buf, entries.size());
  for (const TimedUpdate& t : entries) {
    Put<std::uint64_t>(&buf, t.timestamp);
    Put<std::uint8_t>(&buf, static_cast<std::uint8_t>(t.update.kind));
    Put<std::uint32_t>(&buf, t.update.edge.type);
    Put<std::uint64_t>(&buf, t.update.edge.src);
    Put<std::uint64_t>(&buf, t.update.edge.dst);
    Put<double>(&buf, t.update.edge.weight);
  }
  if (version >= 2) {
    Put<std::uint32_t>(&buf, Crc32(buf.data(), buf.size()));
  }
  return buf;
}

Status DecodeWal(const unsigned char* data, std::size_t size,
                 std::vector<TimedUpdate>* out) {
  out->clear();
  Reader r(data, size);
  char magic[4];
  if (!r.Get(&magic)) return Status::DataLoss("WAL: truncated header");
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::DataLoss("WAL: bad magic");
  }
  std::uint32_t version = 0;
  if (!r.Get(&version)) return Status::DataLoss("WAL: truncated header");
  if (version < 1 || version > kWalVersion) {
    return Status::InvalidArgument("WAL: unsupported version " +
                                   std::to_string(version));
  }
  if (version >= 2) {
    // Verify the footer over every preceding byte BEFORE decoding any
    // entry, mirroring the checkpoint v2 discipline: corrupt files are
    // rejected whole, never half-decoded.
    if (size < kHeaderBytes + kFooterBytes) {
      return Status::DataLoss("WAL: truncated footer");
    }
    std::uint32_t stored = 0;
    std::memcpy(&stored, data + size - kFooterBytes, kFooterBytes);
    const std::uint32_t computed = Crc32(data, size - kFooterBytes);
    if (stored != computed) {
      return Status::DataLoss("WAL: CRC mismatch (corrupt or truncated)");
    }
    size -= kFooterBytes;
    r = Reader(data, size);
    r.Get(&magic);
    r.Get(&version);
  }
  std::uint64_t count = 0;
  if (!r.Get(&count)) return Status::DataLoss("WAL: truncated count");
  // Exact size check before any allocation: a lying count cannot force a
  // huge reserve or a partial decode.
  if (count > r.remaining() / kEntryBytes || r.remaining() != count * kEntryBytes) {
    return Status::DataLoss("WAL: entry count disagrees with payload size");
  }
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TimedUpdate t;
    std::uint8_t kind = 0;
    r.Get(&t.timestamp);
    r.Get(&kind);
    r.Get(&t.update.edge.type);
    r.Get(&t.update.edge.src);
    r.Get(&t.update.edge.dst);
    r.Get(&t.update.edge.weight);
    if (kind > static_cast<std::uint8_t>(UpdateKind::kDelete)) {
      out->clear();
      return Status::DataLoss("WAL: invalid update kind " +
                              std::to_string(kind));
    }
    t.update.kind = static_cast<UpdateKind>(kind);
    out->push_back(t);
  }
  return Status::Ok();
}

Status SaveWal(const TemporalEdgeLog& log, const std::string& path) {
  std::vector<TimedUpdate> entries;
  log.WindowInto(0, std::numeric_limits<std::uint64_t>::max(), &entries);
  const std::vector<unsigned char> buf = EncodeWal(entries);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Unavailable("WAL: cannot open " + path);
  f.write(reinterpret_cast<const char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  if (!f) return Status::Unavailable("WAL: short write to " + path);
  return Status::Ok();
}

Status LoadWal(const std::string& path, TemporalEdgeLog* log) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::NotFound("WAL: cannot open " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<unsigned char> buf(static_cast<std::size_t>(size));
  if (size > 0) {
    f.read(reinterpret_cast<char*>(buf.data()), size);
    if (!f) return Status::DataLoss("WAL: short read from " + path);
  }
  std::vector<TimedUpdate> entries;
  if (Status s = DecodeWal(buf.data(), buf.size(), &entries); !s.ok()) {
    return s;
  }
  // Validate monotonicity before touching *log so a bad file leaves it
  // unchanged (Append would stop mid-way otherwise).
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].timestamp < entries[i - 1].timestamp) {
      return Status::DataLoss("WAL: timestamp regression at entry " +
                              std::to_string(i));
    }
  }
  if (!entries.empty() && !log->empty() &&
      entries.front().timestamp < log->MaxTimestamp()) {
    return Status::OutOfRange(
        "WAL: file starts before the log's current tail");
  }
  log->AppendBatch(entries);
  return Status::Ok();
}

}  // namespace platod2gl
