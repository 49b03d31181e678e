#include "io/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/crc32.h"

namespace platod2gl {
namespace {

constexpr char kMagic[4] = {'P', 'D', '2', 'G'};
// v1: no integrity footer. v2: everything up to the last 4 bytes is
// covered by a CRC-32 footer, verified in full BEFORE any record is
// applied to the target store (truncated or bit-rotted checkpoints are
// rejected with kDataLoss instead of building a silently wrong store).
// v1 files are still loaded (no footer to check).
constexpr std::uint32_t kVersion = 2;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Write-side wrapper keeping a running CRC-32 of every byte written
/// through it; the footer itself is written raw at the end. Sinks either
/// to a FILE* or, when `buf` is set, to an in-memory string (the
/// snapshot-bootstrap shipping path) — both produce identical bytes.
struct CrcWriter {
  std::FILE* f = nullptr;
  std::uint32_t crc = 0;
  std::string* buf = nullptr;

  bool Write(const void* p, std::size_t n) {
    crc = Crc32(p, n, crc);
    if (n == 0) return true;
    if (buf != nullptr) {
      buf->append(static_cast<const char*>(p), n);
      return true;
    }
    return std::fwrite(p, 1, n, f) == n;
  }
  bool WriteFooter() {
    const std::uint32_t value = crc;
    if (buf != nullptr) {
      buf->append(reinterpret_cast<const char*>(&value), sizeof(value));
      return true;
    }
    return std::fwrite(&value, sizeof(value), 1, f) == 1;
  }
};

template <typename T>
bool WritePod(CrcWriter& w, const T& value) {
  return w.Write(&value, sizeof(T));
}

template <typename T>
bool ReadPod(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

/// Bytes between the current position and EOF (0 on error). Length
/// prefixes are checked against this BEFORE allocating: v1 files carry no
/// CRC footer, so a lying prefix in a 13-byte file must not be allowed to
/// drive a multi-gigabyte vector reserve (fuzz-found hazard).
long RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  if (std::fseek(f, pos, SEEK_SET) != 0) return 0;
  return end >= pos ? end - pos : 0;
}

/// Verify the CRC-32 footer of an already-open file: checksum every byte
/// except the trailing 4, compare, and rewind to the start on success.
/// `min_size` guards the smallest structurally valid file.
Status VerifyCrcFooter(std::FILE* f, const std::string& path,
                       long min_size) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::Internal("seek failed: " + path);
  }
  const long size = std::ftell(f);
  if (size < min_size + 4) {
    return Status::DataLoss("checkpoint truncated: " + path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::Internal("seek failed: " + path);
  }
  std::uint32_t crc = 0;
  long remaining = size - 4;
  char buf[4096];
  while (remaining > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<long>(remaining, static_cast<long>(sizeof(buf))));
    if (std::fread(buf, 1, chunk, f) != chunk) {
      return Status::Internal("read failed during checksum: " + path);
    }
    crc = Crc32(buf, chunk, crc);
    remaining -= static_cast<long>(chunk);
  }
  std::uint32_t stored = 0;
  if (!ReadPod(f, &stored)) {
    return Status::DataLoss("checkpoint footer unreadable: " + path);
  }
  if (stored != crc) {
    return Status::DataLoss(
        "checkpoint checksum mismatch (corrupt or truncated): " + path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::Internal("seek failed: " + path);
  }
  return Status::Ok();
}

/// The shared serialisation body behind SaveGraph and SaveGraphToBytes:
/// everything between opening the sink and closing it.
Status SaveGraphInto(const GraphStore& graph, CrcWriter& w) {
  if (!w.Write(kMagic, sizeof(kMagic)) || !WritePod(w, kVersion) ||
      !WritePod(w, static_cast<std::uint32_t>(graph.num_relations()))) {
    return Status::Internal("short write (header)");
  }

  for (std::size_t r = 0; r < graph.num_relations(); ++r) {
    const TopologyStore& topo = graph.topology(static_cast<EdgeType>(r));
    if (!WritePod(w, static_cast<std::uint64_t>(topo.NumEdges()))) {
      return Status::Internal("short write (edge count)");
    }
    bool ok = true;
    std::uint64_t written = 0;
    topo.ForEachSource([&](VertexId src, const Samtree& tree) {
      tree.ForEachNeighbor([&](VertexId dst, Weight weight) {
        ok = ok && WritePod(w, src) && WritePod(w, dst) &&
             WritePod(w, weight);
        ++written;
      });
    });
    if (!ok) return Status::Internal("short write (edges)");
    if (written != topo.NumEdges()) {
      return Status::Internal("edge count drifted during save");
    }
  }

  // Attributes: collect IDs first (ForEach is not re-entrant with reads).
  struct AttrRow {
    VertexId id;
    std::optional<std::int64_t> label;
    std::vector<float> features;
  };
  std::vector<AttrRow> rows;
  const AttributeStore& attrs = graph.attributes();
  // AttributeStore has no generic iterator in its public face beyond
  // counting, so serialise through a collected snapshot.
  attrs.ForEachVertex([&](VertexId v, const std::vector<float>& feats,
                          const std::optional<std::int64_t>& label) {
    rows.push_back(AttrRow{v, label, feats});
  });
  if (!WritePod(w, static_cast<std::uint64_t>(rows.size()))) {
    return Status::Internal("short write (attr count)");
  }
  for (const AttrRow& row : rows) {
    const std::uint8_t has_label = row.label.has_value() ? 1 : 0;
    if (!WritePod(w, row.id) || !WritePod(w, has_label)) {
      return Status::Internal("short write (attr header)");
    }
    if (has_label && !WritePod(w, *row.label)) {
      return Status::Internal("short write (label)");
    }
    const std::uint32_t len = static_cast<std::uint32_t>(row.features.size());
    if (!WritePod(w, len)) return Status::Internal("short write");
    if (len > 0 &&
        !w.Write(row.features.data(), sizeof(float) * len)) {
      return Status::Internal("short write (features)");
    }
  }
  if (!w.WriteFooter()) return Status::Internal("short write (crc footer)");
  return Status::Ok();
}

/// The shared parse body behind LoadGraph and LoadGraphFromBytes: `f` is
/// positioned at the start; `path` only labels error messages.
Status LoadGraphStream(std::FILE* f, const std::string& path,
                       GraphStore* graph) {
  char magic[4];
  std::uint32_t version = 0, num_relations = 0;
  if (std::fread(magic, sizeof(magic), 1, f) != 1 ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a PlatoD2GL checkpoint: " + path);
  }
  if (!ReadPod(f, &version) || version == 0 || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  if (version >= 2) {
    // Integrity first: verify the whole file against its footer BEFORE
    // applying any record, then rewind and re-read the header.
    Status s = VerifyCrcFooter(f, path, /*min_size=*/12);
    if (!s.ok()) return s;
    char skip_magic[4];
    std::uint32_t skip_version;
    if (std::fread(skip_magic, sizeof(skip_magic), 1, f) != 1 ||
        !ReadPod(f, &skip_version)) {
      return Status::Internal("reread failed: " + path);
    }
  }
  if (!ReadPod(f, &num_relations)) {
    return Status::InvalidArgument("truncated header");
  }
  if (num_relations > graph->num_relations()) {
    return Status::InvalidArgument(
        "checkpoint has more relations than the target store");
  }
  if (graph->NumEdges() != 0) {
    return Status::InvalidArgument("target store is not empty");
  }

  for (std::uint32_t r = 0; r < num_relations; ++r) {
    std::uint64_t count = 0;
    if (!ReadPod(f, &count)) {
      return Status::InvalidArgument("truncated relation header");
    }
    TopologyStore& topo = graph->topology(static_cast<EdgeType>(r));
    // SaveGraph writes edges grouped by source, so whole neighbourhoods
    // arrive as runs and can be bulk-built bottom-up (O(n) per tree)
    // instead of inserted one by one. InstallTree merges gracefully if a
    // (foreign) file interleaves sources.
    VertexId run_src = kInvalidVertex;
    std::vector<std::pair<VertexId, Weight>> run;
    auto flush = [&]() {
      if (run.empty()) return;
      topo.InstallTree(run_src,
                       Samtree::BulkBuild(std::move(run), topo.config()));
      run.clear();
    };
    for (std::uint64_t i = 0; i < count; ++i) {
      VertexId src, dst;
      Weight weight;
      if (!ReadPod(f, &src) || !ReadPod(f, &dst) ||
          !ReadPod(f, &weight)) {
        return Status::InvalidArgument("truncated edge records");
      }
      if (src != run_src) {
        flush();
        run_src = src;
      }
      run.emplace_back(dst, weight);
    }
    flush();
  }

  std::uint64_t attr_count = 0;
  if (!ReadPod(f, &attr_count)) {
    return Status::InvalidArgument("truncated attribute header");
  }
  for (std::uint64_t i = 0; i < attr_count; ++i) {
    VertexId id;
    std::uint8_t has_label;
    if (!ReadPod(f, &id) || !ReadPod(f, &has_label)) {
      return Status::InvalidArgument("truncated attribute record");
    }
    if (has_label) {
      std::int64_t label;
      if (!ReadPod(f, &label)) {
        return Status::InvalidArgument("truncated label");
      }
      graph->attributes().SetLabel(id, label);
    }
    std::uint32_t len;
    if (!ReadPod(f, &len)) {
      return Status::InvalidArgument("truncated feature length");
    }
    if (len > 0) {
      if (static_cast<std::uint64_t>(RemainingBytes(f)) <
          static_cast<std::uint64_t>(len) * sizeof(float)) {
        return Status::InvalidArgument("feature length exceeds file size");
      }
      std::vector<float> feats(len);
      if (std::fread(feats.data(), sizeof(float), len, f) != len) {
        return Status::InvalidArgument("truncated features");
      }
      graph->attributes().SetFeatures(id, std::move(feats));
    }
  }
  return Status::Ok();
}

}  // namespace

Status SaveGraph(const GraphStore& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::Internal("cannot open " + path + " for writing");
  CrcWriter w{f.get()};
  return SaveGraphInto(graph, w);
}

Status SaveGraphToBytes(const GraphStore& graph, std::string* out) {
  out->clear();
  CrcWriter w;
  w.buf = out;
  return SaveGraphInto(graph, w);
}

Status LoadGraph(const std::string& path, GraphStore* graph) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open " + path);
  return LoadGraphStream(f.get(), path, graph);
}

Status LoadGraphFromBytes(const std::string& bytes, GraphStore* graph) {
  if (bytes.empty()) {
    return Status::InvalidArgument("empty checkpoint image");
  }
  // fmemopen (POSIX; the deployment is Linux) gives the stream parser —
  // and its CRC-footer verification — a read-only view of the buffer.
  FilePtr f(fmemopen(const_cast<char*>(bytes.data()), bytes.size(), "rb"));
  if (!f) return Status::Internal("fmemopen failed");
  return LoadGraphStream(f.get(), "<bytes>", graph);
}

}  // namespace platod2gl
