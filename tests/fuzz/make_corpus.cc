// Seed-corpus generator for the fuzz harnesses in this directory.
//
// Usage: make_corpus <output-dir>
//
// Writes wire/, replication/ and checkpoint/ subdirectories of small,
// VALID inputs produced by the real encoders (plus a few deliberately
// edgy ones: empty, header-only, v1-without-footer). The checked-in corpora
// under tests/fuzz/corpus/ were produced by this tool; rerun it after a
// format change and commit the diff.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "io/checkpoint.h"
#include "storage/graph_store.h"

namespace {

using platod2gl::Edge;
using platod2gl::EdgeUpdate;
using platod2gl::UpdateKind;

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s (%zu bytes)\n", path.c_str(), bytes.size());
}

std::string Tagged(char tag, const std::string& payload) {
  return std::string(1, tag) + payload;
}

std::string FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void MakeWireCorpus(const std::filesystem::path& dir) {
  namespace wire = platod2gl::wire;
  wire::SampleRequest req;
  req.edge_type = 1;
  req.fanout = 8;
  req.weighted = true;
  req.seeds = {1, 2, 3, 42};
  WriteFile(dir / "sample_request.bin",
            Tagged('\x00', wire::EncodeSampleRequest(req)));

  platod2gl::NeighborBatch batch;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    batch.offsets.push_back(batch.neighbors.size());
    for (std::uint64_t n = 0; n < 4; ++n) {
      batch.neighbors.push_back(seed * 100 + n);
    }
  }
  batch.offsets.push_back(batch.neighbors.size());
  WriteFile(dir / "sample_response.bin",
            Tagged('\x01', wire::EncodeSampleResponse(batch)));

  std::vector<EdgeUpdate> updates;
  updates.push_back({UpdateKind::kInsert, Edge{1, 2, 0.5, 0}});
  updates.push_back({UpdateKind::kInPlaceUpdate, Edge{1, 2, 1.5, 0}});
  updates.push_back({UpdateKind::kDelete, Edge{1, 2, 0.0, 0}});
  WriteFile(dir / "update_batch.bin",
            Tagged('\x02', wire::EncodeUpdateBatch(updates)));

  wire::FeatureBatch rows;
  rows.values = {0.5f, -1.25f, 3.0f, 4.5f, 0.0f};
  rows.offsets = {0, 3, 3, 5};  // width-3 row, featureless id, width-2 row
  WriteFile(dir / "feature_response.bin",
            Tagged('\x03', wire::EncodeSampleResponse(rows)));

  WriteFile(dir / "empty_payload.bin", "\x00");
}

void MakeReplicationCorpus(const std::filesystem::path& dir) {
  namespace wire = platod2gl::wire;

  wire::RepLogAppend append;
  append.shard = 3;
  append.entries = {
      {11, {UpdateKind::kInsert, Edge{1, 2, 1.5, 0}}},
      {12, {UpdateKind::kInPlaceUpdate, Edge{3, 4, -2.0, 1}}},
      {13, {UpdateKind::kDelete, Edge{5, 6, 0.0, 0}}}};
  WriteFile(dir / "rep_append.bin",
            Tagged('\x00', wire::EncodeRepLogAppend(append)));
  // Version negotiation is part of the format surface: seed one append
  // from a "future" peer so mutation sweeps explore the boundary between
  // kUnsupportedVersion and kMalformed.
  WriteFile(dir / "rep_append_v99.bin",
            Tagged('\x00', wire::EncodeRepLogAppend(append, 99)));
  wire::RepLogAppend empty_append;
  empty_append.shard = 0;
  WriteFile(dir / "rep_append_empty.bin",
            Tagged('\x00', wire::EncodeRepLogAppend(empty_append)));

  WriteFile(dir / "rep_ack.bin",
            Tagged('\x01', wire::EncodeRepAck({2, 1, 987654321ULL})));

  wire::RepDigest digest;
  digest.shard = 1;
  digest.through_seq = 42;
  digest.bucket_edges = {3, 0, 17, 2};
  digest.bucket_crcs = {0xDEADBEEF, 0, 0x12345678, 0xFF};
  WriteFile(dir / "rep_digest.bin",
            Tagged('\x02', wire::EncodeRepDigest(digest)));

  // A real checkpoint image as the snapshot payload, so sweeps that
  // mutate the embedded bytes exercise the CRC-checked loader boundary
  // the bootstrap path depends on.
  platod2gl::GraphStoreConfig cfg;
  cfg.num_shards = 1;
  platod2gl::GraphStore store(cfg);
  store.AddEdge(Edge{1, 2, 1.0, 0});
  store.AddEdge(Edge{2, 3, 0.5, 0});
  wire::RepSnapshot snap;
  snap.shard = 0;
  snap.covered_seq = 2;
  (void)platod2gl::SaveGraphToBytes(store, &snap.checkpoint);
  WriteFile(dir / "rep_snapshot.bin",
            Tagged('\x03', wire::EncodeRepSnapshot(snap)));

  WriteFile(dir / "empty_payload.bin", "\x02");
}

void MakeCheckpointCorpus(const std::filesystem::path& dir) {
  using platod2gl::GraphStore;
  using platod2gl::GraphStoreConfig;

  const std::string scratch = (dir / "scratch.tmp").string();

  GraphStoreConfig cfg;
  cfg.num_shards = 2;
  cfg.num_relations = 2;
  GraphStore store(cfg);
  store.AddEdge(Edge{1, 2, 1.0, 0});
  store.AddEdge(Edge{1, 3, 2.0, 0});
  store.AddEdge(Edge{2, 3, 0.5, 1});
  store.attributes().SetFeatures(1, {0.1f, 0.2f});
  store.attributes().SetLabel(2, 7);
  (void)platod2gl::SaveGraph(store, scratch);
  const std::string v2 = FileBytes(scratch);
  WriteFile(dir / "graph_v2.bin", v2);

  // Synthesise a v1 image: strip the CRC footer, patch version 2 -> 1.
  // v1 is the interesting loader surface — every record is parsed from
  // unverified bytes.
  std::string v1 = v2.substr(0, v2.size() - 4);
  v1[4] = '\x01';
  WriteFile(dir / "graph_v1.bin", v1);

  std::filesystem::remove(scratch);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];
  for (const char* sub : {"wire", "replication", "checkpoint"}) {
    std::filesystem::create_directories(root / sub);
  }
  std::printf("wire:\n");
  MakeWireCorpus(root / "wire");
  std::printf("replication:\n");
  MakeReplicationCorpus(root / "replication");
  std::printf("checkpoint:\n");
  MakeCheckpointCorpus(root / "checkpoint");
  return 0;
}
