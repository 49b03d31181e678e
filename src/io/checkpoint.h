// Checkpointing: binary save/load of a GraphStore.
//
// The production deployment periodically checkpoints the dynamic graph so
// graph servers can restart without replaying the full update history.
// The format is a simple length-prefixed binary stream:
//
//   magic "PD2G" | version u32 | num_relations u32
//   per relation: edge_count u64 | edge_count x (src u64, dst u64, w f64)
//   attr_count u64 | per vertex: id u64, has_label u8 [label i64],
//                     feat_len u32, feat_len x f32
//   crc32 u32 footer (v2+) over every preceding byte
//
// Edges are written grouped by source; loading bulk-builds each source's
// run (Samtree::BulkBuild) and installs it with TopologyStore::InstallTree,
// so a checkpoint restore costs the same as a bulk build. All failures are
// reported as Status, never exceptions.
//
// Integrity: v2 files end in a CRC-32 footer that is verified over the
// whole file BEFORE any record is applied, so truncated or bit-rotted
// checkpoints are rejected with kDataLoss instead of silently building a
// wrong store (the shard-recovery path in dist/ depends on this). v1
// files (no footer) still load for backward compatibility.
#pragma once

#include <string>

#include "common/status.h"
#include "storage/graph_store.h"

namespace platod2gl {

/// Serialise the topology of every relation plus all vertex attributes.
Status SaveGraph(const GraphStore& graph, const std::string& path);

/// Restore into an *empty* GraphStore. The store's num_relations must be
/// >= the checkpoint's relation count.
Status LoadGraph(const std::string& path, GraphStore* graph);

/// SaveGraph into an in-memory buffer — byte-identical to what SaveGraph
/// would write to disk (same format, same CRC-32 footer). Serialisation
/// order is deterministic, so two stores that applied the same updates in
/// the same order produce equal bytes: the replication layer uses this
/// both to ship snapshot-bootstrap images and to prove replica stores
/// bit-identical to a primary (docs/replication.md).
Status SaveGraphToBytes(const GraphStore& graph, std::string* out);

/// LoadGraph from an in-memory buffer (CRC verified first, like the file
/// path). The receive side of snapshot-bootstrap shipping.
Status LoadGraphFromBytes(const std::string& bytes, GraphStore* graph);

}  // namespace platod2gl
