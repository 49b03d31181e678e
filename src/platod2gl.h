// PlatoD2GL — umbrella header: the full public API.
//
// Quickstart:
//   #include "platod2gl.h"
//   platod2gl::GraphStore graph;
//   graph.AddEdge({.src = 1, .dst = 2, .weight = 0.5});
//   platod2gl::Xoshiro256 rng(7);
//   std::vector<platod2gl::VertexId> out;
//   graph.SampleNeighbors(1, 10, /*weighted=*/true, rng, &out);
#pragma once

#include "common/histogram.h"  // IWYU pragma: export
#include "common/memory.h"     // IWYU pragma: export
#include "common/random.h"     // IWYU pragma: export
#include "common/status.h"     // IWYU pragma: export
#include "common/timer.h"      // IWYU pragma: export
#include "common/types.h"      // IWYU pragma: export

#include "index/alias_table.h"  // IWYU pragma: export
#include "index/cstable.h"      // IWYU pragma: export
#include "index/fstable.h"      // IWYU pragma: export

#include "core/alpha_split.h"     // IWYU pragma: export
#include "core/compressed_ids.h"  // IWYU pragma: export
#include "core/samtree.h"         // IWYU pragma: export

#include "storage/attribute_store.h"  // IWYU pragma: export
#include "storage/cuckoo_map.h"       // IWYU pragma: export
#include "storage/graph_store.h"      // IWYU pragma: export
#include "storage/topology_store.h"   // IWYU pragma: export

#include "sampling/neighbor_sampler.h"  // IWYU pragma: export
#include "sampling/node_sampler.h"      // IWYU pragma: export
#include "sampling/subgraph_sampler.h"  // IWYU pragma: export

#include "dist/cluster.h"      // IWYU pragma: export
#include "dist/fault_injector.h"  // IWYU pragma: export
#include "dist/partitioner.h"  // IWYU pragma: export
#include "dist/remote_sampler.h"  // IWYU pragma: export
#include "dist/shard.h"        // IWYU pragma: export
#include "dist/wire.h"         // IWYU pragma: export

#include "gnn/gcn_model.h"  // IWYU pragma: export
#include "gnn/model.h"    // IWYU pragma: export
#include "gnn/trainer.h"    // IWYU pragma: export

#include "pipeline/continuous_trainer.h"  // IWYU pragma: export
#include "pipeline/epoch_coordinator.h"   // IWYU pragma: export
#include "pipeline/micro_batcher.h"       // IWYU pragma: export
#include "pipeline/update_ingestor.h"     // IWYU pragma: export

#include "obs/export.h"   // IWYU pragma: export
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/profile.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export

#include "serve/admission.h"        // IWYU pragma: export
#include "serve/executor.h"         // IWYU pragma: export
#include "serve/query_plan.h"       // IWYU pragma: export
#include "serve/request_batcher.h"  // IWYU pragma: export
#include "serve/server.h"           // IWYU pragma: export

#include "io/checkpoint.h"         // IWYU pragma: export
#include "io/edge_list_reader.h"   // IWYU pragma: export
#include "temporal/edge_log.h"  // IWYU pragma: export

#include "gen/datasets.h"    // IWYU pragma: export
#include "gen/generators.h"  // IWYU pragma: export
