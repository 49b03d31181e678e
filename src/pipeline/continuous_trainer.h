// ContinuousTrainer: the end-to-end continuous-learning driver.
//
// This is the glue the paper's deployment implies but the library so far
// left to hand-written test harnesses: producers stream timestamped
// updates into the UpdateIngestor while this driver alternates
//
//   pump   — MicroBatcher::PumpOnce: drain, WAL-append, coalesce, apply
//            under the write barrier (epoch advances);
//   train  — pin the new epoch and run one GraphSAGE minibatch step
//            against the consistent snapshot G^(t) it names.
//
// Every step reports the *graph staleness* the model was trained at: the
// ingest watermark (newest event accepted from producers) minus the
// applied watermark (newest event the pinned snapshot contains). A
// healthy pipeline keeps this near zero; growing staleness means
// ingestion is outrunning the pump cadence (raise max_batch, or shed with
// kDropOldest).
//
// Run PumpOnce/Step from one driver thread; producers and extra pinned
// readers (evaluation threads) may run concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gnn/trainer.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"

namespace platod2gl {

/// One-stop observable snapshot of the whole pipeline.
struct PipelineStats {
  IngestorStats ingest;
  MicroBatcherStats batcher;
  std::uint64_t epoch = 0;      ///< applied micro-batches
  std::uint64_t staleness = 0;  ///< ingest watermark - applied watermark
};

class ContinuousTrainer {
 public:
  /// All collaborators are borrowed and must outlive the driver.
  ContinuousTrainer(UpdateIngestor* ingestor, MicroBatcher* batcher,
                    EpochCoordinator* epochs, Trainer* trainer);

  struct StepReport {
    std::size_t step = 0;          ///< 1-based step index
    double loss = 0.0;
    double accuracy = 0.0;
    std::uint64_t epoch = 0;       ///< snapshot the step trained on
    std::uint64_t staleness = 0;   ///< event-time lag of that snapshot
    std::size_t updates_applied = 0;  ///< raw updates pumped before it
  };

  /// Pump once, then train one node-sampled minibatch on the pinned
  /// snapshot. A pump that applied updates re-snapshots the trainer's node
  /// sampler first, so newly arrived vertices become sampleable seeds.
  StepReport Step(Xoshiro256& rng);

  /// Run `steps` pump+train iterations; returns the per-step reports.
  std::vector<StepReport> Run(std::size_t steps, Xoshiro256& rng);

  /// Drain the pipeline to empty (producers should be done or closed).
  /// Returns the raw updates applied.
  std::size_t Drain() { return batcher_->Flush(); }

  /// Current ingest-vs-applied event-time lag.
  std::uint64_t Staleness() const;

  PipelineStats Stats() const;

 private:
  UpdateIngestor* ingestor_;
  MicroBatcher* batcher_;
  EpochCoordinator* epochs_;
  Trainer* trainer_;
  std::size_t steps_done_ = 0;
};

}  // namespace platod2gl
