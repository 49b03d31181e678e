#include "pipeline/continuous_trainer.h"

namespace platod2gl {

ContinuousTrainer::ContinuousTrainer(UpdateIngestor* ingestor,
                                     MicroBatcher* batcher,
                                     EpochCoordinator* epochs,
                                     Trainer* trainer)
    : ingestor_(ingestor),
      batcher_(batcher),
      epochs_(epochs),
      trainer_(trainer) {}

std::uint64_t ContinuousTrainer::Staleness() const {
  const std::uint64_t ingested = ingestor_->watermark();
  const std::uint64_t applied = batcher_->applied_watermark();
  return ingested > applied ? ingested - applied : 0;
}

ContinuousTrainer::StepReport ContinuousTrainer::Step(Xoshiro256& rng) {
  const std::size_t applied = batcher_->PumpOnce();

  StepReport report;
  report.step = ++steps_done_;
  report.updates_applied = applied;
  {
    const EpochCoordinator::ReadGuard pin = epochs_->PinRead();
    if (applied > 0) {
      // Under the pin: the snapshot the refreshed sampler indexes is the
      // one this step trains on.
      trainer_->RefreshNodeSampler();
    }
    report.epoch = pin.epoch();
    report.staleness = Staleness();
    const GraphSageModel::StepResult result =
        trainer_->TrainStepSampled(rng);
    report.loss = result.loss;
    report.accuracy = result.accuracy;
  }
  return report;
}

std::vector<ContinuousTrainer::StepReport> ContinuousTrainer::Run(
    std::size_t steps, Xoshiro256& rng) {
  std::vector<StepReport> reports;
  reports.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) reports.push_back(Step(rng));
  return reports;
}

PipelineStats ContinuousTrainer::Stats() const {
  PipelineStats s;
  s.ingest = ingestor_->Stats();
  s.batcher = batcher_->Stats();
  s.epoch = epochs_->epoch();
  s.staleness = Staleness();
  return s;
}

}  // namespace platod2gl
