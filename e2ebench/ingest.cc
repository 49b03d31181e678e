// ingest-pipeline: the whole streaming write path on one node, no
// sampling: UpdateIngestor queue -> MicroBatcher merge -> TemporalEdgeLog
// append -> coalesce -> latch-free batch apply.
//
// A GraphStore holds ogbn-mini. One producer offers a 60/30/10
// insert/update/delete stream (4 shards x 8,192, kBlock); the main
// thread is the single consumer looping PumpOnce (max_batch 4,096, apply
// pool of 2). The producer keeps at most 16,384 updates offered but not
// yet visible: PumpOnce drains every queue into MicroBatcher's unbounded
// pending_ whatever the apply progress, so a saturating producer would
// grow it without limit.
//
// The consumer pumps only when at least max_batch updates past the applied
// watermark have returned from Offer. DrainAll takes the shard queues one
// at a time: while it walks them, the producer can land update t in a
// drained shard and t+1 in one not yet drained. A pump that applied t+1
// would make the WAL refuse t on the next pump (log_rejected) after Offer
// had accepted it. Every update a guarded pump applies was queued before
// the walk began, so the pump applies the next max_batch updates in order.
// Keeping a margin of 1,024 of the newest updates pending instead was not
// enough: when the host stalled the consumer mid-walk, a run refused 657.
//
// An update is visible when the PumpOnce whose applied_watermark() covers
// it returns; its visibility time runs from its Offer returning. A unit is
// an update made visible, and its CPU cost is the whole process's CPU
// time, producer and apply pool included, over the updates made visible.
// Once the window has filled, every pump leaves 12,288 updates offered and
// not yet visible, so the consumer does not wait and that time is the
// pipeline's.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "e2e.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "temporal/edge_log.h"

namespace pd2gl_e2e {
namespace {

using platod2gl::MicroBatcher;
using platod2gl::SplitMix64;
using platod2gl::Status;
using platod2gl::TemporalEdgeLog;
using platod2gl::TimedUpdate;
using platod2gl::UpdateIngestor;
using platod2gl::Xoshiro256;

constexpr std::size_t kApplyThreads = 2;
constexpr std::size_t kMaxBatch = 4096;
constexpr std::uint64_t kWindow = 16384;
constexpr std::size_t kWarmupUpdates = 1 << 16;
/// Visibility is timed on one update in 8; one in 64 is a traced unit.
constexpr std::uint64_t kLatencyEvery = 8;
constexpr std::uint64_t kTraceEvery = 64;
/// Offer stamps in flight: more slots than the window holds updates.
constexpr std::size_t kStampSlots = 1 << 16;
constexpr std::size_t kDegreeChecks = 10000;

struct IngestState {
  IngestState(const std::vector<Edge>* base, std::uint64_t seed)
      : source(base, seed) {}

  platod2gl::obs::MetricRegistry registry;
  std::unique_ptr<GraphStore> store;
  TemporalEdgeLog log;
  platod2gl::ThreadPool pool{kApplyThreads};
  platod2gl::EpochCoordinator epochs;
  std::unique_ptr<UpdateIngestor> ingestor;
  std::unique_ptr<MicroBatcher> batcher;
  UpdateSource source;
  std::uint64_t next_ts = 1;
  double load_s = 0.0;
};

std::unique_ptr<IngestState> SetUpIngest(const std::vector<Edge>& edges,
                                         std::uint64_t seed,
                                         RunReport* report) {
  auto st = std::make_unique<IngestState>(&edges, seed);
  const std::int64_t t0 = NowNs();
  st->store = std::make_unique<GraphStore>();
  for (const Edge& e : edges) st->store->AddEdge(e);
  st->load_s = static_cast<double>(NowNs() - t0) / 1e9;
  st->store->sample_cache()->RegisterWith(&st->registry, {});
  st->ingestor = std::make_unique<UpdateIngestor>(
      platod2gl::IngestorConfig{.num_shards = 4,
                                .shard_capacity = 8192,
                                .policy = platod2gl::BackpressurePolicy::kBlock,
                                .num_relations = 1},
      &st->registry);
  st->batcher = std::make_unique<MicroBatcher>(
      st->store.get(), &st->pool, st->ingestor.get(), &st->epochs, &st->log,
      platod2gl::MicroBatcherConfig{.max_batch = kMaxBatch},
      &st->registry);
  for (std::size_t i = 0; i < kWarmupUpdates; ++i) {
    const Status s = st->ingestor->Offer({st->next_ts++, st->source.Next()});
    if (!s.ok()) report->Violation("warm-up offer: " + s.ToString());
    if ((i + 1) % kMaxBatch == 0) st->batcher->PumpOnce(true);
  }
  st->batcher->Flush();
  return st;
}

struct Pump {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t coalesce_ns = 0;  // traced: replayed Coalesce
  std::int64_t wal_ns = 0;       // traced: replayed AppendBatch
};

/// A traced update: when its Offer returned and which pump made it visible.
struct TracedUpdate {
  std::uint64_t ts = 0;
  std::int64_t offered_ns = 0;
  std::size_t pump = 0;
};

struct IngestPhase {
  std::vector<Pump> pumps;
  /// Units: every pump's newly visible updates and the process CPU time
  /// since the previous pump, stamped when the pump returned; the
  /// visibility times of sampled updates.
  PhaseCost cost;
  std::vector<TracedUpdate> traced;
  std::uint64_t offered = 0;
  std::uint64_t offer_failures = 0;
  double offer_ns = 0.0;
  double producer_wall_ns = 0.0;
  std::size_t pending_max = 0;
  std::size_t queue_depth_max = 0;
  std::size_t threads = 0;
  double seconds = 0.0;
};

/// One slice: the producer offers under the window while this thread
/// pumps. Visibility needs each sampled update's Offer-return time on the
/// consumer side; the producer publishes it in a slot tagged with the
/// timestamp. An update applied before its stamp is published (its Offer
/// returned after the pump) counts as visible at once.
IngestPhase RunIngestPhase(IngestState& st, double seconds, bool traced) {
  IngestPhase ph;
  ph.seconds = seconds;
  const std::uint64_t first_ts = st.next_ts;
  std::uint64_t watermark = st.batcher->applied_watermark();
  std::vector<std::atomic<std::uint64_t>> stamp_ts(kStampSlots);
  std::vector<std::atomic<std::int64_t>> stamp_ns(kStampSlots);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> visible{watermark};
  // Newest timestamp whose Offer has returned.
  std::atomic<std::uint64_t> offered{st.next_ts - 1};

  std::jthread producer([&] {
    const std::int64_t p0 = NowNs();
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t ts = st.next_ts;
      if (ts - visible.load(std::memory_order_acquire) > kWindow) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return stop.load(std::memory_order_acquire) ||
                 ts - visible.load(std::memory_order_acquire) <= kWindow;
        });
        continue;
      }
      const EdgeUpdate& u = st.source.Next();
      const std::int64_t o0 = NowNs();
      const Status s = st.ingestor->Offer(TimedUpdate{ts, u});
      const std::int64_t o1 = NowNs();
      ph.offer_ns += static_cast<double>(o1 - o0);
      ++ph.offered;
      if (!s.ok()) ++ph.offer_failures;
      if (ts % kLatencyEvery == 0) {
        stamp_ns[ts % kStampSlots].store(o1, std::memory_order_relaxed);
        stamp_ts[ts % kStampSlots].store(ts, std::memory_order_release);
      }
      offered.store(ts, std::memory_order_release);
      ++st.next_ts;
    }
    ph.producer_wall_ns = static_cast<double>(NowNs() - p0);
  });

  // Traced slices replay each pump's logged micro-batch through the public
  // Coalesce and AppendBatch into scratch objects. The scratch log starts
  // as a copy of the live one: AppendBatch's cost depends on the log size.
  std::optional<TemporalEdgeLog> scratch_log;
  if (traced) scratch_log.emplace(st.log);
  std::vector<EdgeUpdate> folded;
  ph.cost.start_ns = NowNs();
  const std::int64_t deadline = ph.cost.end_ns =
      ph.cost.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t cpu = CpuNs();
  while (NowNs() < deadline) {
    if (offered.load(std::memory_order_acquire) - watermark < kMaxBatch) {
      std::this_thread::yield();
      continue;
    }
    ph.queue_depth_max =
        std::max(ph.queue_depth_max, st.ingestor->QueueDepth());
    const std::uint64_t log_tail = st.log.MaxTimestamp();
    Pump pump;
    pump.start_ns = NowNs();
    st.batcher->PumpOnce(true);
    pump.end_ns = NowNs();
    const std::uint64_t previous = watermark;
    watermark = st.batcher->applied_watermark();
    const std::int64_t cpu_now = CpuNs();
    ph.cost.cpu_us.push_back(
        {pump.end_ns, static_cast<double>(cpu_now - cpu) / 1e3});
    cpu = cpu_now;
    ph.cost.units.push_back(
        {pump.end_ns, static_cast<double>(watermark - previous)});
    {
      std::lock_guard<std::mutex> lock(mu);
      visible.store(watermark, std::memory_order_release);
    }
    cv.notify_one();
    ph.pending_max = std::max(ph.pending_max, st.batcher->Stats().pending);

    // Updates in (previous, watermark] became visible as this pump returned.
    for (std::uint64_t ts = (previous / kLatencyEvery + 1) * kLatencyEvery;
         ts <= watermark; ts += kLatencyEvery) {
      if (ts < first_ts) continue;  // offered in an earlier slice
      const std::size_t slot = ts % kStampSlots;
      const std::int64_t offered =
          stamp_ts[slot].load(std::memory_order_acquire) == ts
              ? std::min(stamp_ns[slot].load(std::memory_order_relaxed),
                         pump.end_ns)
              : pump.end_ns;
      ph.cost.unit_ms.push_back(static_cast<double>(pump.end_ns - offered) /
                                1e6);
      if (traced && ts % kTraceEvery == 0) {
        ph.traced.push_back({ts, offered, ph.pumps.size()});
      }
    }
    if (traced) {
      const std::vector<TimedUpdate> batch =
          st.log.Window(log_tail, st.log.MaxTimestamp());
      folded.clear();
      for (const TimedUpdate& u : batch) folded.push_back(u.update);
      const std::int64_t r0 = NowNs();
      MicroBatcher::Coalesce(&folded);
      const std::int64_t r1 = NowNs();
      scratch_log->AppendBatch(std::span<const TimedUpdate>(batch));
      pump.coalesce_ns = r1 - r0;
      pump.wal_ns = NowNs() - r1;
    }
    ph.pumps.push_back(pump);
  }
  ph.threads = ThreadCount();
  {
    std::lock_guard<std::mutex> lock(mu);
    stop.store(true, std::memory_order_release);
  }
  cv.notify_one();
  producer.join();
  return ph;
}

/// Spans of a traced slice: each traced update is a unit whose children
/// are its wait in the queue and the pump that made it visible; they are
/// cut from the same time stamps, so they cover the unit by construction.
/// The pump's children are estimates: the durations of the coalesce and
/// WAL append replayed after the pump returned, drawn from the pump's
/// start. The pump's self time (drain, merge, latch-free apply) is the
/// residual of that estimate.
void RecordSpans(const IngestPhase& ph, SpanLog* spans) {
  for (const TracedUpdate& u : ph.traced) {
    const Pump& pump = ph.pumps[u.pump];
    const std::int64_t begin = std::min(u.offered_ns, pump.start_ns);
    const std::uint32_t root = spans->Add(
        "pipeline.visible", SpanLog::kNoParent, u.ts, begin, pump.end_ns);
    spans->Add("pipeline.queue", root, u.ts, begin, pump.start_ns);
    const std::uint32_t pump_span =
        spans->Add("pipeline.pump", root, u.ts, pump.start_ns, pump.end_ns);
    const std::int64_t coalesced =
        std::min(pump.end_ns, pump.start_ns + pump.coalesce_ns);
    spans->Add("pipeline.coalesce", pump_span, u.ts, pump.start_ns, coalesced);
    spans->Add("temporal.wal_append", pump_span, u.ts, coalesced,
               std::min(pump.end_ns, coalesced + pump.wal_ns));
  }
}

/// After Flush the live store must equal a replay of its own log over the
/// base edges: same edge count, same degree on 10,000 sampled vertices.
void CheckIngestEnd(IngestState& st, const std::vector<Edge>& edges,
                    std::uint64_t seed, RunReport* report) {
  st.batcher->Flush();
  report->Require(st.ingestor->QueueDepth() == 0 &&
                      st.batcher->Stats().pending == 0 &&
                      st.batcher->applied_watermark() == st.next_ts - 1,
                  "updates left unapplied after Flush");
  platod2gl::GraphStoreConfig cfg;
  cfg.sample_cache.enabled = false;
  GraphStore replay(cfg);
  for (const Edge& e : edges) replay.AddEdge(e);
  st.log.ReplayInto(&replay, 0, st.log.MaxTimestamp());
  report->Require(replay.NumEdges() == st.store->NumEdges(),
                  "live store holds " + std::to_string(st.store->NumEdges()) +
                      " edges, its log replays to " +
                      std::to_string(replay.NumEdges()));
  const std::vector<VertexId> sources = SourcesOf(edges);
  Xoshiro256 rng(seed ^ 0xDE6EULL);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < kDegreeChecks; ++i) {
    const VertexId v = sources[rng.NextUint64(sources.size())];
    if (replay.Degree(v) != st.store->Degree(v)) ++mismatched;
  }
  report->Require(mismatched == 0, std::to_string(mismatched) +
                                       " sampled degrees differ from the "
                                       "replay of the log");
}

/// Ingest-path refusals so far: rejected/dropped/invalid offers and
/// updates the batcher refused to log or apply.
std::uint64_t Refusals(const IngestState& st) {
  const auto in = st.ingestor->Stats();
  const auto mb = st.batcher->Stats();
  return in.rejected + in.dropped + in.invalid + mb.log_rejected +
         mb.invalid_dropped;
}

}  // namespace

void RunIngestPipeline(const Options& opt, RunReport* report) {
  const std::vector<Edge> edges = OgbnMiniEdges();
  const std::uint64_t stream_seed = SplitMix64(opt.seed ^ 0x1E57ULL).Next();

  double rss_base = 0.0;
  std::unique_ptr<IngestState> st = TimedSetup<IngestState>(
      opt, report, &rss_base,
      [&] { return SetUpIngest(edges, stream_seed, report); });
  ReportMemory(opt, {st->store.get()},
               static_cast<double>(edges.size()) / st->load_s, report);

  const std::uint64_t refused0 = Refusals(*st);
  std::vector<IngestPhase> slices;
  if (!opt.traced()) {
    ReportEndToEnd(
        slices.emplace_back(RunIngestPhase(*st, opt.duration_s, false)).cost,
        report);
  } else {
    SpanLog spans;
    std::vector<PhaseCost> plain;
    std::vector<PhaseCost> traced_costs;
    // The traced slices are adjacent; counters are cut around the pair.
    CacheTallies cache0;
    CacheTallies cache1;
    platod2gl::MicroBatcherStats mb0;
    platod2gl::MicroBatcherStats mb1;
    double offer_ns = 0.0, producer_ns = 0.0, busy_ns = 0.0, seconds = 0.0;
    std::size_t pumps = 0, pending_max = 0, depth_max = 0;
    bool started = false;
    for (const bool traced : kTraceSlices) {
      if (traced && !started) {
        started = true;
        cache0 = ReadCacheTallies(st->registry.Snapshot());
        mb0 = st->batcher->Stats();
      }
      const IngestPhase& ph = slices.emplace_back(
          RunIngestPhase(*st, opt.duration_s / 4, traced));
      (traced ? traced_costs : plain).push_back(ph.cost);
      if (!traced) continue;
      cache1 = ReadCacheTallies(st->registry.Snapshot());
      mb1 = st->batcher->Stats();
      RecordSpans(ph, &spans);
      offer_ns += ph.offer_ns;
      producer_ns += ph.producer_wall_ns;
      for (const Pump& p : ph.pumps) {
        busy_ns += static_cast<double>(p.end_ns - p.start_ns);
      }
      seconds += ph.seconds;
      pumps += ph.pumps.size();
      pending_max = std::max(pending_max, ph.pending_max);
      depth_max = std::max(depth_max, ph.queue_depth_max);
    }

    spans.ReportShares("pipeline.visible", report);
    ReportWallAndOverhead(plain, traced_costs, report);
    const double ingested =
        static_cast<double>(mb1.updates_ingested - mb0.updates_ingested);
    report->Metric("pipeline.offer_busy_ratio",
                   producer_ns > 0.0 ? offer_ns / producer_ns : 0.0, "ratio");
    report->Metric("pipeline.consumer_busy_ratio", busy_ns / (seconds * 1e9),
                   "ratio");
    report->Metric("pipeline.updates_per_pump",
                   pumps > 0 ? ingested / static_cast<double>(pumps) : 0.0,
                   "count");
    report->Metric(
        "pipeline.coalesced_ratio",
        ingested > 0.0
            ? static_cast<double>(mb1.coalesced - mb0.coalesced) / ingested
            : 0.0,
        "ratio");
    report->Metric("pipeline.pending_max", static_cast<double>(pending_max),
                   "count");
    report->Metric("pipeline.queue_depth_max", static_cast<double>(depth_max),
                   "count");
    ReportCache(cache1 - cache0, {st->store.get()}, report);
    report->Require(spans.WriteJson(opt.trace_file, opt, 20000),
                    "cannot write " + opt.trace_file);
  }
  for (const IngestPhase& ph : slices) {
    report->attempted += ph.offered;
    report->failed += ph.offer_failures;
    report->Require(ph.threads <= kMaxThreads,
                    std::to_string(ph.threads) + " threads running");
  }
  const double rss_mb = ResidentGrowthMb(rss_base);
  CheckIngestEnd(*st, edges, opt.seed, report);
  report->failed += Refusals(*st) - refused0;
  if (opt.traced()) report->Metric("process.rss_mb", rss_mb, "MB");
}

}  // namespace pd2gl_e2e
