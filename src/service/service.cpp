#include "service/service.h"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "common/diag.h"
#include "core/segment_clocks.h"
#include "query/parser.h"

namespace horus::service {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

ServiceOptions patched(ServiceOptions options) {
  if (options.data_dir.empty()) {
    throw std::invalid_argument("service: data_dir is required");
  }
  // The daemon owns its durable state layout: WAL under <data_dir>/wal so
  // the checkpoint store can freeze/restore it next to the epochs.
  options.pipeline.wal_dir = options.data_dir + "/wal";
  // A residency budget implies the overload signal: degrade when eviction
  // cannot hold residency anywhere near the budget (pins, held reads, or a
  // tail outgrowing it), recover once it is back within 2x.
  if (options.segment_budget_bytes > 0 &&
      options.thresholds.resident_bytes_high <= 0) {
    options.thresholds.resident_bytes_high =
        static_cast<std::int64_t>(options.segment_budget_bytes) * 4;
    options.thresholds.resident_bytes_low =
        static_cast<std::int64_t>(options.segment_budget_bytes) * 2;
  }
  return options;
}

}  // namespace

HorusService::HorusService(queue::Broker& broker, ExecutionGraph& graph,
                           ServiceOptions options)
    : broker_(broker),
      graph_(graph),
      options_(patched(std::move(options))),
      wal_dir_(options_.pipeline.wal_dir),
      pipeline_(broker, graph, options_.pipeline),
      daemon_(graph,
              ClockDaemon::Options{.interval_ms = options_.clock_interval_ms,
                                   .mode = options_.clock_mode}),
      checkpoints_(CheckpointOptions{options_.data_dir + "/checkpoints",
                                     options_.checkpoint_keep_epochs}),
      controller_(options_.thresholds) {
  obs::Registry& registry = obs::Registry::global();
  obs::Family<obs::Counter>& sessions = registry.counters(
      "horus_service_sessions_total", "Query sessions by admission outcome");
  sessions_admitted_ = &sessions.with({{"outcome", "admitted"}});
  sessions_rejected_ = &sessions.with({{"outcome", "rejected"}});
  backpressure_waits_ = &registry.counter(
      "horus_service_backpressure_waits_total",
      "Publishes that blocked on the ingest backlog bound");
  active_sessions_gauge_ = &registry.gauge(
      "horus_service_active_sessions", "Concurrent admitted query sessions");
  query_seconds_ = &registry.histogram("horus_service_query_seconds",
                                       "Service-served causal query latency");
  plan_cost_rejections_ = &registry.counter(
      "horus_service_plan_cost_rejections_total",
      "Queries rejected under overload by planner cost estimate");
}

HorusService::~HorusService() { stop(); }

void HorusService::start(TrafficSource source) {
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (running_.exchange(true)) return;
  stopping_.store(false);
  killed_.store(false);

  if (const auto info = checkpoints_.latest()) {
    if (graph_.event_count() != 0) {
      running_.store(false);
      throw std::logic_error(
          "service: restore requires an empty graph (got " +
          std::to_string(graph_.event_count()) + " events)");
    }
    CheckpointStore::Restored restored =
        checkpoints_.restore(graph_, wal_dir_);
    daemon_.restore_clocks(std::move(restored.clocks));
    // The checkpoint only records groups that had committed by the cut; a
    // group whose first commit landed after it is absent from the snapshot,
    // and the dead incarnation's later commit must not survive for it (the
    // replay window would be skipped). Reset to zero first so absent means
    // "nothing committed at the cut", then seek the recorded ones.
    broker_.reset_group_offsets("horus-");
    broker_.seek_offsets(restored.offsets);
    restored_epoch_ = restored.epoch;
    setup_segments(restored.sealed_segments);
    if (graph_.store().segments() != nullptr) {
      // Adopted segments come back summary-stale; build from the restored
      // clocks now so pruning is live before the first assignment pass.
      daemon_.with_clocks([this](const ClockTable& clocks) {
        return update_segment_summaries(graph_.store(), clocks,
                                        /*force=*/true);
      });
    }
    diag(DiagLevel::kInfo, "service",
         "restored checkpoint epoch " + std::to_string(restored.epoch) +
             " (" + std::to_string(graph_.event_count()) +
             " events); replaying queue from checkpointed offsets");
  } else {
    // Cold start: whatever offsets/WAL a previous (checkpoint-less)
    // incarnation left would skip the replay window — clear both so the
    // full queue replays into the empty graph.
    broker_.reset_group_offsets("horus-");
    if (fs::exists(wal_dir_)) {
      for (const auto& entry : fs::directory_iterator(wal_dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("inter-", 0) == 0) fs::remove(entry.path());
      }
    }
    setup_segments({});
  }

  pipeline_.start();
  daemon_.start();
  ThreadPool& pool = ThreadPool::shared();
  loops_.push_back(pool.spawn_service([this] { checkpoint_loop(); }));
  loops_.push_back(pool.spawn_service([this] { supervisor_loop(); }));
  if (source) {
    loops_.push_back(pool.spawn_service(
        [this, src = std::move(source)] { traffic_loop(src); }));
  }
}

void HorusService::stop() {
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  wake_.notify_all();
  for (ThreadPool::ServiceThread& loop : loops_) loop.join();
  loops_.clear();
  pipeline_.stop();  // final flush + commit
  daemon_.stop();    // final tick
  try {
    checkpoint_now();
  } catch (const std::exception& e) {
    diag(DiagLevel::kError, "service",
         std::string("final checkpoint failed: ") + e.what());
  }
  // Park within the resident budget: the final flush/tick/checkpoint ran
  // after the supervisor loop joined, so whatever they faulted in would
  // otherwise stay resident for the life of the stopped daemon.
  if (graph::SegmentManager* segments = graph_.store().segments()) {
    segments->evict_to_budget();
  }
}

void HorusService::kill() {
  const std::lock_guard lifecycle_lock(lifecycle_mutex_);
  if (!running_.exchange(false)) return;
  killed_.store(true);
  stopping_.store(true);
  wake_.notify_all();
  for (ThreadPool::ServiceThread& loop : loops_) loop.join();
  loops_.clear();
  pipeline_.kill();  // no final flush/commit — the SIGKILL stand-in
  daemon_.stop();    // thread must die; its state is discarded with *this
}

std::uint64_t HorusService::checkpoint_now() {
  const std::lock_guard checkpoint_lock(checkpoint_mutex_);
  // Lock order: pipeline commit gate, then daemon (shared). The daemon
  // never takes the gate, and workers never take the daemon lock, so this
  // order is cycle-free. Under the gate the graph is frozen (encoders only
  // mutate it inside gated flush sections), so offsets, clocks, graph, and
  // WAL all describe the same cut. The clocks get there by one tick under
  // the gate: a restore trusts the checkpointed clocks of nodes in evicted
  // segments without auditing their edges again, so edges written since
  // the last periodic tick must be assigned and audited first.
  const auto gate = pipeline_.quiesce_commits();
  daemon_.tick();
  const std::vector<queue::Broker::CommittedOffset> offsets =
      broker_.offsets_snapshot();
  std::string clock_record = daemon_.with_clocks([](const ClockTable& t) {
    std::ostringstream out;
    t.save(out);
    return std::move(out).str();
  });
  const CheckpointInfo info =
      checkpoints_.write(graph_, clock_record, offsets, wal_dir_);
  return info.epoch;
}

void HorusService::publish(const Event& event) {
  bool waited = false;
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(options_.backpressure_timeout_ms);
  while (pipeline_.backlog() > options_.max_ingest_backlog) {
    if (!waited) {
      waited = true;
      backpressure_waits_->inc();
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      throw OverloadError("service: shutting down, ingest closed");
    }
    if (Clock::now() >= deadline) {
      throw OverloadError(
          "service: ingest backpressure timeout (backlog " +
          std::to_string(pipeline_.backlog()) + " > bound " +
          std::to_string(options_.max_ingest_backlog) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pipeline_.publish(event);
  ingested_.fetch_add(1, std::memory_order_relaxed);
}

HorusService::Session::~Session() {
  if (service_ != nullptr) service_->release_session();
}

HorusService::Session HorusService::admit() {
  if (reject_sessions_.load(std::memory_order_relaxed)) {
    sessions_rejected_->inc();
    throw OverloadError(
        "service overloaded: rejecting new query sessions (level " +
        std::string(to_string(overload_level())) + ")");
  }
  const int before = active_sessions_.fetch_add(1, std::memory_order_relaxed);
  if (before >= options_.max_concurrent_sessions) {
    active_sessions_.fetch_sub(1, std::memory_order_relaxed);
    sessions_rejected_->inc();
    throw OverloadError("service: session limit reached (" +
                        std::to_string(options_.max_concurrent_sessions) +
                        " concurrent)");
  }
  sessions_admitted_->inc();
  active_sessions_gauge_->add(1);
  return Session(this);
}

void HorusService::release_session() noexcept {
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);
  active_sessions_gauge_->sub(1);
}

QueryLimits HorusService::current_limits() const {
  return tighten_queries_.load(std::memory_order_relaxed)
             ? options_.degraded_limits
             : options_.default_limits;
}

graph::SegmentOptions HorusService::segment_options() const {
  graph::SegmentOptions seg;
  seg.nodes_per_segment = options_.segment_nodes;
  seg.shard_count = options_.segment_shards;
  seg.spill_dir = options_.data_dir + "/segments";
  seg.resident_budget_bytes = options_.segment_budget_bytes;
  return seg;
}

void HorusService::setup_segments(
    const std::vector<std::pair<graph::NodeId, std::uint32_t>>& sealed) {
  if (options_.segment_nodes == 0) return;
  if (graph_.store().segments() != nullptr) return;  // externally enabled
  graph::SegmentOptions seg = segment_options();
  if (!sealed.empty()) {
    // Adopt the restored checkpoint's exact boundaries: epoch-sealed
    // segments can be shorter than nodes_per_segment, so carving by size
    // would mislabel them.
    seg.carve_existing = false;
    enable_segments(graph_, seg).adopt_sealed(sealed);
  } else {
    enable_segments(graph_, seg);
  }
}

bool HorusService::happens_before(const Session&, graph::NodeId a,
                                  graph::NodeId b) const {
  const obs::Timer timer(*query_seconds_);
  return daemon_.happens_before(a, b);
}

CausalGraphResult HorusService::get_causal_graph(const Session&,
                                                 graph::NodeId a,
                                                 graph::NodeId b) const {
  const obs::Timer timer(*query_seconds_);
  QueryGuard guard(current_limits());
  QueryOptions query_options;
  query_options.guard = &guard;
  return daemon_.get_causal_graph(a, b, query_options);
}

query::QueryResult HorusService::run_query(const Session&,
                                           std::string_view text) const {
  const obs::Timer timer(*query_seconds_);
  const query::Query parsed = query::parse_query(text);
  // Admission by plan cost: the same estimate EXPLAIN reports gates entry
  // while limits are tightened, so an expensive scan is bounced up front
  // instead of timing out against the degraded deadline.
  if (tighten_queries_.load(std::memory_order_relaxed) &&
      options_.degraded_max_plan_rows > 0) {
    const query::Plan plan = query::Planner(graph_, {}).plan(parsed);
    if (plan.planned &&
        plan.estimated_rows > options_.degraded_max_plan_rows) {
      plan_cost_rejections_->inc();
      throw OverloadError(
          "service overloaded: query estimated at " +
          std::to_string(static_cast<std::uint64_t>(plan.estimated_rows)) +
          " rows exceeds the degraded plan budget (" +
          std::to_string(
              static_cast<std::uint64_t>(options_.degraded_max_plan_rows)) +
          ")");
    }
  }
  QueryGuard guard(current_limits());
  QueryOptions query_options;
  query_options.guard = &guard;
  const query::QueryEngine engine(graph_, query_options);
  return engine.run(parsed);
}

bool HorusService::sleep_unless_stopping(int ms) {
  std::unique_lock lock(wake_mutex_);
  wake_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return stopping_.load(std::memory_order_relaxed);
  });
  return !stopping_.load(std::memory_order_relaxed);
}

void HorusService::traffic_loop(TrafficSource source) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (pause_traffic_.load(std::memory_order_relaxed)) {
      // Shed level >= 1: stop feeding; the pipeline works the backlog off.
      if (!sleep_unless_stopping(options_.traffic_interval_ms)) return;
      continue;
    }
    const std::vector<Event> batch = source();
    if (batch.empty()) {
      if (!sleep_unless_stopping(options_.traffic_interval_ms)) return;
      continue;
    }
    for (const Event& event : batch) {
      // Never drop: retry each event until ingest reopens or shutdown.
      for (;;) {
        if (stopping_.load(std::memory_order_relaxed)) return;
        try {
          publish(event);
          break;
        } catch (const OverloadError&) {
          if (!sleep_unless_stopping(options_.traffic_interval_ms)) return;
        }
      }
    }
  }
}

void HorusService::checkpoint_loop() {
  while (sleep_unless_stopping(options_.checkpoint_interval_ms)) {
    try {
      checkpoint_now();
    } catch (const std::exception& e) {
      diag(DiagLevel::kError, "service",
           std::string("periodic checkpoint failed: ") + e.what());
    }
  }
}

void HorusService::supervisor_loop() {
  obs::Gauge& arena_bytes = obs::Registry::global().gauge(
      "horus_clock_vc_arena_bytes", "Resident size of the flat VC arena");
  obs::HistogramSnapshot window_start = obs::snapshot(*query_seconds_);
  while (sleep_unless_stopping(options_.supervisor_interval_ms)) {
    OverloadController::Signals signals;
    signals.ingest_backlog = pipeline_.backlog();
    signals.arena_bytes = arena_bytes.value();
    if (graph::SegmentManager* segments = graph_.store().segments()) {
      // Enforce the residency budget first, then report what eviction
      // could not release (pinned/held/tail payload) — sustained excess is
      // the signal the controller should degrade on.
      segments->evict_to_budget();
      signals.graph_resident_bytes =
          static_cast<std::int64_t>(segments->resident_bytes());
    }
    signals.query_p99_seconds =
        obs::histogram_quantile(*query_seconds_, 0.99, window_start);
    window_start = obs::snapshot(*query_seconds_);

    const OverloadLevel level = controller_.evaluate(signals);
    overload_level_.store(static_cast<int>(level),
                          std::memory_order_relaxed);
    pause_traffic_.store(level >= OverloadLevel::kPauseGenerators,
                         std::memory_order_relaxed);
    tighten_queries_.store(level >= OverloadLevel::kTightenQueries,
                           std::memory_order_relaxed);
    reject_sessions_.store(level >= OverloadLevel::kRejectSessions,
                           std::memory_order_relaxed);
  }
}

}  // namespace horus::service
