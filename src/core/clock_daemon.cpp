#include "core/clock_daemon.h"

#include <chrono>
#include <utility>
#include <vector>

#include "core/segment_clocks.h"
#include "graph/segment.h"
#include "obs/metrics.h"

namespace horus {

ClockDaemon::ClockDaemon(ExecutionGraph& graph, Options options)
    : graph_(graph),
      options_(options),
      assigner_(graph,
                LogicalClockAssigner::Options{
                    .write_lamport_property = true,
                    .mode = options.mode,
                    .keyframe_interval = options.keyframe_interval}) {}

ClockDaemon::~ClockDaemon() {
  if (running_.load()) stop();
  if (subscribed_) graph_.store().unsubscribe_edge_log();
}

void ClockDaemon::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  worker_ = ThreadPool::shared().spawn_service([this] {
    while (!stop_requested_.load(std::memory_order_acquire)) {
      tick();
      std::unique_lock lock(wake_mutex_);
      wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                     [this] {
                       return stop_requested_.load(std::memory_order_acquire);
                     });
    }
  });
}

void ClockDaemon::stop() {
  if (!running_.load()) return;
  stop_requested_.store(true, std::memory_order_release);
  wake_.notify_all();
  worker_.join();
  running_.store(false);
  tick();  // pick up anything that landed after the last periodic pass
}

void ClockDaemon::collect_candidates_locked(graph::NodeId mark,
                                            graph::NodeId end) {
  graph::GraphStore& store = graph_.store();
  // Logged edges out of nodes at or above `mark` are dropped: those at
  // [mark, end) are read from the node range below, those at end or above
  // are unassigned and a later tick's node range reads them. After a
  // restore every logged edge is kept: the node range skips evicted
  // segments, and an edge written out of one since the restore (the write
  // faulted it in, an eviction spilled it again) is seen only here.
  store.drain_edge_log(drained_);
  for (const graph::EdgeEndpoints& e : drained_) {
    if (e.from < mark || restored_) logged_.push_back(e);
  }
  candidates_ = logged_;

  // Right after a restore the range starts at 0 and would fault every
  // spilled segment back in. Nodes in evicted segments are skipped: their
  // adjacency is immutable since the spill was written (any edge write
  // faults the segment back in first), their clocks were checkpointed
  // together with the graph, and assigning a downstream node reads
  // predecessor clocks from the table — never the evicted payload.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> evicted;  // [first,end)
  if (const graph::SegmentManager* segments = store.segments();
      restored_ && segments != nullptr) {
    for (const graph::SegmentInfo& info : segments->list()) {
      if (!info.resident) {
        evicted.emplace_back(info.first, info.first + info.count);
      }
    }
  }
  auto gap = evicted.cbegin();  // ranges are contiguous and ascending
  for (graph::NodeId v = mark; v < end; ++v) {
    while (gap != evicted.cend() && v >= gap->second) ++gap;
    if (gap != evicted.cend() && v >= gap->first) {
      v = gap->second - 1;  // resume after the evicted range
      continue;
    }
    for (const graph::Edge& e : store.out_edges_snapshot(v)) {
      candidates_.push_back({v, e.to});
    }
  }
}

std::vector<graph::NodeId> ClockDaemon::audit_locked() const {
  static obs::Counter& audited_total = obs::Registry::global().counter(
      "horus_clock_audited_edges_total",
      "Edges whose clock invariant a tick checked (new and logged edges)");
  audited_total.inc(candidates_.size());
  const auto& clocks = assigner_.clocks();
  std::vector<graph::NodeId> stale_heads;
  for (const graph::EdgeEndpoints& e : candidates_) {
    // An unassigned head reads this edge when a later pass assigns it.
    if (!clocks.assigned(e.from) || !clocks.assigned(e.to)) continue;
    // Both the Lamport and the full vector-clock invariant must hold on
    // every edge; a pred assigned without one of its in-edges fails the
    // VC check even when the Lamport values happen to line up.
    if (clocks.lamport(e.from) >= clocks.lamport(e.to) ||
        !clocks.vc_less(e.from, e.to)) {
      stale_heads.push_back(e.to);
    }
  }
  return stale_heads;
}

std::size_t ClockDaemon::tick() {
  // Function-local statics: resolved once, shared by every daemon in the
  // process (there is normally one; a second would aggregate into the same
  // series, which is the semantics we want for process totals).
  static obs::Histogram& tick_seconds = obs::Registry::global().histogram(
      "horus_clock_tick_seconds",
      "Logical-clock assignment pass latency (assign + audit + heal)");
  static obs::Counter& ticks_total = obs::Registry::global().counter(
      "horus_clock_ticks_total", "Assignment passes run");
  static obs::Counter& heals_total = obs::Registry::global().counter(
      "horus_clock_heals_total",
      "Heal passes run over violated edge invariants (targeted repairs "
      "plus full recomputes)");
  static obs::Counter& full_reassigns_total = obs::Registry::global().counter(
      "horus_clock_full_reassigns_total",
      "Heals that targeted repair could not fix, recomputing every clock");
  static obs::Gauge& assigned_nodes = obs::Registry::global().gauge(
      "horus_clock_assigned_nodes", "Nodes with logical clocks assigned");
  static obs::Gauge& arena_bytes = obs::Registry::global().gauge(
      "horus_clock_vc_arena_bytes",
      "Resident bytes of the VC store (flat arena+slots, or sparse lanes)");

  const obs::Timer timer(tick_seconds);
  const std::unique_lock lock(mutex_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  ticks_total.inc();
  if (!subscribed_) {
    // Edges added before this point have tails below node_count(); the node
    // mark is still 0, so this tick's node range reads them.
    graph_.store().subscribe_edge_log();
    subscribed_ = true;
  }
  const graph::NodeId mark = node_mark_;
  // Assign first, audit after: the post-assign audit sees both kinds of
  // staleness in one pass — causal pairs that landed after their endpoints
  // were assigned, and edges from a just-assigned node into an
  // earlier-assigned one (a replayed upstream event, say).
  const std::size_t assigned = assigner_.assign();
  assigned_ += assigned;
  collect_candidates_locked(mark, assigner_.assigned_prefix());

  // Heal the forward closure of violated edges only: a late edge can only
  // raise clocks downstream of its head, and the targeted repair — unlike
  // reassign_all() — does not fault evicted segments back in. Repair
  // recomputes the whole closure, so edges out of repaired nodes need no
  // check of their own (unless positions contradict the edges, which repair
  // reports); the re-audits cover the same candidate set.
  std::vector<graph::NodeId> repaired;
  std::vector<graph::NodeId> stale = audit_locked();
  for (int attempt = 0; !stale.empty() && attempt < 3; ++attempt) {
    heals_.fetch_add(1, std::memory_order_relaxed);
    heals_total.inc();
    LogicalClockAssigner::RepairResult repair = assigner_.repair(stale);
    repaired.insert(repaired.end(), repair.recomputed.begin(),
                    repair.recomputed.end());
    if (repair.positions_contradicted) break;  // stale stays non-empty
    stale = audit_locked();
  }
  const bool full = !stale.empty();
  if (full) {
    // reassign_all() reads in-edges while writers keep appending, so the
    // marks stay where this tick started: the next tick audits the same
    // logged edges and node range again against the rebuilt clocks.
    heals_.fetch_add(1, std::memory_order_relaxed);
    heals_total.inc();
    full_reassigns_.fetch_add(1, std::memory_order_relaxed);
    full_reassigns_total.inc();
    assigned_ = assigner_.reassign_all();
  } else {
    node_mark_ = assigner_.assigned_prefix();
    logged_.clear();
    restored_ = false;
  }
  // Segmented store: refresh stale VC summaries from the new clocks. A
  // repair can change VC components of nodes whose own properties never
  // moved (the staleness hook only sees store writes), so their segments
  // are marked stale explicitly; a full recompute rebuilds every summary.
  graph::GraphStore& store = graph_.store();
  if (graph::SegmentManager* segments = store.segments();
      segments != nullptr && !full && !repaired.empty()) {
    segments->mark_summaries_stale(repaired);
  }
  if (full || assigned > 0 || !repaired.empty()) {
    update_segment_summaries(store, assigner_.clocks(), full);
  }
  assigned_nodes.set(static_cast<std::int64_t>(assigned_));
  arena_bytes.set(static_cast<std::int64_t>(assigner_.clocks().clock_bytes()));
  return assigned;
}

bool ClockDaemon::happens_before(graph::NodeId a, graph::NodeId b) const {
  const std::shared_lock lock(mutex_);
  return assigner_.clocks().happens_before(a, b);
}

CausalGraphResult ClockDaemon::get_causal_graph(graph::NodeId a,
                                                graph::NodeId b,
                                                bool only_logs) const {
  const std::shared_lock lock(mutex_);
  const CausalQueryEngine engine(graph_, assigner_.clocks());
  return engine.get_causal_graph(a, b, only_logs);
}

CausalGraphResult ClockDaemon::get_causal_graph(graph::NodeId a,
                                                graph::NodeId b,
                                                const QueryOptions& options,
                                                bool only_logs) const {
  const std::shared_lock lock(mutex_);
  const CausalQueryEngine engine(graph_, assigner_.clocks(), options);
  return engine.get_causal_graph(a, b, only_logs);
}

void ClockDaemon::restore_clocks(ClockTable table) {
  const std::unique_lock lock(mutex_);
  std::size_t assigned = 0;
  const auto n = static_cast<graph::NodeId>(graph_.store().node_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    if (table.assigned(v)) ++assigned;
  }
  assigner_.restore(std::move(table));
  assigned_ = assigned;
  // The node range restarts at 0 but skips evicted segments, so from here
  // on every edge is logged and kept until a tick completes (see
  // collect_candidates_locked()).
  node_mark_ = 0;
  if (!subscribed_) {
    graph_.store().subscribe_edge_log();
    subscribed_ = true;
  }
  restored_ = true;
}

std::size_t ClockDaemon::assigned_nodes() const {
  const std::shared_lock lock(mutex_);
  return assigned_;
}

}  // namespace horus
