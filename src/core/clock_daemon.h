// ClockDaemon — online logical-time maintenance for live monitoring.
//
// The paper notes that short flush intervals make data "more quickly
// available for querying (which is useful for online monitoring)". The
// daemon completes that story: it periodically runs the incremental clock
// assignment over a graph that the pipeline is still writing, and exposes
// thread-safe causal queries over the portion assigned so far.
//
// Incremental assignment is only exact when every edge incident to the
// events being assigned has already been persisted. The pipeline writes
// nodes (intra stage) and cross-process edges (inter stage) on independent
// timers, so under cross-process delivery a tick routinely races ahead of a
// causal pair: an event receives an in-edge *after* its clocks were
// computed, and nearly every tick has something to heal. Each tick
// therefore audits the edges that can have gone stale since the previous
// one, and only those:
//  - the out-edges of the nodes this tick assigned (an upstream event can
//    be assigned after the downstream event it points at), and
//  - the edges added since the previous tick between already-assigned
//    nodes, read from the store's edge-insertion log.
// Every other edge between assigned nodes was checked by an earlier tick
// and cannot have changed, so the audit costs O(new work), not O(history).
// Violated edges seed LogicalClockAssigner::repair(), which recomputes the
// forward closure of their heads; the same fixed candidate set is audited
// again after each repair. Repair cannot renumber timeline positions, so
// an edge that still fails after three repairs falls back to
// reassign_all(); the tick's node mark and logged edges then stay where the
// tick started, so the next tick checks them again against the rebuilt
// clocks. The intra encoder writes each timeline batch together with its
// program-order chain, which keeps positions in chain order and the
// fallback out of normal operation. After restore_clocks() the node mark
// is zero, so the first tick checks every edge once through the same path;
// it skips nodes in evicted segments (their clocks came back with the
// table) and instead keeps every edge logged since the restore.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/thread_pool.h"
#include "core/causal_query.h"
#include "core/execution_graph.h"
#include "core/logical_clocks.h"

namespace horus {

class ClockDaemon {
 public:
  struct Options {
    int interval_ms = 100;
    /// VC storage backend for the assigner (see ClockMode); threaded from
    /// horusd / the CLI. Both modes are differentially pinned equal.
    ClockMode mode = ClockMode::kFlat;
    /// Sparse mode keyframe cadence (ClockTable docs); ignored in flat mode.
    std::int32_t keyframe_interval = ClockTable::kDefaultKeyframeInterval;
  };

  explicit ClockDaemon(ExecutionGraph& graph)
      : ClockDaemon(graph, Options{}) {}
  ClockDaemon(ExecutionGraph& graph, Options options);
  ~ClockDaemon();

  ClockDaemon(const ClockDaemon&) = delete;
  ClockDaemon& operator=(const ClockDaemon&) = delete;

  /// Starts the periodic background thread.
  void start();

  /// Stops the background thread (runs one final tick).
  void stop();

  /// Runs one assignment pass now: incremental assign, then the audit of
  /// the edges that can have gone stale and a targeted repair of any
  /// violation (a full recompute when repair cannot fix it). Returns nodes
  /// assigned.
  std::size_t tick();

  // -- thread-safe queries over the currently assigned portion -------------

  /// Q1 over assigned events; false when either event lacks clocks yet.
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  /// Q2 over assigned events; empty when endpoints lack clocks yet.
  [[nodiscard]] CausalGraphResult get_causal_graph(graph::NodeId a,
                                                   graph::NodeId b,
                                                   bool only_logs = false) const;

  /// Q2 with explicit engine options (query guard, thread pool) — the
  /// service front-end routes admitted sessions through this overload so
  /// per-query limits apply to daemon-served traversals too.
  [[nodiscard]] CausalGraphResult get_causal_graph(
      graph::NodeId a, graph::NodeId b, const QueryOptions& options,
      bool only_logs = false) const;

  /// Runs `fn(const ClockTable&)` under the shared lock — a consistent view
  /// of the clocks without copying the table. Used by the checkpoint writer
  /// to serialize clock state atomically with respect to ticks.
  template <typename Fn>
  auto with_clocks(Fn&& fn) const {
    const std::shared_lock lock(mutex_);
    return fn(assigner_.clocks());
  }

  /// Replaces the daemon's clock state with a restored table (blocks ticks
  /// and queries for the duration). The assigned-node count is recomputed
  /// from the table itself, and the next tick audits every edge once.
  void restore_clocks(ClockTable table);

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_.load(); }
  /// Repair passes plus full recomputes run so far.
  [[nodiscard]] std::uint64_t heals() const noexcept { return heals_.load(); }
  /// Heals that fell back to reassign_all().
  [[nodiscard]] std::uint64_t full_reassigns() const noexcept {
    return full_reassigns_.load();
  }
  [[nodiscard]] std::size_t assigned_nodes() const;

 private:
  /// Fills candidates_ with this tick's audit set: the logged edges whose
  /// tail lies below `mark`, or all of them after a restore (kept in
  /// logged_ until a tick completes), then the out-edges of the nodes in
  /// [mark, end). The log is drained before the node range is read, so an
  /// edge added in between is in one of the two.
  void collect_candidates_locked(graph::NodeId mark, graph::NodeId end);

  /// Heads of candidate edges that violate the Lamport or vector-clock
  /// invariant (stale incremental assignments); empty when the clocks are
  /// consistent. The heads seed the targeted repair pass.
  [[nodiscard]] std::vector<graph::NodeId> audit_locked() const;

  ExecutionGraph& graph_;
  Options options_;

  mutable std::shared_mutex mutex_;
  LogicalClockAssigner assigner_;
  std::size_t assigned_ = 0;

  /// Audit watermarks. Every node below node_mark_ had its out-edges
  /// checked by a completed tick; logged_ holds the logged edges out of
  /// those nodes that no completed tick has checked yet.
  bool subscribed_ = false;  ///< to the store's edge-insertion log
  graph::NodeId node_mark_ = 0;
  std::vector<graph::EdgeEndpoints> logged_;
  std::vector<graph::EdgeEndpoints> drained_;     ///< drain buffer (reused)
  std::vector<graph::EdgeEndpoints> candidates_;  ///< this tick's audit set
  /// Set by restore_clocks() until a tick completes: the node-range walk
  /// then starts at 0 and skips evicted segments, and every logged edge is
  /// kept (see collect_candidates_locked()).
  bool restored_ = false;

  /// Periodic tick loop, spawned through the shared ThreadPool's service
  /// facility (see thread_pool.h).
  ThreadPool::ServiceThread worker_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> heals_{0};
  std::atomic<std::uint64_t> full_reassigns_{0};
};

}  // namespace horus
