#include "core/clock_daemon.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/segment_clocks.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "queue/broker.h"
#include "test_dir.h"

namespace horus {
namespace {

obs::Counter& audited_edges_total() {
  return obs::Registry::global().counter("horus_clock_audited_edges_total",
                                         "");
}

TEST(ClockDaemonTest, TickAssignsIncrementally) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  gen::ClientServerOptions options;
  options.num_events = 200;
  const auto events = gen::client_server_events(options);

  ClockDaemon daemon(graph);
  for (std::size_t i = 0; i < 100; ++i) intra.on_event(events[i]);
  intra.flush();
  EXPECT_EQ(daemon.tick(), 100u);
  for (std::size_t i = 100; i < 200; ++i) intra.on_event(events[i]);
  intra.flush();
  EXPECT_EQ(daemon.tick(), 100u);
  EXPECT_EQ(daemon.assigned_nodes(), 200u);
  EXPECT_GE(daemon.ticks(), 2u);
}

TEST(ClockDaemonTest, HealsAfterLateEdge) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);

  gen::ClientServerOptions options;
  options.num_events = 40;
  const auto events = gen::client_server_events(options);

  // Persist all nodes but withhold the inter-process edges.
  for (const Event& e : events) intra.on_event(e);
  intra.flush();

  ClockDaemon daemon(graph);
  daemon.tick();  // assigns with only intra edges — soon to be stale

  // Now the causal pairs land.
  for (const Event& e : events) inter.on_event(e);
  inter.flush();

  daemon.tick();  // audit must detect staleness and recompute
  EXPECT_GE(daemon.heals(), 1u);

  // After healing, clocks agree with a from-scratch assignment.
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(daemon.happens_before(a, b),
                fresh.clocks().happens_before(a, b));
    }
  }
}

TEST(ClockDaemonTest, TargetedHealLeavesEvictedSegmentsAlone) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);

  // A consistent prefix: nodes and causal pairs all flushed, then assigned.
  gen::TopologyOptions prefix;
  prefix.num_services = 3;
  prefix.depth = 2;
  prefix.requests = 10;
  prefix.seed = 5;
  const auto events = gen::microservice_topology(prefix);
  for (const Event& e : events) {
    intra.on_event(e);
    inter.on_event(e);
  }
  intra.flush();
  inter.flush();
  ClockDaemon daemon(graph);
  daemon.tick();
  EXPECT_EQ(daemon.heals(), 0u);

  // Segment the prefix and spill every sealed segment except the newest one
  // (the intra encoders still chain each host's next event to its latest
  // node, which must stay resident for the late batch to append cleanly).
  const TestDir spill_dir;
  const std::string spill = spill_dir.str();
  graph::SegmentOptions seg_options;
  seg_options.nodes_per_segment = 32;
  seg_options.spill_dir = spill;
  seg_options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(graph, seg_options);
  graph::SegmentId newest_sealed = graph::kNoSegment;
  for (const graph::SegmentInfo& info : segments.list()) {
    if (info.sealed) newest_sealed = info.id;
  }
  ASSERT_NE(newest_sealed, graph::kNoSegment);
  for (const graph::SegmentInfo& info : segments.list()) {
    if (info.sealed && info.id != newest_sealed) segments.evict(info.id);
  }
  const std::size_t evicted = segments.evicted_count();
  ASSERT_GT(evicted, 0u);

  // New events land nodes-first; the causal pairs arrive only after a tick
  // has assigned the endpoints, forcing a heal. Disjoint stream offsets keep
  // the late pairs internal to the new batch, so the violated edges sit
  // among new (resident) nodes — the targeted repair must not fault the old
  // spilled segments back in.
  gen::TopologyOptions late = prefix;
  late.requests = 4;
  late.id_base = static_cast<std::uint64_t>(events.size());
  late.stream_offset_base = std::uint64_t{1} << 20;
  const auto more = gen::microservice_topology(late);
  // Appending may fault segments holding a quiet timeline's frontier node
  // (the chain edge writes its out-list) — that is the write path's
  // contract, not the heal's, so the residency assertion brackets only the
  // healing tick below.
  for (const Event& e : more) intra.on_event(e);
  intra.flush();
  daemon.tick();
  for (const Event& e : more) inter.on_event(e);
  inter.flush();
  const std::size_t evicted_before_heal = segments.evicted_count();
  ASSERT_GT(evicted_before_heal, 0u);
  daemon.tick();
  EXPECT_GE(daemon.heals(), 1u);
  EXPECT_EQ(segments.evicted_count(), evicted_before_heal);

  // The repaired clocks agree with a from-scratch assignment (this pass
  // reloads the spilled segments — it runs after the residency check).
  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(daemon.happens_before(a, b),
                fresh.clocks().happens_before(a, b))
          << "Q1(" << a << ", " << b << ")";
    }
  }
}

TEST(ClockDaemonTest, OnlineMonitoringOverLivePipeline) {
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 4000;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 2;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 7;
  Pipeline pipeline(broker, graph, options);
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 3});

  pipeline.start();
  daemon.start();
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  daemon.stop();
  pipeline.stop();
  daemon.tick();  // final pass over the fully flushed graph

  EXPECT_EQ(daemon.assigned_nodes(), events.size());
  // Timeline batches land with their program-order chain, so positions
  // follow the chain and every heal is a targeted repair.
  EXPECT_EQ(daemon.full_reassigns(), 0u);

  // The final clocks satisfy all invariants (self-healing converged).
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const graph::Edge& e : graph.store().out_edges(v)) {
      ASSERT_TRUE(daemon.happens_before(v, e.to)) << v << " -> " << e.to;
    }
  }
}

// The audit follows new work: a tick that adds k edges to a graph holding H
// edges checks O(k) edges — exactly k when nothing needs healing.
TEST(ClockDaemonTest, AuditCostFollowsNewEdgesNotHistory) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);
  gen::ClientServerOptions options;
  options.num_events = 10000;
  const auto events = gen::client_server_events(options);
  const auto ingest = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      intra.on_event(events[i]);
      inter.on_event(events[i]);
    }
    intra.flush();
    inter.flush();
  };

  ClockDaemon daemon(graph);
  ingest(0, 8000);
  daemon.tick();
  const std::size_t history = graph.store().edge_count();
  ASSERT_GT(history, 10000u);
  for (std::size_t from = 8000; from < events.size(); from += 100) {
    const std::uint64_t audited_before = audited_edges_total().value();
    const std::size_t edges_before = graph.store().edge_count();
    const std::uint64_t heals_before = daemon.heals();
    ingest(from, from + 100);
    daemon.tick();
    const std::size_t k = graph.store().edge_count() - edges_before;
    const std::uint64_t audited = audited_edges_total().value() - audited_before;
    ASSERT_GT(k, 0u);
    // One audit plus at most three re-audits of the same candidate set.
    EXPECT_LE(audited, 4 * k) << "tick at event " << from;
    if (daemon.heals() == heals_before) {
      EXPECT_EQ(audited, k) << "tick at event " << from;
    }
    EXPECT_LT(audited, history / 10);
  }
  EXPECT_EQ(daemon.assigned_nodes(), events.size());
}

// ---- adversarial ingest against brute-force reachability -------------------

/// What the seeded schedules exercised, summed over all of them.
struct ScheduleCoverage {
  std::uint64_t late_inter = 0;      ///< inter edge between assigned events
  std::uint64_t late_chain = 0;      ///< chain edge between assigned events
  std::uint64_t into_assigned = 0;   ///< unassigned tail -> assigned head
  std::uint64_t full_reassigns = 0;  ///< reassign_all() fallbacks
  std::uint64_t restores = 0;        ///< restore_clocks() mid-stream
};

/// One random DAG over a few timelines, inserted node by node and edge by
/// edge in a shuffled order through the non-atomic ExecutionGraph calls,
/// with ticks and clock restores at random points. After every tick, Q1
/// over all pairs must agree with brute-force reachability over the edges
/// present: every reachable pair is reported (no stale clock survives a
/// tick), and when a's timeline is a complete chain so far, every reported
/// pair is reachable. (A timeline whose chain edges are still missing has
/// concurrent events the position test cannot tell apart; that is a limit
/// of vector clocks over partial timelines, not of the daemon.)
///
/// The schedule depends on the seed only, so both clock modes see the same
/// one: a timeline's events arrive out of order and its chain edges late,
/// so a sparse lane's timeline predecessor is often not a graph
/// predecessor.
void run_adversarial_schedule(std::uint64_t seed, ClockMode mode,
                              ScheduleCoverage& coverage) {
  std::mt19937_64 rng(seed);
  const auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  const auto below = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };

  // The DAG: events in a global causal order, each on a random timeline,
  // chained per timeline, plus inter edges from earlier events on other
  // timelines.
  const std::size_t timelines = 2 + below(3);
  const std::size_t n = 12 + below(20);
  std::vector<std::size_t> timeline_of(n);
  std::vector<std::vector<std::size_t>> chains(timelines);
  struct DagEdge {
    std::size_t from;
    std::size_t to;
    bool chain;
  };
  std::vector<DagEdge> dag;
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t t = below(timelines);
    timeline_of[e] = t;
    if (!chains[t].empty()) dag.push_back({chains[t].back(), e, true});
    chains[t].push_back(e);
    for (int k = 0; k < 2 && e > 0; ++k) {
      const std::size_t from = below(e);
      if (timeline_of[from] != t && chance(0.4)) dag.push_back({from, e, false});
    }
  }

  // Insertion order: the causal order with local shuffles, so an upstream
  // event can land after downstream events were assigned.
  std::vector<std::pair<std::size_t, std::size_t>> keyed;
  for (std::size_t e = 0; e < n; ++e) keyed.emplace_back(e + below(5), e);
  std::sort(keyed.begin(), keyed.end());

  ExecutionGraph graph;
  ClockDaemon daemon(graph, {.mode = mode});
  std::vector<std::optional<graph::NodeId>> node(n);
  std::vector<bool> inserted(dag.size(), false);
  std::vector<std::size_t> deferred;  // dag indexes held back
  std::vector<std::string> saved_tables;

  const auto assigned = [&](graph::NodeId v) {
    return daemon.with_clocks(
        [v](const ClockTable& clocks) { return clocks.assigned(v); });
  };
  const auto insert_edge = [&](std::size_t i) {
    const DagEdge& d = dag[i];
    const graph::NodeId u = *node[d.from];
    const graph::NodeId w = *node[d.to];
    if (assigned(u) && assigned(w)) {
      ++(d.chain ? coverage.late_chain : coverage.late_inter);
    } else if (!assigned(u) && assigned(w)) {
      ++coverage.into_assigned;
    }
    if (d.chain) {
      graph.add_intra_edge(EventId{d.from + 1}, EventId{d.to + 1});
    } else {
      graph.add_inter_edge(EventId{d.from + 1}, EventId{d.to + 1});
    }
    inserted[i] = true;
  };
  const auto chain_complete = [&](std::size_t t) {
    for (std::size_t k = 1; k < chains[t].size(); ++k) {
      if (!node[chains[t][k]]) continue;
      if (!node[chains[t][k - 1]]) return false;
    }
    for (std::size_t i = 0; i < dag.size(); ++i) {
      if (dag[i].chain && timeline_of[dag[i].to] == t && node[dag[i].to] &&
          !inserted[i]) {
        return false;
      }
    }
    return true;
  };
  const auto tick_and_check = [&] {
    daemon.tick();
    std::string table;
    daemon.with_clocks([&](const ClockTable& clocks) {
      std::ostringstream out;
      clocks.save(out);
      table = out.str();
    });
    saved_tables.push_back(std::move(table));
    const graph::GraphStore& store = graph.store();
    ASSERT_EQ(daemon.assigned_nodes(), store.node_count());
    for (std::size_t a = 0; a < n; ++a) {
      if (!node[a]) continue;
      const bool exact = chain_complete(timeline_of[a]);
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b || !node[b]) continue;
        const bool reach = graph::reachable(store, *node[a], *node[b]).reachable;
        const bool q1 = daemon.happens_before(*node[a], *node[b]);
        if (reach) {
          ASSERT_TRUE(q1) << "seed " << seed << ": stale clocks, " << a
                          << " -> " << b << " reachable but Q1 false";
        } else if (exact) {
          ASSERT_FALSE(q1) << "seed " << seed << ": " << a << " -> " << b
                           << " unreachable but Q1 true";
        }
      }
    }
  };
  const auto maybe_restore = [&] {
    if (saved_tables.empty() || !chance(0.08)) return;
    // A table from the latest tick or from an earlier one: restore must
    // bring back consistent clocks either way.
    std::istringstream in(saved_tables[below(saved_tables.size())]);
    daemon.restore_clocks(ClockTable::load(in));
    ++coverage.restores;
  };

  for (const auto& [key, e] : keyed) {
    Event event;
    event.id = EventId{e + 1};
    event.type = EventType::kLog;
    event.thread = ThreadRef{"host" + std::to_string(timeline_of[e]), 1, 1};
    event.service = event.thread.host;
    event.timestamp = static_cast<TimeNs>(e);
    event.payload = LogPayload{"m", "test"};
    node[e] = graph.add_event(event, "tl" + std::to_string(timeline_of[e]));
    for (std::size_t i = 0; i < dag.size(); ++i) {
      if (inserted[i] || !node[dag[i].from] || !node[dag[i].to] ||
          std::find(deferred.begin(), deferred.end(), i) != deferred.end()) {
        continue;
      }
      if (chance(0.5)) {
        insert_edge(i);
      } else {
        deferred.push_back(i);
      }
    }
    if (!deferred.empty() && chance(0.4)) {
      const std::size_t pick = below(deferred.size());
      insert_edge(deferred[pick]);
      deferred.erase(deferred.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (chance(0.35)) {
      tick_and_check();
      if (::testing::Test::HasFatalFailure()) return;
      maybe_restore();
    }
  }
  for (const std::size_t i : deferred) insert_edge(i);
  tick_and_check();
  if (::testing::Test::HasFatalFailure()) return;
  // Everything landed: every timeline is a complete chain, so Q1 must now
  // equal reachability on every pair.
  for (std::size_t t = 0; t < timelines; ++t) ASSERT_TRUE(chain_complete(t));
  coverage.full_reassigns += daemon.full_reassigns();
}

TEST(ClockDaemonTest, AdversarialIngestMatchesReachability) {
  ScheduleCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const ClockMode mode : {ClockMode::kFlat, ClockMode::kSparse}) {
      SCOPED_TRACE(to_string(mode));
      run_adversarial_schedule(seed, mode, coverage);
      if (HasFatalFailure()) return;
    }
  }
  // The schedules hit every kind of staleness the audit must catch.
  EXPECT_GT(coverage.late_inter, 0u);
  EXPECT_GT(coverage.late_chain, 0u);
  EXPECT_GT(coverage.into_assigned, 0u);
  EXPECT_GT(coverage.full_reassigns, 0u);
  EXPECT_GT(coverage.restores, 0u);
}

// Regression: seed 20 assigns timeline events before their chain edges
// exist and falls back to reassign_all(), so a sparse lane's timeline
// predecessor carries components its successor never heard of. Stored as a
// delta over that predecessor, Q1(7, 2) read true with 2 causally earlier.
TEST(ClockDaemonTest, SparseLanesSurviveLateChainEdges) {
  ScheduleCoverage coverage;
  run_adversarial_schedule(20, ClockMode::kSparse, coverage);
  if (HasFatalFailure()) return;
  EXPECT_GT(coverage.late_chain, 0u);
  EXPECT_GT(coverage.full_reassigns, 0u);
}

// After restore_clocks() the node range skips evicted segments: their clocks
// came back with the table. An edge written after the restore out of such a
// segment faults it back in, and eviction can spill it again before the next
// tick (a service's seals do, under a small budget); the audit must still
// see that edge.
TEST(ClockDaemonTest, RestoreAuditsEdgesOutOfReEvictedSegments) {
  ExecutionGraph graph;
  for (std::uint64_t t = 0; t < 2; ++t) {
    for (std::uint64_t i = 1; i <= 40; ++i) {
      Event event;
      event.id = EventId{100 * t + i};
      event.type = EventType::kLog;
      event.thread = ThreadRef{"host" + std::to_string(t), 1, 1};
      event.service = event.thread.host;
      event.timestamp = static_cast<TimeNs>(i);
      event.payload = LogPayload{"m", "test"};
      graph.add_event(event, "tl" + std::to_string(t));
      if (i > 1) graph.add_intra_edge(EventId{100 * t + i - 1}, event.id);
    }
  }
  std::stringstream table;
  {
    ClockDaemon first(graph);
    first.tick();
    first.with_clocks([&](const ClockTable& clocks) { clocks.save(table); });
  }

  const TestDir spill_dir;
  graph::SegmentOptions seg_options;
  seg_options.nodes_per_segment = 16;
  seg_options.spill_dir = spill_dir.str();
  seg_options.auto_evict = false;
  graph::SegmentManager& segments = enable_segments(graph, seg_options);
  const graph::NodeId a = *graph.node_of(EventId{1});
  const graph::NodeId b = *graph.node_of(EventId{140});
  const graph::SegmentId seg = segments.segment_of(a);
  segments.evict(seg);
  const std::size_t evicted = segments.evicted_count();
  ASSERT_GT(evicted, 0u);

  ClockDaemon daemon(graph);
  daemon.restore_clocks(ClockTable::load(table));
  ASSERT_FALSE(daemon.happens_before(a, b));
  graph.add_inter_edge(EventId{1}, EventId{140});  // faults `seg` back in
  ASSERT_LT(segments.evicted_count(), evicted);
  segments.evict(seg);
  ASSERT_EQ(segments.evicted_count(), evicted);
  daemon.tick();
  EXPECT_TRUE(daemon.happens_before(a, b));
}

TEST(ClockDaemonTest, QueriesBeforeAssignmentAreSafe) {
  ExecutionGraph graph;
  ClockDaemon daemon(graph);
  EXPECT_FALSE(daemon.happens_before(0, 1));
  EXPECT_TRUE(daemon.get_causal_graph(0, 1).nodes.empty());
}

TEST(ClockDaemonTest, StartStopIdempotent) {
  ExecutionGraph graph;
  ClockDaemon daemon(graph, ClockDaemon::Options{.interval_ms = 1});
  daemon.start();
  daemon.start();  // no-op
  daemon.stop();
  daemon.stop();  // no-op
}

}  // namespace
}  // namespace horus
