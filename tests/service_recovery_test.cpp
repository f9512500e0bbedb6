// Service crash-recovery convergence (ctest label `service`): hard-drop
// (in-process SIGKILL) a horusd instance at a randomized point mid-ingest
// across 50 seeds, restart a fresh instance over the same broker and
// data_dir, and assert the restored-and-replayed graph is *identical* to
// the fault-free embedded reference — same nodes, same typed edges, same
// Lamport clocks, same vector clocks (canonicalized by timeline name),
// same happens-before relation.
//
// The kill point and the (optional) checkpoint point are both seed-derived:
// some seeds kill before any checkpoint was taken (cold-start replay of the
// whole queue), some right after one (replay window nearly empty), most
// somewhere in between (restore + partial replay with duplicated
// redelivery absorbed by the idempotent add/dedup paths).
#include "service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/horus.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "queue/broker.h"
#include "test_dir.h"

namespace horus {
namespace {


constexpr int kSeeds = 50;
/// Kill points of the segmented sweep (ISSUE: >= 25 seeded kill points).
constexpr int kSegmentedSeeds = 30;
/// Kill points of the sparse-clock sweeps (PR 10: the kill/restart cycle
/// runs once in each ClockMode).
constexpr int kSparseSeeds = 25;

struct EdgeTriple {
  std::uint64_t from;
  std::uint64_t to;
  std::string type;

  [[nodiscard]] auto operator<=>(const EdgeTriple&) const = default;
};

std::vector<EdgeTriple> edge_triples(const ExecutionGraph& graph) {
  std::vector<EdgeTriple> triples;
  const auto& store = graph.store();
  // A running service keeps evicting segments to its budget; the hold keeps
  // the adjacency spans read below alive (graph/segment.h).
  graph::SegmentManager::ReadHold hold;
  if (const graph::SegmentManager* segments = store.segments()) {
    hold = segments->read_hold();
  }
  for (graph::NodeId v = 0; v < store.node_count(); ++v) {
    for (const graph::Edge& e : store.out_edges(v)) {
      triples.push_back(EdgeTriple{value_of(graph.event_of(v)),
                                   value_of(graph.event_of(e.to)),
                                   store.edge_type_name(e.type)});
    }
  }
  std::sort(triples.begin(), triples.end());
  return triples;
}

/// A node's VC keyed by timeline *name*: two independently built tables
/// may discover timelines in different orders, so raw component indices
/// are not comparable but the name->component map is. Zero components are
/// dropped (vectors may be shorter than the timeline count).
std::map<std::string, std::int32_t> canonical_vc(const ClockTable& clocks,
                                                 graph::NodeId node) {
  std::map<std::string, std::int32_t> canonical;
  std::vector<std::int32_t> scratch;
  const auto vc = clocks.vc_span(node, scratch);
  for (std::size_t t = 0; t < vc.size(); ++t) {
    if (vc[t] != 0) {
      canonical[clocks.timeline_name(static_cast<std::int32_t>(t))] = vc[t];
    }
  }
  return canonical;
}

/// Segment knobs shared by both daemon incarnations of a seed run.
/// segment_nodes == 0 keeps the monolithic store (the original sweep).
struct SegmentKnobs {
  std::uint32_t segment_nodes = 0;
  std::size_t budget_bytes = 0;
  /// VC storage backend of both daemon incarnations. The fault-free
  /// reference always runs flat, so a sparse sweep is also a cross-mode
  /// differential check.
  ClockMode clock_mode = ClockMode::kFlat;
};

service::ServiceOptions service_options(const std::string& data_dir,
                                        const SegmentKnobs& knobs = {}) {
  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions = 3;
  options.pipeline.intra_workers = 2;
  options.pipeline.inter_workers = 2;
  options.pipeline.event_flush_interval_ms = 3;
  options.pipeline.relationship_flush_interval_ms = 4;
  options.clock_interval_ms = 10;
  // The checkpoint under test is the explicit seed-derived one; the
  // periodic loop must not add nondeterministic extra epochs.
  options.checkpoint_interval_ms = 3'600'000;
  options.segment_nodes = knobs.segment_nodes;
  options.segment_shards = 3;
  options.segment_budget_bytes = knobs.budget_bytes;
  options.clock_mode = knobs.clock_mode;
  return options;
}

/// One seeded kill/restart cycle; returns through gtest assertions.
void run_seed(std::uint64_t seed, const SegmentKnobs& knobs = {}) {
  SCOPED_TRACE("seed " + std::to_string(seed));

  gen::TopologyOptions topo;
  topo.seed = seed;
  topo.num_services = 5;
  topo.depth = 2;
  topo.requests = 6;
  topo.retry_storm_p = 0.1;  // some unmatched sends ride the pairing WAL
  const std::vector<Event> events = gen::microservice_topology(topo);
  ASSERT_GT(events.size(), 100u);

  // Fault-free reference.
  Horus reference;
  for (const Event& e : events) reference.ingest(e);
  reference.seal();

  // Seed-derived cut points: checkpoint at `ckpt_at` (0 = no checkpoint
  // before the kill: the restart must cold-start and replay everything),
  // kill after `kill_at` events.
  Rng rng(seed ^ 0xD6E8FEB86659FD93ULL);
  const auto n = static_cast<std::int64_t>(events.size());
  const auto kill_at = static_cast<std::size_t>(rng.uniform(1, n));
  const auto ckpt_at = static_cast<std::size_t>(
      rng.chance(0.2)
          ? 0
          : rng.uniform(0, static_cast<std::int64_t>(kill_at) - 1));

  const TestDir dir("seed" + std::to_string(seed));
  const std::string data_dir = dir.str();

  queue::Broker broker;
  {
    ExecutionGraph first_graph;
    service::HorusService daemon(broker, first_graph,
                                 service_options(data_dir, knobs));
    daemon.start();
    for (std::size_t i = 0; i < kill_at; ++i) {
      if (ckpt_at != 0 && i == ckpt_at) daemon.checkpoint_now();
      daemon.publish(events[i]);
    }
    daemon.kill();  // in-process SIGKILL: no flush, no commit, no checkpoint
  }

  ExecutionGraph graph;
  service::HorusService daemon(broker, graph,
                               service_options(data_dir, knobs));
  daemon.start();  // restore (if checkpointed) + replay the queue window
  EXPECT_EQ(daemon.restored_from_checkpoint(), ckpt_at != 0);
  if (knobs.segment_nodes != 0) {
    // The restored incarnation runs segmented too — a segmented checkpoint
    // must have been adopted (or a cold start carved on enable).
    ASSERT_NE(graph.store().segments(), nullptr);
  }
  for (std::size_t i = kill_at; i < events.size(); ++i) {
    daemon.publish(events[i]);
  }
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();

  // Node equality: every event present exactly once.
  ASSERT_EQ(graph.event_count(), reference.graph().event_count());
  for (const Event& e : events) {
    EXPECT_TRUE(graph.node_of(e.id).has_value())
        << "event " << value_of(e.id) << " missing after recovery";
  }

  // Edge equality: identical typed edge sets (by event id).
  EXPECT_EQ(edge_triples(graph), edge_triples(reference.graph()));

  // Clock equality: Lamport and canonical VC per event, and the full
  // happens-before relation over a sample grid.
  daemon.clock_daemon().with_clocks([&](const ClockTable& clocks) {
    const ClockTable& ref_clocks = reference.clocks();
    for (const Event& e : events) {
      const auto v = graph.node_of(e.id);
      const auto r = reference.node_of(e.id);
      if (!v || !r) {
        ADD_FAILURE() << "event " << value_of(e.id) << " unmapped";
        continue;
      }
      EXPECT_EQ(clocks.lamport(*v), ref_clocks.lamport(*r))
          << "lamport mismatch at event " << value_of(e.id);
      EXPECT_EQ(canonical_vc(clocks, *v), canonical_vc(ref_clocks, *r))
          << "VC mismatch at event " << value_of(e.id);
    }
    const std::size_t step = std::max<std::size_t>(1, events.size() / 24);
    for (std::size_t i = 0; i < events.size(); i += step) {
      for (std::size_t j = 0; j < events.size(); j += step) {
        const auto a = graph.node_of(events[i].id);
        const auto b = graph.node_of(events[j].id);
        const auto ra = reference.node_of(events[i].id);
        const auto rb = reference.node_of(events[j].id);
        if (!a || !b || !ra || !rb) continue;  // reported above
        EXPECT_EQ(clocks.happens_before(*a, *b),
                  ref_clocks.happens_before(*ra, *rb))
            << "hb mismatch between events " << value_of(events[i].id)
            << " and " << value_of(events[j].id);
      }
    }
  });

  daemon.stop();
}

TEST(ServiceRecoveryTest, RestoredGraphConvergesAcrossFiftyKillPoints) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    run_seed(static_cast<std::uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting the sweep at seed " << seed;
    }
  }
}

// The same convergence sweep with segmented storage on in both daemon
// incarnations: small segments so every run seals several, and a tiny
// resident budget so the supervisor evicts under ingest — the checkpoint
// must capture evicted segments off their clean spills and the restore
// must adopt the checkpointed boundaries, all while staying node-, edge-,
// VC- and hb-identical to the fault-free reference.
TEST(ServiceRecoveryTest, SegmentedSweepConvergesAcrossKillPoints) {
  SegmentKnobs knobs;
  knobs.segment_nodes = 64;
  knobs.budget_bytes = 16 << 10;  // forces eviction on every seed
  for (int seed = 1; seed <= kSegmentedSeeds; ++seed) {
    run_seed(static_cast<std::uint64_t>(seed), knobs);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting the segmented sweep at seed " << seed;
    }
  }
}

// PR 10: the same kill/restart convergence cycle with the daemon (both
// incarnations) on the sparse clock backend. The checkpoint carries a
// HORUSVC2 record; restore adopts sparse mode and the next ticks resume
// incrementally on the delta lanes. Clocks are still compared against the
// flat fault-free reference, so this is simultaneously the crash-safety
// and the cross-mode differential check.
TEST(ServiceRecoveryTest, SparseClockSweepConvergesAcrossKillPoints) {
  SegmentKnobs knobs;
  knobs.clock_mode = ClockMode::kSparse;
  for (int seed = 1; seed <= kSparseSeeds; ++seed) {
    run_seed(static_cast<std::uint64_t>(seed), knobs);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting the sparse sweep at seed " << seed;
    }
  }
}

// Sparse clocks + segmented storage together: per-segment VC summaries are
// rebuilt from sparse reconstructions (thread-local scratch) while seals
// and evictions run under ingest.
TEST(ServiceRecoveryTest, SparseSegmentedSweepConverges) {
  SegmentKnobs knobs;
  knobs.segment_nodes = 64;
  knobs.budget_bytes = 16 << 10;
  knobs.clock_mode = ClockMode::kSparse;
  for (int seed = 1; seed <= 10; ++seed) {
    run_seed(static_cast<std::uint64_t>(seed), knobs);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "aborting the sparse segmented sweep at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace horus
