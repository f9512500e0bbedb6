#include "core/logical_clocks.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/horus.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"

namespace horus {
namespace {

/// Ingests events into a fresh Horus instance and seals it.
std::unique_ptr<Horus> build(std::vector<Event> events) {
  auto horus = std::make_unique<Horus>();
  for (Event& e : events) horus->ingest(std::move(e));
  horus->seal();
  return horus;
}

TEST(LogicalClocksTest, LamportRespectsEdges) {
  auto horus = build(gen::client_server_events({.num_events = 200}));
  const auto& store = horus->graph().store();
  const auto& clocks = horus->clocks();
  for (graph::NodeId v = 0; v < store.node_count(); ++v) {
    for (const graph::Edge& e : store.out_edges(v)) {
      EXPECT_LT(clocks.lamport(v), clocks.lamport(e.to));
    }
  }
}

TEST(LogicalClocksTest, LamportWrittenToIndexedProperty) {
  auto horus = build(gen::client_server_events({.num_events = 40}));
  const auto& store = horus->graph().store();
  const auto in_range = store.range_scan(kPropLamport, 1, 1'000'000);
  EXPECT_EQ(in_range.size(), store.node_count());
}

TEST(LogicalClocksTest, VcAgreesWithReachabilityOnClientServer) {
  auto horus = build(gen::client_server_events({.num_events = 120}));
  const auto& store = horus->graph().store();
  const auto& clocks = horus->clocks();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const bool truth = graph::reachable(store, a, b).reachable;
      EXPECT_EQ(clocks.happens_before(a, b), truth)
          << "a=" << a << " b=" << b;
      EXPECT_EQ(clocks.vc_less(a, b), truth);
    }
  }
}

// Every field is 64-bit so the struct has no padding: gtest names each
// case after the struct's raw bytes, and uninitialised padding made the
// test names differ from one build (and run) to the next.
struct RandomExecCase {
  std::int64_t processes;
  std::size_t events_per_process;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RandomExecCase>);

class VcPropertyTest : public ::testing::TestWithParam<RandomExecCase> {};

TEST_P(VcPropertyTest, VcEquivalentToReachability) {
  const auto& param = GetParam();
  gen::RandomExecutionOptions options;
  options.num_processes = param.processes;
  options.events_per_process = param.events_per_process;
  options.seed = param.seed;
  auto horus = build(gen::random_execution(options));

  const auto& store = horus->graph().store();
  const auto& clocks = horus->clocks();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  ASSERT_GT(n, 0u);
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      const bool truth = graph::reachable(store, a, b).reachable;
      ASSERT_EQ(clocks.happens_before(a, b), truth)
          << "seed=" << param.seed << " a=" << a << " b=" << b;
      ASSERT_EQ(clocks.vc_less(a, b), truth)
          << "seed=" << param.seed << " a=" << a << " b=" << b;
    }
  }
  // Lamport soundness on the same graph.
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a != b && clocks.happens_before(a, b)) {
        ASSERT_LT(clocks.lamport(a), clocks.lamport(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomExecutions, VcPropertyTest,
    ::testing::Values(RandomExecCase{2, 30, 1}, RandomExecCase{3, 25, 2},
                      RandomExecCase{4, 20, 3}, RandomExecCase{5, 15, 4},
                      RandomExecCase{6, 12, 5}, RandomExecCase{8, 10, 6},
                      RandomExecCase{3, 40, 7}, RandomExecCase{5, 25, 8}));

TEST(LogicalClocksTest, IncrementalAssignMatchesFullRecompute) {
  gen::ClientServerOptions options;
  options.num_events = 400;
  const auto events = gen::client_server_events(options);

  // Incremental: ingest in four chunks, sealing after each.
  Horus incremental;
  const std::size_t chunk = events.size() / 4;
  for (std::size_t i = 0; i < events.size(); ++i) {
    incremental.ingest(events[i]);
    if ((i + 1) % chunk == 0) incremental.seal();
  }
  incremental.seal();

  // Full: one pass.
  Horus full;
  for (const Event& e : events) full.ingest(e);
  full.seal();

  // Node ids depend on flush order, so compare per *event*.
  ASSERT_EQ(incremental.graph().store().node_count(),
            full.graph().store().node_count());
  for (const Event& e : events) {
    const auto vi = incremental.node_of(e.id);
    const auto vf = full.node_of(e.id);
    ASSERT_TRUE(vi.has_value());
    ASSERT_TRUE(vf.has_value());
    EXPECT_EQ(incremental.clocks().lamport(*vi), full.clocks().lamport(*vf));
    EXPECT_EQ(incremental.clocks().position(*vi), full.clocks().position(*vf));
  }
}

TEST(LogicalClocksTest, SecondAssignIsNoOp) {
  auto horus = build(gen::client_server_events({.num_events = 40}));
  LogicalClockAssigner assigner(horus->graph());
  EXPECT_EQ(assigner.assign(), horus->graph().store().node_count());
  EXPECT_EQ(assigner.assign(), 0u);
}

TEST(LogicalClocksTest, CycleIsReported) {
  ExecutionGraph graph;
  Event a;
  a.id = EventId{1};
  a.type = EventType::kLog;
  a.thread = ThreadRef{"h", 1, 1};
  a.timestamp = 1;
  Event b = a;
  b.id = EventId{2};
  b.thread = ThreadRef{"h", 2, 1};
  graph.add_event(a, "h/1");
  graph.add_event(b, "h/2");
  graph.add_inter_edge(EventId{1}, EventId{2});
  graph.add_inter_edge(EventId{2}, EventId{1});
  LogicalClockAssigner assigner(graph);
  EXPECT_THROW(assigner.assign(), std::logic_error);
}

TEST(LogicalClocksTest, VcStringPadsToTimelineCount) {
  auto horus = build(gen::client_server_events({.num_events = 8}));
  const auto& clocks = horus->clocks();
  EXPECT_EQ(clocks.timeline_count(), 2u);
  const std::string s = clocks.vc_string(0);
  EXPECT_EQ(std::count(s.begin(), s.end(), ','), 1);
  EXPECT_EQ(s.front(), '[');
  EXPECT_EQ(s.back(), ']');
}

TEST(LogicalClocksTest, ConcurrentEventsAreNotOrdered) {
  // Two isolated processes: nothing happens-before anything across them.
  std::vector<Event> events;
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 3; ++i) {
      Event e;
      e.id = EventId{static_cast<std::uint64_t>(p * 10 + i)};
      e.type = EventType::kLog;
      e.thread = ThreadRef{"h" + std::to_string(p), 1, 1};
      e.timestamp = i;
      e.payload = LogPayload{"x", "t"};
      events.push_back(e);
    }
  }
  auto horus = build(std::move(events));
  const auto& clocks = horus->clocks();
  const auto a = *horus->node_of(EventId{0});
  const auto b = *horus->node_of(EventId{10});
  EXPECT_FALSE(clocks.happens_before(a, b));
  EXPECT_FALSE(clocks.happens_before(b, a));
  EXPECT_FALSE(clocks.vc_less(a, b));
  EXPECT_FALSE(clocks.vc_less(b, a));
}

}  // namespace
}  // namespace horus
