#include "core/causal_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "core/horus.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"

namespace horus {
namespace {

std::unique_ptr<Horus> build(std::vector<Event> events) {
  auto horus = std::make_unique<Horus>();
  for (Event& e : events) horus->ingest(std::move(e));
  horus->seal();
  return horus;
}

TEST(CausalQueryTest, Q1MatchesShortestPathBaseline) {
  auto horus = build(gen::client_server_events({.num_events = 200}));
  const auto q = horus->query();
  const auto& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  for (graph::NodeId a = 0; a < n; a += 7) {
    for (graph::NodeId b = 0; b < n; b += 11) {
      if (a == b) continue;
      const bool baseline = graph::shortest_path(store, a, b).found();
      EXPECT_EQ(q.happens_before(a, b), baseline) << a << "->" << b;
      EXPECT_EQ(q.happens_before_vc(a, b), baseline);
    }
  }
}

TEST(CausalQueryTest, Q2MatchesTraversalBaselineOnClientServer) {
  auto horus = build(gen::client_server_events({.num_events = 120}));
  const auto q = horus->query();
  const auto& store = horus->graph().store();

  const graph::NodeId a = 4;   // some early event
  const graph::NodeId b = 90;  // some late event
  ASSERT_TRUE(q.happens_before(a, b));

  const auto result = q.get_causal_graph(a, b);
  auto baseline = graph::between_subgraph(store, a, b);

  auto sorted_nodes = result.nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  EXPECT_EQ(sorted_nodes, baseline.nodes);
}

// Every field is 64-bit so the struct has no padding: gtest names each
// case after the struct's raw bytes, and uninitialised padding made the
// test names differ from one build (and run) to the next.
struct Q2Case {
  std::int64_t processes;
  std::size_t events_per_process;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Q2Case>);

class Q2PropertyTest : public ::testing::TestWithParam<Q2Case> {};

TEST_P(Q2PropertyTest, CausalGraphEqualsBruteForceOnRandomExecutions) {
  const auto& param = GetParam();
  gen::RandomExecutionOptions options;
  options.num_processes = param.processes;
  options.events_per_process = param.events_per_process;
  options.seed = param.seed;
  auto horus = build(gen::random_execution(options));

  const auto q = horus->query();
  const auto& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  // Probe a grid of pairs; for HB pairs check the full node-set equality.
  int checked = 0;
  for (graph::NodeId a = 0; a < n && checked < 40; a += 3) {
    for (graph::NodeId b = a + 1; b < n && checked < 40; b += 5) {
      if (!q.happens_before(a, b)) continue;
      ++checked;
      const auto result = q.get_causal_graph(a, b);
      auto got = result.nodes;
      std::sort(got.begin(), got.end());
      const auto want = graph::between_subgraph(store, a, b).nodes;
      ASSERT_EQ(got, want) << "seed=" << param.seed << " a=" << a
                           << " b=" << b;
      // The LC bound is an over-approximation of the final set.
      ASSERT_GE(result.lc_candidates, result.nodes.size());
      // Edge endpoints must lie in the node set.
      for (const auto& [x, y] : result.edges) {
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(), x));
        ASSERT_TRUE(std::binary_search(got.begin(), got.end(), y));
      }
    }
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomExecutions, Q2PropertyTest,
    ::testing::Values(Q2Case{3, 30, 11}, Q2Case{4, 25, 12}, Q2Case{5, 20, 13},
                      Q2Case{6, 15, 14}, Q2Case{8, 12, 15}, Q2Case{2, 60, 16}));

TEST(CausalQueryTest, Q2OfConcurrentEventsIsEmpty) {
  // A synchronous client-server execution is totally ordered, so use a
  // random multi-process execution, which has real concurrency.
  gen::RandomExecutionOptions options;
  options.num_processes = 4;
  options.events_per_process = 25;
  options.seed = 31;
  auto horus = build(gen::random_execution(options));
  const auto q = horus->query();
  const auto& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  int found = 0;
  for (graph::NodeId a = 0; a < n && found < 20; ++a) {
    for (graph::NodeId b = a + 1; b < n && found < 20; ++b) {
      if (!q.happens_before(a, b) && !q.happens_before(b, a)) {
        EXPECT_TRUE(q.get_causal_graph(a, b).nodes.empty());
        ++found;
      }
    }
  }
  EXPECT_GT(found, 0);
}

TEST(CausalQueryTest, Q2SameEventYieldsSingleton) {
  auto horus = build(gen::client_server_events({.num_events = 40}));
  const auto q = horus->query();
  const auto result = q.get_causal_graph(5, 5);
  EXPECT_EQ(result.nodes, (std::vector<graph::NodeId>{5}));
}

TEST(CausalQueryTest, Q2NodesAreInLamportOrder) {
  auto horus = build(gen::client_server_events({.num_events = 200}));
  const auto q = horus->query();
  const auto& clocks = horus->clocks();
  const auto result = q.get_causal_graph(0, 150);
  for (std::size_t i = 1; i < result.nodes.size(); ++i) {
    EXPECT_LE(clocks.lamport(result.nodes[i - 1]),
              clocks.lamport(result.nodes[i]));
  }
}

TEST(CausalQueryTest, OnlyLogsFilterKeepsEndpoints) {
  gen::RandomExecutionOptions options;
  options.num_processes = 4;
  options.events_per_process = 30;
  options.seed = 21;
  auto horus = build(gen::random_execution(options));
  const auto q = horus->query();
  const auto& store = horus->graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      if (!q.happens_before(a, b)) continue;
      const auto filtered = q.get_causal_graph(a, b, /*only_logs=*/true);
      // Endpoints always present.
      EXPECT_NE(std::find(filtered.nodes.begin(), filtered.nodes.end(), a),
                filtered.nodes.end());
      EXPECT_NE(std::find(filtered.nodes.begin(), filtered.nodes.end(), b),
                filtered.nodes.end());
      for (const graph::NodeId v : filtered.nodes) {
        if (v == a || v == b) continue;
        EXPECT_EQ(store.node_label(v), "LOG");
      }
      return;  // one HB pair suffices
    }
  }
}

TEST(CausalQueryTest, PrunedSearchVisitsNoConcurrentNodes) {
  // The point of Figure 3: Horus' result excludes events concurrent with
  // the endpoints, which plain traversal would visit.
  auto horus = build(gen::client_server_events({.num_events = 400}));
  const auto q = horus->query();
  const auto& clocks = horus->clocks();
  const auto result = q.get_causal_graph(10, 300);
  for (const graph::NodeId v : result.nodes) {
    if (v == 10 || v == 300) continue;
    EXPECT_TRUE(clocks.happens_before(10, v));
    EXPECT_TRUE(clocks.happens_before(v, 300));
  }
}

}  // namespace
}  // namespace horus
