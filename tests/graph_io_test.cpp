#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/horus.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "test_dir.h"

namespace horus {
namespace {

TEST(GraphIoTest, RoundTripsStore) {
  graph::GraphStore g;
  const auto a = g.add_node("LOG", {{"message", std::string("hello \"x\"")},
                                    {"count", std::int64_t{42}},
                                    {"ratio", 2.5},
                                    {"flag", true}});
  const auto b = g.add_node("SND", {});
  g.add_edge(a, b, "NEXT");
  g.add_edge(b, a, "HB");

  std::stringstream buffer;
  graph::save_graph(g, buffer);

  graph::GraphStore loaded;
  graph::load_graph(loaded, buffer);
  ASSERT_EQ(loaded.node_count(), 2u);
  ASSERT_EQ(loaded.edge_count(), 2u);
  EXPECT_EQ(loaded.node_label(a), "LOG");
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "message"),
                                     graph::PropertyValue{std::string(
                                         "hello \"x\"")}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "count"),
                                     graph::PropertyValue{std::int64_t{42}}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "ratio"),
                                     graph::PropertyValue{2.5}));
  EXPECT_TRUE(graph::property_equals(loaded.property(a, "flag"),
                                     graph::PropertyValue{true}));
  ASSERT_EQ(loaded.out_edges(a).size(), 1u);
  EXPECT_EQ(loaded.edge_type_name(loaded.out_edges(a)[0].type), "NEXT");
}

TEST(GraphIoTest, LoadIntoNonEmptyStoreThrows) {
  graph::GraphStore g;
  g.add_node("A", {});
  std::stringstream buffer;
  graph::save_graph(g, buffer);
  graph::GraphStore target;
  target.add_node("B", {});
  EXPECT_THROW(graph::load_graph(target, buffer), std::logic_error);
}

TEST(GraphIoTest, RejectsForeignFormats) {
  graph::GraphStore g;
  std::istringstream not_ours("{\"format\":\"something-else\"}\n");
  EXPECT_THROW(graph::load_graph(g, not_ours), std::runtime_error);
  graph::GraphStore g2;
  std::istringstream empty("");
  EXPECT_THROW(graph::load_graph(g2, empty), std::runtime_error);
}

TEST(GraphIoTest, DeterministicOutput) {
  auto build = [] {
    graph::GraphStore g;
    const auto a = g.add_node("X", {{"k", std::string("v")}});
    const auto b = g.add_node("Y", {});
    g.add_edge(a, b, "E");
    std::stringstream buffer;
    graph::save_graph(g, buffer);
    return buffer.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(ExecutionGraphIoTest, SnapshotPreservesCausalAnswers) {
  const TestDir dir;
  const std::string path = dir.file("graph.hgraph");

  Horus original;
  gen::RandomExecutionOptions gen_options;
  gen_options.num_processes = 4;
  gen_options.events_per_process = 30;
  gen_options.seed = 17;
  for (Event& e : gen::random_execution(gen_options)) {
    original.ingest(std::move(e));
  }
  original.seal();
  original.graph().save(path);

  ExecutionGraph reloaded;
  reloaded.load(path);
  LogicalClockAssigner assigner(reloaded);
  assigner.assign();

  ASSERT_EQ(reloaded.store().node_count(),
            original.graph().store().node_count());
  ASSERT_EQ(reloaded.store().edge_count(),
            original.graph().store().edge_count());

  // Same happens-before relation, looked up by event id.
  const auto n = static_cast<graph::NodeId>(reloaded.store().node_count());
  for (graph::NodeId a = 0; a < n; a += 2) {
    for (graph::NodeId b = 0; b < n; b += 3) {
      const auto oa = *original.node_of(reloaded.event_of(a));
      const auto ob = *original.node_of(reloaded.event_of(b));
      ASSERT_EQ(assigner.clocks().happens_before(a, b),
                original.clocks().happens_before(oa, ob));
    }
  }

  // Invariants hold on the reloaded graph too.
  EXPECT_TRUE(validate_graph(reloaded, assigner.clocks()).ok());
}

}  // namespace
}  // namespace horus
