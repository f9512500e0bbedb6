#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/horus.h"
#include "core/logical_clocks.h"
#include "gen/synthetic.h"

namespace horus {
namespace {

struct PipelineCase {
  int partitions;
  int intra_workers;
  int inter_workers;
};

class PipelineScaleTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineScaleTest, ProducesSameGraphAsEmbeddedMode) {
  const auto& param = GetParam();

  gen::ClientServerOptions gen_options;
  gen_options.num_events = 2000;
  const auto events = gen::client_server_events(gen_options);

  // Reference: synchronous embedded pipeline.
  Horus embedded;
  for (const Event& e : events) embedded.ingest(e);
  embedded.seal();

  // Distributed pipeline with the parameterized worker/partition layout.
  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = param.partitions;
  options.intra_workers = param.intra_workers;
  options.inter_workers = param.inter_workers;
  options.event_flush_interval_ms = 20;
  options.relationship_flush_interval_ms = 30;
  Pipeline pipeline(broker, graph, options);
  pipeline.start();
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  pipeline.stop();

  EXPECT_EQ(pipeline.events_published(), events.size());
  EXPECT_EQ(pipeline.events_processed(), events.size());
  EXPECT_EQ(graph.store().node_count(),
            embedded.graph().store().node_count());
  EXPECT_EQ(graph.store().edge_count(),
            embedded.graph().store().edge_count());

  // Clock assignment on the pipeline-produced graph gives identical
  // happens-before answers (spot check via Lamport validity).
  LogicalClockAssigner assigner(graph);
  EXPECT_EQ(assigner.assign(), graph.store().node_count());
  const auto& clocks = assigner.clocks();
  for (graph::NodeId v = 0; v < graph.store().node_count(); ++v) {
    for (const graph::Edge& e : graph.store().out_edges(v)) {
      EXPECT_LT(clocks.lamport(v), clocks.lamport(e.to));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerLayouts, PipelineScaleTest,
    ::testing::Values(PipelineCase{1, 1, 1}, PipelineCase{4, 1, 1},
                      PipelineCase{4, 2, 2}, PipelineCase{8, 4, 4},
                      PipelineCase{8, 4, 2}));

TEST(PipelineTest, RoutingKeyKeepsPairsTogether) {
  // SND and its RCV share a routing key; CREATE and START share one too.
  Event snd;
  snd.type = EventType::kSnd;
  snd.thread = ThreadRef{"a", 1, 1};
  snd.payload = NetPayload{{{"10.0.0.1", 1}, {"10.0.0.2", 2}}, 0, 10};
  Event rcv = snd;
  rcv.type = EventType::kRcv;
  rcv.thread = ThreadRef{"b", 2, 1};
  EXPECT_EQ(inter_routing_key(snd), inter_routing_key(rcv));

  Event create;
  create.type = EventType::kCreate;
  create.thread = ThreadRef{"a", 1, 1};
  create.payload = ThreadPayload{ThreadRef{"a", 1, 2}};
  Event start;
  start.type = EventType::kStart;
  start.thread = ThreadRef{"a", 1, 2};
  EXPECT_EQ(inter_routing_key(create), inter_routing_key(start));

  Event end;
  end.type = EventType::kEnd;
  end.thread = ThreadRef{"a", 1, 2};
  Event join;
  join.type = EventType::kJoin;
  join.thread = ThreadRef{"a", 1, 1};
  join.payload = ThreadPayload{ThreadRef{"a", 1, 2}};
  EXPECT_EQ(inter_routing_key(end), inter_routing_key(join));
}

// Every field is 64-bit so the struct has no padding: gtest names each
// case after the struct's raw bytes, and uninitialised padding made the
// test names differ from one build (and run) to the next.
struct RandomPipelineCase {
  std::int64_t processes;
  std::size_t events_per_process;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RandomPipelineCase>);

class PipelineRandomExecutionTest
    : public ::testing::TestWithParam<RandomPipelineCase> {};

TEST_P(PipelineRandomExecutionTest, MatchesEmbeddedOnRandomExecutions) {
  const auto& param = GetParam();
  gen::RandomExecutionOptions gen_options;
  gen_options.num_processes = param.processes;
  gen_options.events_per_process = param.events_per_process;
  gen_options.seed = param.seed;
  const auto events = gen::random_execution(gen_options);

  Horus embedded;
  for (const Event& e : events) embedded.ingest(e);
  embedded.seal();

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 6;
  options.intra_workers = 3;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 10;
  options.relationship_flush_interval_ms = 10;
  Pipeline pipeline(broker, graph, options);
  pipeline.start();
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  pipeline.stop();

  EXPECT_EQ(graph.store().node_count(),
            embedded.graph().store().node_count());
  EXPECT_EQ(graph.store().edge_count(),
            embedded.graph().store().edge_count());

  // Happens-before answers are identical between deployments.
  LogicalClockAssigner assigner(graph);
  assigner.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; a += 3) {
    for (graph::NodeId b = 0; b < n; b += 5) {
      const auto ea = graph.event_of(a);
      const auto eb = graph.event_of(b);
      const auto embedded_a = *embedded.node_of(ea);
      const auto embedded_b = *embedded.node_of(eb);
      ASSERT_EQ(assigner.clocks().happens_before(a, b),
                embedded.clocks().happens_before(embedded_a, embedded_b))
          << "seed=" << param.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomExecutions, PipelineRandomExecutionTest,
    ::testing::Values(RandomPipelineCase{3, 60, 1},
                      RandomPipelineCase{5, 40, 2},
                      RandomPipelineCase{8, 25, 3},
                      RandomPipelineCase{4, 80, 4}));

TEST(PipelineTest, StopWithoutStartIsSafe) {
  queue::Broker broker;
  ExecutionGraph graph;
  Pipeline pipeline(broker, graph);
  pipeline.stop();  // no-op
}

TEST(PipelineTest, DuplicateDeliveryYieldsIdenticalGraph) {
  // At-least-once semantics end to end: publishing the whole stream twice
  // (a crashed shipper replaying its uncommitted window) must not duplicate
  // nodes or edges.
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 600;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.intra_workers = 2;
  options.inter_workers = 2;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 5;
  Pipeline pipeline(broker, graph, options);
  pipeline.start();
  for (const Event& e : events) pipeline.publish(e);
  // Let the first copy partially flush, then replay everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const Event& e : events) pipeline.publish(e);
  pipeline.drain();
  pipeline.stop();

  EXPECT_EQ(graph.store().node_count(), events.size());
  EXPECT_EQ(graph.store().edge_count(),
            gen::client_server_edges(events.size()));
}

TEST(PipelineTest, RestartResumesFromCommittedOffsets) {
  // A "process restart" mid-stream: stop the pipeline, construct a new one
  // over the same broker and graph (same consumer groups), continue
  // publishing. Committed offsets make the second incarnation resume where
  // the first left off; duplicate suppression absorbs any replayed window.
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 1000;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.partitions = 4;
  options.event_flush_interval_ms = 5;
  options.relationship_flush_interval_ms = 5;

  {
    Pipeline first(broker, graph, options);
    first.start();
    for (std::size_t i = 0; i < events.size() / 2; ++i) {
      first.publish(events[i]);
    }
    first.drain();
    first.stop();
  }
  {
    Pipeline second(broker, graph, options);
    second.start();
    for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
      second.publish(events[i]);
    }
    // The second pipeline's counters only see its own half, so drain() on
    // them is valid (first half already fully flushed).
    second.drain();
    second.stop();
  }

  EXPECT_EQ(graph.store().node_count(), events.size());
  EXPECT_EQ(graph.store().edge_count(),
            gen::client_server_edges(events.size()));
}

TEST(PipelineTest, PublishBeforeStartIsBuffered) {
  gen::ClientServerOptions gen_options;
  gen_options.num_events = 200;
  const auto events = gen::client_server_events(gen_options);

  queue::Broker broker;
  ExecutionGraph graph;
  PipelineOptions options;
  options.event_flush_interval_ms = 10;
  options.relationship_flush_interval_ms = 10;
  Pipeline pipeline(broker, graph, options);
  for (const Event& e : events) pipeline.publish(e);  // queued, not lost
  pipeline.start();
  pipeline.drain();
  pipeline.stop();
  EXPECT_EQ(graph.store().node_count(), events.size());
}

}  // namespace
}  // namespace horus
