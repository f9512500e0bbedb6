#include <gtest/gtest.h>

#include "core/horus.h"
#include "gen/synthetic.h"

namespace horus {
namespace {

Event log_event(std::uint64_t id, const ThreadRef& thread, TimeNs ts,
                std::string message = "m") {
  Event e;
  e.id = EventId{id};
  e.type = EventType::kLog;
  e.thread = thread;
  e.service = "svc";
  e.timestamp = ts;
  e.payload = LogPayload{std::move(message), "t"};
  return e;
}

TEST(IntraEncoderTest, ChainsEventsOfOneTimeline) {
  ExecutionGraph graph;
  std::vector<EventId> forwarded;
  IntraProcessEncoder encoder(graph, [&forwarded](Event e) {
    forwarded.push_back(e.id);
  });
  const ThreadRef t{"h", 1, 1};
  encoder.on_event(log_event(1, t, 10));
  encoder.on_event(log_event(2, t, 20));
  encoder.on_event(log_event(3, t, 30));
  EXPECT_EQ(encoder.pending(), 3u);
  encoder.flush();
  EXPECT_EQ(encoder.pending(), 0u);
  EXPECT_EQ(encoder.flushed(), 3u);
  EXPECT_EQ(graph.store().node_count(), 3u);
  EXPECT_EQ(graph.store().edge_count(), 2u);
  EXPECT_EQ(forwarded,
            (std::vector<EventId>{EventId{1}, EventId{2}, EventId{3}}));
}

TEST(IntraEncoderTest, ReordersOutOfOrderArrivals) {
  ExecutionGraph graph;
  std::vector<EventId> forwarded;
  IntraProcessEncoder encoder(graph, [&forwarded](Event e) {
    forwarded.push_back(e.id);
  });
  const ThreadRef t{"h", 1, 1};
  encoder.on_event(log_event(2, t, 20));
  encoder.on_event(log_event(1, t, 10));  // arrives late but is earlier
  encoder.on_event(log_event(3, t, 30));
  encoder.flush();
  EXPECT_EQ(forwarded,
            (std::vector<EventId>{EventId{1}, EventId{2}, EventId{3}}));
  EXPECT_EQ(encoder.late_events(), 0u);
}

TEST(IntraEncoderTest, ChainsAcrossFlushes) {
  ExecutionGraph graph;
  IntraProcessEncoder encoder(graph, {});
  const ThreadRef t{"h", 1, 1};
  encoder.on_event(log_event(1, t, 10));
  encoder.flush();
  encoder.on_event(log_event(2, t, 20));
  encoder.flush();
  // Two nodes, one NEXT edge across the flush boundary.
  EXPECT_EQ(graph.store().node_count(), 2u);
  EXPECT_EQ(graph.store().edge_count(), 1u);
}

TEST(IntraEncoderTest, LateEventBeyondFlushHorizonIsCounted) {
  ExecutionGraph graph;
  IntraProcessEncoder encoder(graph, {});
  const ThreadRef t{"h", 1, 1};
  encoder.on_event(log_event(1, t, 100));
  encoder.flush();
  encoder.on_event(log_event(2, t, 50));  // older than the flushed tail
  encoder.flush();
  EXPECT_EQ(encoder.late_events(), 1u);
  EXPECT_EQ(graph.store().edge_count(), 1u);  // still chained after the tail
}

TEST(IntraEncoderTest, ProcessGranularityMergesThreads) {
  ExecutionGraph graph;
  IntraProcessEncoder encoder(
      graph, {}, {.granularity = TimelineGranularity::kProcess});
  encoder.on_event(log_event(1, ThreadRef{"h", 1, 1}, 10));
  encoder.on_event(log_event(2, ThreadRef{"h", 1, 2}, 20));
  encoder.flush();
  EXPECT_EQ(graph.store().edge_count(), 1u);  // one merged timeline
}

TEST(IntraEncoderTest, ThreadGranularityKeepsThreadsApart) {
  ExecutionGraph graph;
  IntraProcessEncoder encoder(
      graph, {}, {.granularity = TimelineGranularity::kThread});
  encoder.on_event(log_event(1, ThreadRef{"h", 1, 1}, 10));
  encoder.on_event(log_event(2, ThreadRef{"h", 1, 2}, 20));
  encoder.flush();
  EXPECT_EQ(graph.store().edge_count(), 0u);  // independent timelines
}

TEST(IntraEncoderTest, DuplicateEventIdsPersistOnce) {
  ExecutionGraph graph;
  IntraProcessEncoder encoder(graph, {});
  const ThreadRef t{"h", 1, 1};
  encoder.on_event(log_event(1, t, 10));
  encoder.on_event(log_event(1, t, 10));  // at-least-once redelivery
  encoder.flush();
  EXPECT_EQ(graph.store().node_count(), 1u);
}

// A timeline flush is one store write, and replaying it (a restarted
// encoder re-deriving a window it already stored) writes nothing new.
TEST(IntraEncoderTest, TimelineBatchIsOneIdempotentWrite) {
  ExecutionGraph graph;
  const ThreadRef t{"h", 1, 1};
  const std::vector<Event> first = {log_event(1, t, 10), log_event(2, t, 20)};
  graph.add_timeline_batch("h/1", std::nullopt, first);
  EXPECT_EQ(graph.store().node_count(), 2u);
  EXPECT_EQ(graph.store().edge_count(), 1u);

  // Replayed event 2, then a new event 3 chained after it.
  const std::vector<Event> second = {log_event(2, t, 20), log_event(3, t, 30)};
  graph.add_timeline_batch("h/1", EventId{1}, second);
  EXPECT_EQ(graph.store().node_count(), 3u);
  EXPECT_EQ(graph.store().edge_count(), 2u);
  graph.add_timeline_batch("h/1", EventId{1}, second);
  EXPECT_EQ(graph.store().edge_count(), 2u);
  const auto tail = graph.timeline_tail("h/1");
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->id, EventId{3});
  const graph::NodeId n2 = *graph.node_of(EventId{2});
  const graph::NodeId n3 = *graph.node_of(EventId{3});
  ASSERT_EQ(graph.store().out_edges(n2).size(), 1u);
  EXPECT_EQ(graph.store().out_edges(n2)[0].to, n3);

  EXPECT_THROW(graph.add_timeline_batch("h/1", EventId{99}, second),
               std::logic_error);
}

Event net_event(std::uint64_t id, EventType type, const ThreadRef& thread,
                TimeNs ts, const ChannelId& channel, std::uint64_t offset,
                std::uint64_t size) {
  Event e;
  e.id = EventId{id};
  e.type = type;
  e.thread = thread;
  e.service = "svc";
  e.timestamp = ts;
  e.payload = NetPayload{channel, offset, size};
  return e;
}

class InterEncoderFixture : public ::testing::Test {
 protected:
  void persist(const Event& e) {
    graph_.add_event(e, timeline_key(e, TimelineGranularity::kProcess));
  }

  void feed(const Event& e) {
    persist(e);
    encoder_.on_event(e);
  }

  [[nodiscard]] bool has_hb_edge(std::uint64_t from, std::uint64_t to) {
    const auto a = graph_.node_of(EventId{from});
    const auto b = graph_.node_of(EventId{to});
    if (!a || !b) return false;
    const auto hb = graph_.store().edge_type_id("HB");
    if (!hb) return false;
    for (const auto& e : graph_.store().out_edges(*a)) {
      if (e.to == *b && e.type == *hb) return true;
    }
    return false;
  }

  ExecutionGraph graph_;
  InterProcessEncoder encoder_{graph_};
  ThreadRef p1_{"h1", 1, 1};
  ThreadRef p2_{"h2", 2, 1};
  ChannelId chan_{{"10.0.0.1", 1000}, {"10.0.0.2", 80}};
};

TEST_F(InterEncoderFixture, PairsSndWithSingleRcv) {
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 100));
  feed(net_event(2, EventType::kRcv, p2_, 5, chan_, 0, 100));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
  EXPECT_EQ(encoder_.edges_flushed(), 1u);
}

TEST_F(InterEncoderFixture, PairsSndWithMultiplePartialRcvs) {
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 300));
  feed(net_event(2, EventType::kRcv, p2_, 11, chan_, 0, 100));
  feed(net_event(3, EventType::kRcv, p2_, 12, chan_, 100, 100));
  feed(net_event(4, EventType::kRcv, p2_, 13, chan_, 200, 100));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
  EXPECT_TRUE(has_hb_edge(1, 3));
  EXPECT_TRUE(has_hb_edge(1, 4));
}

TEST_F(InterEncoderFixture, PairsRcvCoveringMultipleSnds) {
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 50));
  feed(net_event(2, EventType::kSnd, p1_, 11, chan_, 50, 50));
  feed(net_event(3, EventType::kRcv, p2_, 12, chan_, 0, 100));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 3));
  EXPECT_TRUE(has_hb_edge(2, 3));
}

TEST_F(InterEncoderFixture, RcvBeforeSndStillPairs) {
  // Queue interleaving can deliver the receiver's stream first.
  feed(net_event(2, EventType::kRcv, p2_, 5, chan_, 0, 100));
  EXPECT_GT(encoder_.pending(), 0u);
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 100));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
}

TEST_F(InterEncoderFixture, DifferentChannelsDoNotPair) {
  const ChannelId other{{"10.0.0.9", 1}, {"10.0.0.2", 80}};
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 100));
  feed(net_event(2, EventType::kRcv, p2_, 11, other, 0, 100));
  encoder_.flush();
  EXPECT_FALSE(has_hb_edge(1, 2));
}

TEST_F(InterEncoderFixture, DisjointByteRangesDoNotPair) {
  feed(net_event(1, EventType::kSnd, p1_, 10, chan_, 0, 100));
  feed(net_event(2, EventType::kRcv, p2_, 11, chan_, 100, 100));
  encoder_.flush();
  EXPECT_FALSE(has_hb_edge(1, 2));
}

TEST_F(InterEncoderFixture, ConnectAcceptPair) {
  feed(net_event(1, EventType::kConnect, p1_, 10, chan_, 0, 0));
  feed(net_event(2, EventType::kAccept, p2_, 11, chan_, 0, 0));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
}

TEST_F(InterEncoderFixture, AcceptBeforeConnectStillPairs) {
  feed(net_event(2, EventType::kAccept, p2_, 11, chan_, 0, 0));
  feed(net_event(1, EventType::kConnect, p1_, 10, chan_, 0, 0));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
}

TEST_F(InterEncoderFixture, LifecyclePairs) {
  const ThreadRef child{"h1", 1, 2};
  auto lifecycle = [&](std::uint64_t id, EventType type,
                       const ThreadRef& thread,
                       std::optional<ThreadRef> child_ref) {
    Event e;
    e.id = EventId{id};
    e.type = type;
    e.thread = thread;
    e.service = "svc";
    e.timestamp = static_cast<TimeNs>(id * 10);
    if (child_ref) e.payload = ThreadPayload{*child_ref};
    return e;
  };
  feed(lifecycle(1, EventType::kCreate, p1_, child));
  feed(lifecycle(2, EventType::kStart, child, std::nullopt));
  feed(lifecycle(3, EventType::kEnd, child, std::nullopt));
  feed(lifecycle(4, EventType::kJoin, p1_, child));
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
  EXPECT_TRUE(has_hb_edge(3, 4));
  EXPECT_FALSE(has_hb_edge(2, 3));  // intra edge is the intra stage's job
}

TEST_F(InterEncoderFixture, JoinBeforeEndPairs) {
  const ThreadRef child{"h1", 1, 2};
  Event join;
  join.id = EventId{1};
  join.type = EventType::kJoin;
  join.thread = p1_;
  join.timestamp = 10;
  join.payload = ThreadPayload{child};
  feed(join);
  Event end;
  end.id = EventId{2};
  end.type = EventType::kEnd;
  end.thread = child;
  end.timestamp = 5;
  feed(end);
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(2, 1));
}

TEST_F(InterEncoderFixture, CustomRuleExtension) {
  // A rule pairing LOG "emit X" with LOG "observe X" — the paper's claim
  // that new causality rules slot in without touching the encoder.
  class EmitObserveRule final : public CausalRule {
   public:
    [[nodiscard]] std::string_view name() const noexcept override {
      return "emit-observe";
    }
    void on_event(const Event& event, std::vector<CausalPair>& out) override {
      const auto* log = event.log();
      if (log == nullptr) return;
      if (log->message.starts_with("emit ")) {
        emits_[log->message.substr(5)] = event.id;
      } else if (log->message.starts_with("observe ")) {
        auto it = emits_.find(log->message.substr(8));
        if (it != emits_.end()) {
          out.push_back(CausalPair{it->second, event.id, name()});
        }
      }
    }
    [[nodiscard]] std::size_t pending() const noexcept override {
      return emits_.size();
    }

   private:
    std::map<std::string, EventId> emits_;
  };

  encoder_.add_rule(std::make_unique<EmitObserveRule>());
  Event a = log_event(1, p1_, 10, "emit token42");
  Event b = log_event(2, p2_, 12, "observe token42");
  feed(a);
  feed(b);
  encoder_.flush();
  EXPECT_TRUE(has_hb_edge(1, 2));
}

TEST(IntraEncoderTest, FreshEncoderRecoversTailFromStore) {
  // Simulates an encoder restart (or partition rebalance): a second encoder
  // instance over the same graph must chain onto the persisted tail.
  ExecutionGraph graph;
  const ThreadRef t{"h", 1, 1};
  {
    IntraProcessEncoder first(graph, {});
    first.on_event(log_event(1, t, 10));
    first.on_event(log_event(2, t, 20));
    first.flush();
  }
  IntraProcessEncoder second(graph, {});
  second.on_event(log_event(3, t, 30));
  second.flush();
  // 3 nodes, 2 NEXT edges — including the one across the encoder handover.
  EXPECT_EQ(graph.store().node_count(), 3u);
  EXPECT_EQ(graph.store().edge_count(), 2u);
  EXPECT_EQ(second.late_events(), 0u);
}

TEST(IntraEncoderTest, RecoveredTailStillDetectsLateEvents) {
  ExecutionGraph graph;
  const ThreadRef t{"h", 1, 1};
  {
    IntraProcessEncoder first(graph, {});
    first.on_event(log_event(1, t, 100));
    first.flush();
  }
  IntraProcessEncoder second(graph, {});
  second.on_event(log_event(2, t, 50));  // older than the recovered tail
  second.flush();
  EXPECT_EQ(second.late_events(), 1u);
  EXPECT_EQ(graph.store().edge_count(), 1u);
}

TEST(EndToEndEncodingTest, ClientServerGraphHasPaperEdgeCount) {
  // The synthetic generator's contract from Section VII: N events,
  // 3N/2 - 2 edges.
  for (const std::size_t n : {8u, 100u, 1000u}) {
    Horus horus;
    gen::ClientServerOptions options;
    options.num_events = n;
    for (Event& e : gen::client_server_events(options)) {
      horus.ingest(std::move(e));
    }
    horus.seal();
    EXPECT_EQ(horus.graph().store().node_count(), n);
    EXPECT_EQ(horus.graph().store().edge_count(), gen::client_server_edges(n));
  }
}

TEST(EndToEndEncodingTest, ShuffledArrivalYieldsSameGraph) {
  gen::ClientServerOptions options;
  options.num_events = 400;

  Horus ordered;
  for (Event& e : gen::client_server_events(options)) {
    ordered.ingest(std::move(e));
  }
  ordered.seal();

  Horus shuffled_run;
  for (Event& e : gen::shuffled(gen::client_server_events(options), 99)) {
    shuffled_run.ingest(std::move(e));
  }
  shuffled_run.seal();

  EXPECT_EQ(ordered.graph().store().node_count(),
            shuffled_run.graph().store().node_count());
  EXPECT_EQ(ordered.graph().store().edge_count(),
            shuffled_run.graph().store().edge_count());
}

}  // namespace
}  // namespace horus
