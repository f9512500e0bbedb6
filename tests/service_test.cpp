// Service-mode unit and integration tests (ctest label `service`):
// ClockTable checkpoint serialization (round trip + corruption), the
// overload state machine, the admission gate and ingest backpressure, and
// a graceful stop -> restart cycle that must restore the final checkpoint.
// The randomized kill-point convergence suite lives in
// service_recovery_test.cpp.
#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/horus.h"
#include "gen/synthetic.h"
#include "service/checkpoint.h"
#include "service/overload.h"
#include "test_dir.h"

namespace horus {
namespace {

namespace fs = std::filesystem;

std::vector<Event> workload(std::size_t n = 600) {
  gen::ClientServerOptions options;
  options.num_events = n;
  return gen::client_server_events(options);
}

/// A sealed embedded run: graph + clocks to serialize or compare against
/// (unique_ptr because Horus is neither copyable nor movable).
std::unique_ptr<Horus> reference_run(const std::vector<Event>& events) {
  auto horus = std::make_unique<Horus>();
  for (const Event& e : events) horus->ingest(e);
  horus->seal();
  return horus;
}

service::ServiceOptions fast_service_options(const std::string& data_dir) {
  service::ServiceOptions options;
  options.data_dir = data_dir;
  options.pipeline.partitions = 2;
  options.pipeline.intra_workers = 1;
  options.pipeline.inter_workers = 1;
  options.pipeline.event_flush_interval_ms = 5;
  options.pipeline.relationship_flush_interval_ms = 5;
  options.clock_interval_ms = 10;
  // Checkpoints in these tests are explicit; the periodic loop would blur
  // which epoch a restart restores.
  options.checkpoint_interval_ms = 3'600'000;
  return options;
}

// ---------------------------------------------------------------------------
// ClockTable serialization
// ---------------------------------------------------------------------------

TEST(ClockTableSerializationTest, RoundTripPreservesEverything) {
  const auto events = workload();
  const auto run_ptr = reference_run(events);
  const Horus& run = *run_ptr;
  const ClockTable& original = run.clocks();

  std::stringstream buffer;
  original.save(buffer);
  const ClockTable loaded = ClockTable::load(buffer);

  ASSERT_EQ(loaded.timeline_count(), original.timeline_count());
  for (std::size_t t = 0; t < original.timeline_count(); ++t) {
    EXPECT_EQ(loaded.timeline_name(static_cast<std::int32_t>(t)),
              original.timeline_name(static_cast<std::int32_t>(t)));
  }
  const std::size_t nodes = run.graph().store().node_count();
  for (graph::NodeId v = 0; v < nodes; ++v) {
    EXPECT_EQ(loaded.lamport(v), original.lamport(v));
    EXPECT_EQ(loaded.timeline_of(v), original.timeline_of(v));
    EXPECT_EQ(loaded.position(v), original.position(v));
    std::vector<std::int32_t> lv_scratch;
    std::vector<std::int32_t> ov_scratch;
    const auto lv = loaded.vc_span(v, lv_scratch);
    const auto ov = original.vc_span(v, ov_scratch);
    ASSERT_EQ(lv.size(), ov.size());
    for (std::size_t i = 0; i < ov.size(); ++i) EXPECT_EQ(lv[i], ov[i]);
  }
  // And the relation the table exists for survives the round trip.
  const std::size_t step = std::max<std::size_t>(1, nodes / 25);
  for (graph::NodeId a = 0; a < nodes; a += step) {
    for (graph::NodeId b = 0; b < nodes; b += step) {
      EXPECT_EQ(loaded.happens_before(a, b), original.happens_before(a, b));
    }
  }
}

TEST(ClockTableSerializationTest, TruncationAtEveryByteFails) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();
  ASSERT_GT(record.size(), 64u);
  for (std::size_t len = 0; len < record.size(); ++len) {
    std::istringstream in(record.substr(0, len));
    EXPECT_THROW(ClockTable::load(in), HorusError)
        << "truncated at byte " << len << " of " << record.size();
  }
}

TEST(ClockTableSerializationTest, BitFlipFailsTheChecksum) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();
  // Flip one bit in the middle of the payload (past the magic and length
  // frame, before the CRC trailer).
  for (const std::size_t pos :
       {record.size() / 3, record.size() / 2, record.size() - 8}) {
    std::string corrupt = record;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::istringstream in(corrupt);
    EXPECT_THROW(ClockTable::load(in), HorusError)
        << "bit flip at byte " << pos;
  }
}

TEST(ClockTableSerializationTest, BadMagicAndTrailingBytesFail) {
  const auto run = reference_run(workload(120));
  std::ostringstream buffer;
  run->clocks().save(buffer);
  const std::string record = std::move(buffer).str();

  std::string bad_magic = record;
  bad_magic[0] = 'X';
  std::istringstream in_magic(bad_magic);
  EXPECT_THROW(ClockTable::load(in_magic), HorusError);

  std::istringstream in_trailing(record + "junk");
  EXPECT_THROW(ClockTable::load(in_trailing), HorusError);
}

// ---------------------------------------------------------------------------
// Overload state machine
// ---------------------------------------------------------------------------

TEST(OverloadControllerTest, EscalatesOneLevelPerHotEvaluation) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kPauseGenerators);
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kTightenQueries);
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kRejectSessions);
  // Saturates at the top level.
  EXPECT_EQ(controller.evaluate(hot),
            service::OverloadLevel::kRejectSessions);
  EXPECT_EQ(controller.escalations(), 3u);
}

TEST(OverloadControllerTest, AnySingleHotSignalEscalates) {
  service::OverloadThresholds thresholds;
  thresholds.p99_high_seconds = 0.5;
  service::OverloadController controller(thresholds);
  service::OverloadController::Signals signals;  // backlog + arena calm
  signals.query_p99_seconds = 1.0;
  EXPECT_EQ(controller.evaluate(signals),
            service::OverloadLevel::kPauseGenerators);
}

TEST(OverloadControllerTest, RecoversAfterConsecutiveCalmEvaluations) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  thresholds.recover_after = 2;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  controller.evaluate(hot);
  controller.evaluate(hot);
  ASSERT_EQ(controller.level(), service::OverloadLevel::kTightenQueries);

  service::OverloadController::Signals calm;  // all zeros: below every low
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kTightenQueries);  // streak 1 of 2
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // step down
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // new streak 1 of 2
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
}

TEST(OverloadControllerTest, HysteresisBandHoldsLevelAndResetsStreak) {
  service::OverloadThresholds thresholds;
  thresholds.backlog_high = 100;
  thresholds.backlog_low = 10;
  thresholds.recover_after = 2;
  service::OverloadController controller(thresholds);

  service::OverloadController::Signals hot;
  hot.ingest_backlog = 500;
  controller.evaluate(hot);
  ASSERT_EQ(controller.level(), service::OverloadLevel::kPauseGenerators);

  // In the band between low and high: neither escalate nor count as calm.
  service::OverloadController::Signals band;
  band.ingest_backlog = 50;
  service::OverloadController::Signals calm;
  EXPECT_EQ(controller.evaluate(band),
            service::OverloadLevel::kPauseGenerators);
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // streak 1 of 2
  EXPECT_EQ(controller.evaluate(band),
            service::OverloadLevel::kPauseGenerators);  // streak reset
  EXPECT_EQ(controller.evaluate(calm),
            service::OverloadLevel::kPauseGenerators);  // streak 1 of 2 again
  EXPECT_EQ(controller.evaluate(calm), service::OverloadLevel::kNormal);
}

// ---------------------------------------------------------------------------
// Admission gate and ingest backpressure
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, GateBoundsConcurrentSessions) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.max_concurrent_sessions = 2;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  std::optional<service::HorusService::Session> first(daemon.admit());
  std::optional<service::HorusService::Session> second(daemon.admit());
  EXPECT_EQ(daemon.active_sessions(), 2);
  EXPECT_THROW((void)daemon.admit(), service::OverloadError);

  first.reset();  // RAII release frees a slot
  EXPECT_EQ(daemon.active_sessions(), 1);
  std::optional<service::HorusService::Session> third(daemon.admit());
  EXPECT_EQ(daemon.active_sessions(), 2);
  third.reset();
  second.reset();
  EXPECT_EQ(daemon.active_sessions(), 0);
  daemon.stop();
}

TEST(ServiceAdmissionTest, QueriesAnswerThroughAdmittedSessions) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph,
                               fast_service_options(data_dir));
  daemon.start();

  const auto events = workload();
  const auto ref_ptr = reference_run(events);
  const Horus& ref = *ref_ptr;
  for (const Event& e : events) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();  // force assignment instead of polling

  const service::HorusService::Session session = daemon.admit();
  const std::size_t step = std::max<std::size_t>(1, events.size() / 20);
  std::size_t hb_agreements = 0;
  for (std::size_t i = 0; i < events.size(); i += step) {
    for (std::size_t j = 0; j < events.size(); j += step) {
      const auto a = graph.node_of(events[i].id);
      const auto b = graph.node_of(events[j].id);
      const auto ra = ref.node_of(events[i].id);
      const auto rb = ref.node_of(events[j].id);
      ASSERT_TRUE(a && b && ra && rb);
      const bool expected = ref.clocks().happens_before(*ra, *rb);
      EXPECT_EQ(daemon.happens_before(session, *a, *b), expected);
      if (expected) ++hb_agreements;
    }
  }
  EXPECT_GT(hb_agreements, 0u);  // the grid actually exercised Q1

  // Q2 through the session returns the causally-between nodes.
  const auto from = graph.node_of(events.front().id);
  const auto to = graph.node_of(events.back().id);
  ASSERT_TRUE(from && to);
  const CausalGraphResult q2 = daemon.get_causal_graph(session, *from, *to);
  if (ref.clocks().happens_before(*ref.node_of(events.front().id),
                                  *ref.node_of(events.back().id))) {
    EXPECT_FALSE(q2.nodes.empty());
  }
  daemon.stop();
}

TEST(ServiceAdmissionTest, DegradedModeRejectsExpensivePlansUpFront) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  // Any completed query counts as "slow", and calm never accumulates, so
  // the supervisor escalates one level per evaluation while we keep the
  // latency window non-empty below.
  options.thresholds.p99_high_seconds = 1e-9;
  options.thresholds.recover_after = 1'000'000;
  options.degraded_max_plan_rows = 10;
  service::HorusService daemon(broker, graph, options);
  daemon.start();

  const auto events = workload();
  for (const Event& e : events) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  daemon.clock_daemon().tick();

  const service::HorusService::Session session = daemon.admit();
  const std::string expensive = "MATCH (n) RETURN count(*) AS c";
  const std::string cheap =
      "MATCH (n) WHERE n.eventId = 1 RETURN n.eventId";

  // Normal mode: the full scan answers.
  const query::QueryResult full = daemon.run_query(session, expensive);
  ASSERT_EQ(full.rows.size(), 1u);

  // Keep the p99 window hot until the controller reaches kTightenQueries.
  for (int i = 0; i < 500 && daemon.overload_level() <
                                 service::OverloadLevel::kTightenQueries;
       ++i) {
    (void)daemon.run_query(session, cheap);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(daemon.overload_level(),
            service::OverloadLevel::kTightenQueries);

  // Degraded: the expensive plan is rejected before execution with the
  // typed error, while a cheap indexed probe still answers.
  EXPECT_THROW((void)daemon.run_query(session, expensive),
               service::OverloadError);
  EXPECT_NO_THROW((void)daemon.run_query(session, cheap));
  daemon.stop();
}

TEST(ServiceBackpressureTest, StuckPipelineSurfacesTypedOverloadError) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.max_ingest_backlog = 0;
  options.backpressure_timeout_ms = 50;
  // Deliberately never started: published events sit uncommitted, so the
  // backlog stays above the (zero) bound and the second publish must fail
  // with the typed error after the timeout instead of wedging forever.
  service::HorusService daemon(broker, graph, options);
  const auto events = workload(10);
  daemon.publish(events[0]);  // backlog was 0 at entry: admitted
  EXPECT_THROW(daemon.publish(events[1]), service::OverloadError);
}

// ---------------------------------------------------------------------------
// Checkpoint restore paths
// ---------------------------------------------------------------------------

TEST(ServiceCheckpointTest, GracefulRestartRestoresTheFinalCheckpoint) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  const auto events = workload();
  queue::Broker broker;

  std::size_t nodes_before = 0;
  std::size_t edges_before = 0;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    EXPECT_FALSE(daemon.restored_from_checkpoint());
    for (const Event& e : events) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();  // graceful: final flush+commit+checkpoint
    nodes_before = graph.store().node_count();
    edges_before = graph.store().edge_count();
    EXPECT_EQ(nodes_before, events.size());
  }
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();  // restores + replays (window is empty after drain)
    EXPECT_TRUE(daemon.restored_from_checkpoint());
    EXPECT_GT(daemon.restored_epoch(), 0u);
    ASSERT_TRUE(daemon.pipeline().drain());
    EXPECT_EQ(graph.store().node_count(), nodes_before);
    EXPECT_EQ(graph.store().edge_count(), edges_before);
    daemon.stop();
  }
}

// PR 10: a sparse-mode daemon checkpoints a HORUSVC2 clock record; a
// restarted incarnation (even one whose own default is flat) adopts the
// sparse table and keeps serving identical clocks.
TEST(ServiceCheckpointTest, SparseModeRestartRestoresSparseClocks) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  const auto events = workload();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    auto options = fast_service_options(data_dir);
    options.clock_mode = ClockMode::kSparse;
    service::HorusService daemon(broker, graph, options);
    daemon.start();
    for (const Event& e : events) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.clock_daemon().tick();
    daemon.clock_daemon().with_clocks([](const ClockTable& clocks) {
      EXPECT_EQ(clocks.mode(), ClockMode::kSparse);
    });
    daemon.stop();  // final checkpoint carries the sparse record
  }
  {
    ExecutionGraph graph;
    // Default (flat) options: the restored table's own mode must win.
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    EXPECT_TRUE(daemon.restored_from_checkpoint());
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.clock_daemon().tick();

    const auto reference = reference_run(events);
    daemon.clock_daemon().with_clocks([&](const ClockTable& clocks) {
      EXPECT_EQ(clocks.mode(), ClockMode::kSparse);
      for (const Event& e : events) {
        const auto v = graph.node_of(e.id);
        const auto r = reference->node_of(e.id);
        ASSERT_TRUE(v.has_value() && r.has_value());
        EXPECT_EQ(clocks.lamport(*v), reference->clocks().lamport(*r));
      }
    });
    daemon.stop();
  }
}

// PR 10 satellite: a clock record from a future format version must fail
// the restore with the *typed* ClockFormatError ("upgrade the binary"),
// not a generic corruption error.
TEST(ServiceCheckpointTest, FutureClockFormatVersionFailsTyped) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    auto options = fast_service_options(data_dir);
    options.clock_mode = ClockMode::kSparse;
    service::HorusService daemon(broker, graph, options);
    daemon.start();
    for (const Event& e : workload(200)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Bump the record's version digit ("HORUSVC2" -> "HORUSVC9"). The magic
  // prefix stays valid, so only the version dispatch can reject it.
  const auto info = service::CheckpointStore(
                        service::CheckpointOptions{data_dir + "/checkpoints"})
                        .latest();
  ASSERT_TRUE(info.has_value());
  const std::string clocks_path = info->path + "/clocks.bin";
  std::string content;
  {
    std::ifstream in(clocks_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = std::move(buf).str();
  }
  ASSERT_GT(content.size(), 8u);
  ASSERT_EQ(content[7], '2');
  content[7] = '9';
  {
    std::ofstream out(clocks_path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  try {
    daemon.start();
    FAIL() << "future clock format accepted";
  } catch (const ClockFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ServiceCheckpointTest, RestoreRequiresAnEmptyGraph) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  {
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(100)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Same (non-empty) graph, same data_dir with a published checkpoint.
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), std::logic_error);
}

TEST(ServiceCheckpointTest, TruncatedGraphSnapshotFailsTyped) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(200)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  // Mangle the published epoch's graph snapshot the way a torn write
  // would: cut it mid-file (the v3 trailer requirement catches even a cut
  // exactly at the trailer boundary).
  const auto info = service::CheckpointStore(
                        service::CheckpointOptions{data_dir + "/checkpoints"})
                        .latest();
  ASSERT_TRUE(info.has_value());
  const std::string snapshot = info->path + "/graph.hgraph";
  std::string content;
  {
    std::ifstream in(snapshot, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    content = std::move(buf).str();
  }
  ASSERT_GT(content.size(), 100u);
  {
    std::ofstream out(snapshot, std::ios::binary | std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), HorusError);
}

// A restore trusts the checkpointed clocks of nodes in evicted segments
// without auditing their edges again, so the clock table must describe the
// same cut as the graph. Here the periodic tick never runs after start, yet
// the checkpoint carries clocks for every event, equal to a fresh run's.
TEST(ServiceCheckpointTest, CheckpointClocksDescribeTheGraphCut) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  const auto events = workload(200);
  queue::Broker broker;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.clock_interval_ms = 3'600'000;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph, options);
    daemon.start();
    for (const Event& e : events) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.checkpoint_now();
    daemon.kill();
  }
  const service::CheckpointStore store(
      service::CheckpointOptions{data_dir + "/checkpoints"});
  ExecutionGraph graph;
  const service::CheckpointStore::Restored restored =
      store.restore(graph, dir.file("wal"));
  const auto reference = reference_run(events);
  ASSERT_EQ(graph.event_count(), events.size());
  for (const Event& e : events) {
    const graph::NodeId v = *graph.node_of(e.id);
    ASSERT_TRUE(restored.clocks.assigned(v)) << "event " << value_of(e.id);
    EXPECT_EQ(restored.clocks.lamport(v),
              reference->clocks().lamport(*reference->node_of(e.id)))
        << "event " << value_of(e.id);
  }
}

TEST(ServiceCheckpointTest, CorruptManifestFailsTyped) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  {
    ExecutionGraph graph;
    service::HorusService daemon(broker, graph,
                                 fast_service_options(data_dir));
    daemon.start();
    for (const Event& e : workload(100)) daemon.publish(e);
    ASSERT_TRUE(daemon.pipeline().drain());
    daemon.stop();
  }
  {
    std::ofstream out(data_dir + "/checkpoints/MANIFEST.json",
                      std::ios::trunc);
    out << "{ not json";
  }
  ExecutionGraph graph;
  service::HorusService daemon(broker, graph, fast_service_options(data_dir));
  EXPECT_THROW(daemon.start(), HorusError);
}

TEST(ServiceCheckpointTest, EpochRetentionKeepsOnlyTheWindow) {
  const TestDir dir;
  const std::string data_dir = dir.str();
  queue::Broker broker;
  ExecutionGraph graph;
  service::ServiceOptions options = fast_service_options(data_dir);
  options.checkpoint_keep_epochs = 2;
  service::HorusService daemon(broker, graph, options);
  daemon.start();
  for (const Event& e : workload(100)) daemon.publish(e);
  ASSERT_TRUE(daemon.pipeline().drain());
  const std::uint64_t e1 = daemon.checkpoint_now();
  const std::uint64_t e2 = daemon.checkpoint_now();
  const std::uint64_t e3 = daemon.checkpoint_now();
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
  daemon.kill();  // no extra final checkpoint

  std::size_t epochs = 0;
  for (const auto& entry :
       fs::directory_iterator(data_dir + "/checkpoints")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) ++epochs;
  }
  EXPECT_EQ(epochs, 2u);
}

}  // namespace
}  // namespace horus
