#include "baselines/falcon_trace.h"

#include <gtest/gtest.h>

#include "baselines/falcon_solver.h"
#include "gen/synthetic.h"
#include "test_dir.h"

namespace horus::baselines {
namespace {

TEST(FalconTraceTest, RoundTripsSyntheticEvents) {
  gen::ClientServerOptions options;
  options.num_events = 100;
  const auto events = gen::client_server_events(options);
  const auto back = parse_falcon_trace(export_falcon_trace(events));
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].id, events[i].id);
    EXPECT_EQ(back[i].type, events[i].type);
    EXPECT_EQ(back[i].thread, events[i].thread);
    EXPECT_EQ(back[i].timestamp, events[i].timestamp);
    ASSERT_NE(back[i].net(), nullptr);
    EXPECT_EQ(*back[i].net(), *events[i].net());
  }
}

TEST(FalconTraceTest, RoundTripsAllPayloadKinds) {
  std::vector<Event> events;
  Event log;
  log.id = EventId{1};
  log.type = EventType::kLog;
  log.thread = ThreadRef{"h", 1, 1};
  log.service = "svc";
  log.timestamp = 10;
  log.payload = LogPayload{"a message", "x"};
  events.push_back(log);

  Event create = log;
  create.id = EventId{2};
  create.type = EventType::kCreate;
  create.payload = ThreadPayload{ThreadRef{"h", 1, 2}};
  events.push_back(create);

  Event fsync = log;
  fsync.id = EventId{3};
  fsync.type = EventType::kFsync;
  fsync.payload = FsyncPayload{"/db"};
  events.push_back(fsync);

  const auto back = parse_falcon_trace(export_falcon_trace(events));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].log()->message, "a message");
  EXPECT_EQ(back[1].child()->child, (ThreadRef{"h", 1, 2}));
  EXPECT_EQ(back[2].fsync()->path, "/db");
}

TEST(FalconTraceTest, FileRoundTrip) {
  const TestDir dir;
  const std::string path = dir.file("trace.jsonl");
  gen::ClientServerOptions options;
  options.num_events = 40;
  const auto events = gen::client_server_events(options);
  write_falcon_trace(events, path);
  const auto back = read_falcon_trace(path);
  EXPECT_EQ(back.size(), events.size());
}

TEST(FalconTraceTest, ExportedTraceDrivesTheSolver) {
  // The Figure 6 methodology end to end: export unordered events, re-import,
  // derive constraints, solve.
  gen::ClientServerOptions options;
  options.num_events = 120;
  const auto shuffled = gen::shuffled(gen::client_server_events(options), 4);
  const auto reimported = parse_falcon_trace(export_falcon_trace(shuffled));
  const auto constraints = gen::to_constraints(reimported);
  FalconSolver solver(static_cast<std::uint32_t>(reimported.size()));
  solver.add_constraints(constraints);
  const auto result = solver.solve();
  ASSERT_TRUE(result.satisfiable);
  for (const auto& c : constraints) {
    EXPECT_LT(result.clocks[c.before], result.clocks[c.after]);
  }
}

TEST(FalconTraceTest, RejectsMalformedTraces) {
  EXPECT_THROW(parse_falcon_trace("{\"id\":1}"), JsonError);
  EXPECT_THROW(parse_falcon_trace(
                   R"({"id":1,"type":"NOPE","thread":"1@h","pid":1,)"
                   R"("timestamp":0})"),
               JsonError);
  EXPECT_THROW(parse_falcon_trace(
                   R"({"id":1,"type":"LOG","thread":"no-at-sign","pid":1,)"
                   R"("timestamp":0})"),
               JsonError);
}

}  // namespace
}  // namespace horus::baselines
