#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "adapters/file_source.h"
#include "adapters/logrus_adapter.h"
#include "test_dir.h"
#include "tracer/probe_record.h"

namespace horus {
namespace {

TEST(Rfc3339Test, ParsesUtc) {
  // 2021-01-01T00:00:00Z == 1609459200 s since epoch.
  EXPECT_EQ(parse_rfc3339_ns("2021-01-01T00:00:00Z"),
            1'609'459'200'000'000'000LL);
}

TEST(Rfc3339Test, ParsesFractionalSeconds) {
  EXPECT_EQ(parse_rfc3339_ns("2021-01-01T00:00:00.5Z"),
            1'609'459'200'500'000'000LL);
  EXPECT_EQ(parse_rfc3339_ns("2021-01-01T00:00:00.123456789Z"),
            1'609'459'200'123'456'789LL);
}

TEST(Rfc3339Test, ParsesOffsets) {
  // +02:00 means the wall time is two hours ahead of UTC.
  EXPECT_EQ(parse_rfc3339_ns("2021-01-01T02:00:00+02:00"),
            1'609'459'200'000'000'000LL);
  EXPECT_EQ(parse_rfc3339_ns("2020-12-31T22:30:00-01:30"),
            1'609'459'200'000'000'000LL);
}

TEST(Rfc3339Test, RejectsGarbage) {
  EXPECT_THROW(parse_rfc3339_ns("not a time"), JsonError);
  EXPECT_THROW(parse_rfc3339_ns("2021-01-01T00:00:00Zjunk"), JsonError);
  EXPECT_THROW(parse_rfc3339_ns("2021-01-01T00:00:00+xx:00"), JsonError);
}

TEST(LogrusAdapterTest, ParsesTypicalLine) {
  std::vector<Event> events;
  LogrusAdapter adapter(500, [&events](Event e) { events.push_back(e); });
  adapter.on_log_line(
      R"({"time":"2021-01-01T00:00:01Z","level":"info",)"
      R"("msg":"payment received","host":"node3","pid":42,)"
      R"("goroutine":7,"service":"payment-go"})");
  ASSERT_EQ(events.size(), 1u);
  const Event& e = events[0];
  EXPECT_EQ(value_of(e.id), 500u);
  EXPECT_EQ(e.type, EventType::kLog);
  EXPECT_EQ(e.thread, (ThreadRef{"node3", 42, 7}));
  EXPECT_EQ(e.service, "payment-go");
  EXPECT_EQ(e.timestamp, 1'609'459'201'000'000'000LL);
  ASSERT_NE(e.log(), nullptr);
  EXPECT_EQ(e.log()->message, "payment received");
  EXPECT_EQ(adapter.events_emitted(), 1u);
}

TEST(LogrusAdapterTest, AcceptsIntegerTimestampAndAliases) {
  std::vector<Event> events;
  LogrusAdapter adapter(0, [&events](Event e) { events.push_back(e); });
  adapter.on_log_line(
      R"({"ts":12345,"message":"m","hostname":"h","app":"svc"})");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].timestamp, 12345);
  EXPECT_EQ(events[0].thread.host, "h");
  EXPECT_EQ(events[0].thread.tid, 1);  // default goroutine
  EXPECT_EQ(events[0].service, "svc");
  EXPECT_EQ(events[0].log()->message, "m");
}

TEST(LogrusAdapterTest, ServiceFallsBackToHost) {
  std::vector<Event> events;
  LogrusAdapter adapter(0, [&events](Event e) { events.push_back(e); });
  adapter.on_log_line(R"({"ts":1,"msg":"m","host":"lonely"})");
  EXPECT_EQ(events.at(0).service, "lonely");
}

TEST(LogrusAdapterTest, RejectsIncompleteLines) {
  LogrusAdapter adapter(0, [](Event) {});
  EXPECT_THROW(adapter.on_log_line("{}"), JsonError);
  EXPECT_THROW(adapter.on_log_line(R"({"host":"h"})"), JsonError);  // no time
  EXPECT_THROW(adapter.on_log_line(R"({"ts":1,"msg":"m"})"), JsonError);
  EXPECT_THROW(adapter.on_log_line("not json at all"), JsonError);
}

class FileSourceTest : public ::testing::Test {
 protected:
  void append(const std::string& name, const std::string& text) {
    std::ofstream out(dir_.path() / name, std::ios::app | std::ios::binary);
    out << text;
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_.file(name);
  }

  static std::string log4j_line(const std::string& message, TimeNs ts) {
    sim::LogRecord record;
    record.thread = ThreadRef{"node1", 10, 1};
    record.timestamp = ts;
    record.service = "svc";
    record.message = message;
    return record.to_json_line() + "\n";
  }

  TestDir dir_;
};

TEST_F(FileSourceTest, ShipsAppendedLinesAcrossPolls) {
  std::vector<Event> events;
  FileTailSource source(0, [&events](Event e) { events.push_back(e); });
  source.add_file(path("app.log"), LogFormat::kLog4j);

  EXPECT_EQ(source.poll(), 0u);  // file does not exist yet

  append("app.log", log4j_line("first", 1));
  EXPECT_EQ(source.poll(), 1u);
  append("app.log", log4j_line("second", 2) + log4j_line("third", 3));
  EXPECT_EQ(source.poll(), 2u);
  EXPECT_EQ(source.poll(), 0u);  // nothing new

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].log()->message, "first");
  EXPECT_EQ(events[2].log()->message, "third");
  EXPECT_EQ(source.events_shipped(), 3u);
}

TEST_F(FileSourceTest, HandlesPartialLines) {
  std::vector<Event> events;
  FileTailSource source(0, [&events](Event e) { events.push_back(e); });
  source.add_file(path("app.log"), LogFormat::kLog4j);

  const std::string full = log4j_line("split across writes", 5);
  append("app.log", full.substr(0, 20));
  EXPECT_EQ(source.poll(), 0u);  // incomplete line buffered
  append("app.log", full.substr(20));
  EXPECT_EQ(source.poll(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].log()->message, "split across writes");
}

TEST_F(FileSourceTest, MixedFormatsAndMultipleFiles) {
  std::vector<Event> events;
  FileTailSource source(0, [&events](Event e) { events.push_back(e); });
  source.add_file(path("jvm.log"), LogFormat::kLog4j);
  source.add_file(path("go.log"), LogFormat::kLogrus);

  append("jvm.log", log4j_line("from java", 1));
  append("go.log",
         R"({"ts":2,"msg":"from go","host":"node2","service":"gosvc"})"
         "\n");
  EXPECT_EQ(source.poll(), 2u);
  ASSERT_EQ(events.size(), 2u);
  // Distinct id ranges for the two adapters.
  EXPECT_NE(value_of(events[0].id) >> 32, value_of(events[1].id) >> 32);
}

TEST_F(FileSourceTest, MalformedLinesAreSkippedNotFatal) {
  std::vector<Event> events;
  FileTailSource source(0, [&events](Event e) { events.push_back(e); });
  source.add_file(path("app.log"), LogFormat::kLog4j);
  append("app.log", "this is not json\n" + log4j_line("good", 1));
  EXPECT_EQ(source.poll(), 1u);
  EXPECT_EQ(source.parse_errors(), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].log()->message, "good");
}

TEST_F(FileSourceTest, OffsetsSurviveRestart) {
  std::vector<Event> events;
  std::string registry;
  {
    FileTailSource source(0, [&events](Event e) { events.push_back(e); });
    source.add_file(path("app.log"), LogFormat::kLog4j);
    append("app.log", log4j_line("before restart", 1));
    EXPECT_EQ(source.poll(), 1u);
    registry = source.save_offsets();
  }
  append("app.log", log4j_line("after restart", 2));
  FileTailSource restarted(100, [&events](Event e) { events.push_back(e); });
  restarted.add_file(path("app.log"), LogFormat::kLog4j);
  restarted.load_offsets(registry);
  EXPECT_EQ(restarted.poll(), 1u);  // only the new line
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].log()->message, "after restart");
}

TEST_F(FileSourceTest, TruncationRestartsFromZero) {
  std::vector<Event> events;
  FileTailSource source(0, [&events](Event e) { events.push_back(e); });
  source.add_file(path("app.log"), LogFormat::kLog4j);
  // Size-based truncation detection needs the rotated file to be shorter
  // (a rotation to same-or-larger size is indistinguishable without inode
  // tracking — a documented simplification vs. real Filebeat).
  append("app.log", log4j_line("an old line that is reasonably long", 1));
  EXPECT_EQ(source.poll(), 1u);
  std::filesystem::resize_file(path("app.log"), 0);  // rotation
  append("app.log", log4j_line("fresh", 2));
  EXPECT_EQ(source.poll(), 1u);
  EXPECT_EQ(events.back().log()->message, "fresh");
}

}  // namespace
}  // namespace horus
