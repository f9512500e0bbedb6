#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/atomic_file.h"
#include "common/diag.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/string_util.h"
#include "test_dir.h"

namespace horus {
namespace {

TEST(IdsTest, ThreadRefFormatting) {
  const ThreadRef t{"node1", 12, 3};
  EXPECT_EQ(t.to_string(), "node1/12.3");
}

TEST(IdsTest, ChannelReversal) {
  const ChannelId c{{"1.2.3.4", 80}, {"5.6.7.8", 9000}};
  EXPECT_EQ(c.reversed().src, c.dst);
  EXPECT_EQ(c.reversed().dst, c.src);
  EXPECT_EQ(c.reversed().reversed(), c);
  EXPECT_EQ(c.to_string(), "1.2.3.4:80->5.6.7.8:9000");
}

TEST(IdsTest, HashingDistinguishesMembers) {
  const ThreadRef a{"h", 1, 2};
  const ThreadRef b{"h", 2, 1};
  EXPECT_NE(std::hash<ThreadRef>{}(a), std::hash<ThreadRef>{}(b));
  const ChannelId c1{{"a", 1}, {"b", 2}};
  const ChannelId c2{{"b", 2}, {"a", 1}};
  EXPECT_NE(std::hash<ChannelId>{}(c1), std::hash<ChannelId>{}(c2));
}

TEST(SimClockTest, ObservedClockIsStrictlyMonotonic) {
  HostClock clock(0, /*drift_ppm=*/-500.0);
  TimeNs last = clock.observe(0);
  for (TimeNs t = 1; t < 1000; ++t) {
    const TimeNs now = clock.observe(t);
    EXPECT_GT(now, last);
    last = now;
  }
}

TEST(SimClockTest, OffsetAndDriftApply) {
  HostClock clock(1'000'000, /*drift_ppm=*/1000.0);  // +1ms, 0.1% fast
  EXPECT_EQ(clock.observe(0), 1'000'000);
  // After 1s true time: offset + 1s * 1.001 (within fp rounding).
  EXPECT_NEAR(static_cast<double>(clock.observe(1'000'000'000)),
              1'000'000.0 + 1'001'000'000.0, 2.0);
}

TEST(SimClockTest, DriverSkewsHostsIndependently) {
  ClockDriver driver;
  driver.add_host("a", 0, 0);
  driver.add_host("b", -5'000'000, 0);
  driver.advance(10'000'000);
  EXPECT_EQ(driver.observe("a"), 10'000'000);
  EXPECT_EQ(driver.observe("b"), 5'000'000);
  EXPECT_EQ(driver.now(), 10'000'000);
}

TEST(SimClockTest, UnknownHostGetsPerfectClock) {
  ClockDriver driver;
  driver.advance(42);
  EXPECT_EQ(driver.observe("implicit"), 42);
}

TEST(SimClockTest, FormatTime) {
  EXPECT_EQ(format_time_ns(1'500'000'000), "1.500000s");
  EXPECT_EQ(format_time_ns(-2'000'000), "-0.002000s");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  bool seen[3] = {false, false, false};
  for (int i = 0; i < 300; ++i) seen[rng.uniform(0, 2)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"x", "y"}, "--"), "x--y");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtilTest, Predicates) {
  EXPECT_TRUE(starts_with("horus", "hor"));
  EXPECT_FALSE(starts_with("ho", "hor"));
  EXPECT_TRUE(ends_with("horus", "rus"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abc", "xyz"));
}

TEST(StringUtilTest, TrimAndLower) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
}

TEST(DiagTest, CountsEveryLevelRegardlessOfFilter) {
  const DiagLevel saved = diag_level();
  set_diag_level(DiagLevel::kOff);  // silent: counters must still move
  reset_diag_counts();

  diag(DiagLevel::kDebug, "test", "d");
  diag(DiagLevel::kInfo, "test", "i");
  diag(DiagLevel::kWarn, "test", "w1");
  diag(DiagLevel::kWarn, "test", "w2");
  diag(DiagLevel::kError, "test", "e");

  EXPECT_EQ(diag_count(DiagLevel::kDebug), 1u);
  EXPECT_EQ(diag_count(DiagLevel::kInfo), 1u);
  EXPECT_EQ(diag_count(DiagLevel::kWarn), 2u);
  EXPECT_EQ(diag_count(DiagLevel::kError), 1u);

  reset_diag_counts();
  EXPECT_EQ(diag_count(DiagLevel::kDebug), 0u);
  EXPECT_EQ(diag_count(DiagLevel::kInfo), 0u);
  EXPECT_EQ(diag_count(DiagLevel::kWarn), 0u);
  EXPECT_EQ(diag_count(DiagLevel::kError), 0u);
  set_diag_level(saved);
}

TEST(DiagTest, OffIsNotAnEmissionLevel) {
  // kOff is a filter setting; emitting *at* kOff (or any out-of-range
  // value) clamps to kError instead of vanishing with a "?" level name —
  // the seed bug both skipped the count and printed an unknown level.
  const DiagLevel saved = diag_level();
  set_diag_level(DiagLevel::kOff);
  reset_diag_counts();

  diag(DiagLevel::kOff, "test", "clamped");
  EXPECT_EQ(diag_count(DiagLevel::kError), 1u);
  // Nothing is ever tallied under kOff itself.
  EXPECT_EQ(diag_count(DiagLevel::kOff), 0u);

  diag(static_cast<DiagLevel>(99), "test", "also clamped");
  EXPECT_EQ(diag_count(DiagLevel::kError), 2u);
  EXPECT_EQ(diag_count(static_cast<DiagLevel>(99)), 0u);

  reset_diag_counts();
  set_diag_level(saved);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(AtomicFileTest, ReplacesTheFileAndLeavesNoTemp) {
  const TestDir dir;
  const std::string path = dir.file("f");
  write_file_atomic(path, [](std::ostream& out) { out << "one"; });
  write_file_atomic(path, [](std::ostream& out) { out << "two"; });
  EXPECT_EQ(read_file(path), "two");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFileTest, FailuresKeepThePreviousFile) {
  const TestDir dir;
  const std::string path = dir.file("f");
  write_file_atomic(path, [](std::ostream& out) { out << "good"; });
  // The writer itself throws: its exception propagates unchanged.
  EXPECT_THROW(write_file_atomic(path,
                                 [](std::ostream& out) {
                                   out << "torn";
                                   throw std::runtime_error("writer");
                                 }),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "good");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The temp file cannot be created.
  EXPECT_THROW(write_file_atomic(dir.file("missing/f"),
                                 [](std::ostream& out) { out << "x"; }),
               HorusError);
  // The rename fails: the target is a non-empty directory.
  std::filesystem::create_directories(dir.file("d/sub"));
  EXPECT_THROW(write_file_atomic(dir.file("d"),
                                 [](std::ostream& out) { out << "x"; }),
               HorusError);
  EXPECT_TRUE(std::filesystem::is_directory(dir.file("d/sub")));
  EXPECT_FALSE(std::filesystem::exists(dir.file("d.tmp")));
}

}  // namespace
}  // namespace horus
