// Per-test scratch directory: <gtest TempDir>/<suite>.<test>[-<tag>]-<pid>,
// created empty on construction and removed with its contents on
// destruction. The suite, test name and pid keep suites that run side by
// side under `ctest -j`, and repeated runs, out of each other's files; the
// tag tells apart several directories of one test.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace horus {

class TestDir {
 public:
  explicit TestDir(std::string_view tag = {}) {
    std::string name = "horus";
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name = std::string(info->test_suite_name()) + "." + info->name();
    }
    if (!tag.empty()) name += "-" + std::string(tag);
    name += "-" + std::to_string(::getpid());
    // Parameterised suites and tests carry '/' in their names.
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }
  /// A path inside the directory.
  [[nodiscard]] std::string file(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace horus
