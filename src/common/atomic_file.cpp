#include "common/atomic_file.h"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/error.h"

namespace horus {

namespace fs = std::filesystem;

namespace {

void remove_quietly(const std::string& path) {
  std::error_code ignored;
  fs::remove(path, ignored);
}

[[noreturn]] void fail(const std::string& tmp, const std::string& what) {
  remove_quietly(tmp);
  throw HorusError(what);
}

}  // namespace

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(tmp, "cannot open " + tmp);
    try {
      write(out);
    } catch (...) {
      remove_quietly(tmp);
      throw;
    }
    out.close();  // flushes; a failed write, flush or close sets failbit
    if (!out) fail(tmp, "write failed for " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fail(tmp, "cannot rename " + tmp + " to " + path + ": " + ec.message());
  }
}

}  // namespace horus
