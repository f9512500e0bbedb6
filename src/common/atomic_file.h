// One temp-file-and-rename writer for files Horus replaces whole: segment
// spills, the checkpoint manifest and the inter stage's pending-pair WAL.
//
// The content goes to `<path>.tmp`; only a stream that wrote, flushed and
// closed cleanly is renamed over `path`, so a failed write leaves the
// previous file in place, never a torn or empty one. Nothing is fsync'd:
// the rename is atomic against crashes of the process, not against power
// loss.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace horus {

/// Replaces `path` with what `write` puts into the stream. Throws HorusError
/// when the temp file cannot be opened, the stream fails, or the rename
/// fails; the temp file is removed and `path` keeps its previous content.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

}  // namespace horus
