#include "core/logical_clocks.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "common/crc32.h"
#include "common/error.h"

namespace horus {

namespace {

// Little-endian scalar framing for the clock-table record. Everything is
// serialized into one payload string first so the CRC and the length prefix
// cover the exact bytes on the wire.
void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_i32(std::string& buf, std::int32_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& buf, std::int64_t v) {
  put_u64(buf, static_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor over the loaded payload; short reads surface as
/// HorusError instead of UB.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    return static_cast<std::uint8_t>(*bytes(1));
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    const auto* p = bytes(4);
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    const auto* p = bytes(8);
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str(std::size_t len) {
    const char* p = bytes(len);
    return std::string(p, len);
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  const char* bytes(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw HorusError("clock table: truncated record (payload short read)");
    }
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// Record magics: "HORUSVC" + a version digit. V1 is the original flat-arena
// format (still written by flat tables and still loadable forever); V2 adds
// a storage-mode byte and the sparse lane payload.
constexpr char kClockMagicV1[8] = {'H', 'O', 'R', 'U', 'S', 'V', 'C', '1'};
constexpr char kClockMagicV2[8] = {'H', 'O', 'R', 'U', 'S', 'V', 'C', '2'};

}  // namespace

std::optional<ClockMode> parse_clock_mode(std::string_view text) {
  if (text == "flat") return ClockMode::kFlat;
  if (text == "sparse") return ClockMode::kSparse;
  return std::nullopt;
}

// ---- sparse storage primitives ---------------------------------------------

template <typename Fn>
void ClockTable::walk_sparse(std::int32_t t, std::int32_t pos, Fn&& fn) const {
  const SparseLane& lane = lanes_[static_cast<std::size_t>(t)];
  for (std::int32_t p = pos; p >= 1; --p) {
    const auto idx = static_cast<std::size_t>(p - 1);
    const std::uint8_t f = lane.flags[idx];
    if ((f & kOverflowFlag) != 0) {
      const auto it = overflow_.find(overflow_key(t, p));
      if (it != overflow_.end()) {
        for (const auto& [tl, val] : it->second) fn(tl, val);
      }
    } else {
      const std::uint32_t end = lane.rec_end[idx];
      const std::uint32_t begin = p > 1 ? lane.rec_end[idx - 1] : 0;
      for (std::uint32_t i = begin; i < end; ++i) {
        // Pad entries (repair shrank the record in place) sort after every
        // real timeline id, so the first one terminates the record.
        if (lane.entry_tl[i] == kPadTimeline) break;
        fn(lane.entry_tl[i], lane.entry_val[i]);
      }
    }
    if ((f & kKeyframeFlag) != 0) break;
  }
}

std::size_t ClockTable::reconstruct_dense(
    std::int32_t t, std::int32_t pos, std::vector<std::int32_t>& dense) const {
  dense.assign(timeline_names_.size(), 0);
  std::size_t len = 0;
  walk_sparse(t, pos, [&](std::int32_t tl, std::int32_t val) {
    const auto i = static_cast<std::size_t>(tl);
    if (i >= dense.size()) dense.resize(i + 1, 0);
    // Latest record first + every delta dominates its base: max over every
    // occurrence equals the current value (no first-found bookkeeping
    // needed).
    if (val > dense[i]) dense[i] = val;
    if (i + 1 > len) len = i + 1;
  });
  return len;
}

bool ClockTable::base_exceeds(std::int32_t t, std::int32_t pos,
                              std::span<const std::int32_t> vc) const {
  // A dense component is the max of its entries along the walk, so it
  // exceeds vc exactly when one of those entries does. Only the stored
  // entries are visited, not every timeline.
  bool above = false;
  walk_sparse(t, pos, [&](std::int32_t tl, std::int32_t val) {
    const auto i = static_cast<std::size_t>(tl);
    above |= val > (i < vc.size() ? vc[i] : 0);
  });
  return above;
}

bool ClockTable::build_sparse_record(std::span<const std::int32_t> vc,
                                     bool keyframe,
                                     const std::vector<std::int32_t>& tp,
                                     std::size_t tp_len,
                                     SparseRecord& record) const {
  record.clear();
  std::size_t nonzero = 0;
  if (!keyframe) {
    for (std::size_t c = 0; c < vc.size(); ++c) {
      if (vc[c] == 0) continue;
      ++nonzero;
      const std::int32_t base = c < tp_len ? tp[c] : 0;
      if (vc[c] != base) {
        record.emplace_back(static_cast<std::int32_t>(c), vc[c]);
      }
    }
    // A delta no smaller than the full sparse form buys nothing and
    // lengthens walks — promote to a keyframe.
    if (record.size() >= nonzero) keyframe = true;
  }
  if (keyframe) {
    record.clear();
    for (std::size_t c = 0; c < vc.size(); ++c) {
      if (vc[c] != 0) record.emplace_back(static_cast<std::int32_t>(c), vc[c]);
    }
  }
  return keyframe;
}

void ClockTable::append_sparse(std::int32_t t, std::int32_t pos,
                               std::span<const std::int32_t> vc,
                               std::vector<std::int32_t>& tp_scratch) {
  if (lanes_.size() <= static_cast<std::size_t>(t)) {
    lanes_.resize(static_cast<std::size_t>(t) + 1);
  }
  SparseLane& lane = lanes_[static_cast<std::size_t>(t)];
  // Kahn order respects the intra chain, so positions of one timeline are
  // always appended consecutively.
  if (static_cast<std::size_t>(pos) != lane.rec_end.size() + 1) {
    throw std::logic_error("clock table: out-of-order sparse lane append");
  }
  bool keyframe = pos == 1 || ((pos - 1) % keyframe_interval_) == 0 ||
                  base_exceeds(t, pos - 1, vc);
  std::size_t tp_len = 0;
  if (!keyframe) tp_len = reconstruct_dense(t, pos - 1, tp_scratch);
  static thread_local SparseRecord record;
  keyframe = build_sparse_record(vc, keyframe, tp_scratch, tp_len, record);
  if (lane.entry_tl.size() + record.size() >
      std::numeric_limits<std::uint32_t>::max()) {
    throw HorusError("clock table: sparse lane exceeds 32-bit addressing");
  }
  for (const auto& [tl, val] : record) {
    lane.entry_tl.push_back(tl);
    lane.entry_val.push_back(val);
  }
  lane.rec_end.push_back(static_cast<std::uint32_t>(lane.entry_tl.size()));
  lane.flags.push_back(keyframe ? kKeyframeFlag : std::uint8_t{0});
}

void ClockTable::rewrite_sparse(std::int32_t t, std::int32_t pos,
                                std::span<const std::int32_t> vc,
                                std::vector<std::int32_t>& tp_scratch) {
  SparseLane& lane = lanes_[static_cast<std::size_t>(t)];
  const auto idx = static_cast<std::size_t>(pos - 1);
  std::uint8_t f = lane.flags[idx];
  // Keyframes stay keyframes: descendants' reconstruction walks terminate
  // here and must keep seeing the full vector. Deltas may be promoted when
  // the repair grew them past the full sparse form, or their base exceeds
  // the new VC.
  bool keyframe = (f & kKeyframeFlag) != 0 ||
                  (pos > 1 && base_exceeds(t, pos - 1, vc));
  std::size_t tp_len = 0;
  if (!keyframe && pos > 1) tp_len = reconstruct_dense(t, pos - 1, tp_scratch);
  static thread_local SparseRecord record;
  keyframe = build_sparse_record(vc, keyframe, tp_scratch, tp_len, record);
  if ((f & kOverflowFlag) != 0) {
    overflow_[overflow_key(t, pos)] = record;
  } else {
    const std::uint32_t end = lane.rec_end[idx];
    const std::uint32_t begin = idx > 0 ? lane.rec_end[idx - 1] : 0;
    if (record.size() <= static_cast<std::size_t>(end - begin)) {
      std::uint32_t i = begin;
      for (const auto& [tl, val] : record) {
        lane.entry_tl[i] = tl;
        lane.entry_val[i] = val;
        ++i;
      }
      for (; i < end; ++i) {
        lane.entry_tl[i] = kPadTimeline;
        lane.entry_val[i] = 0;
      }
    } else {
      // Outgrew the lane window: spill the record to the overflow table
      // (the window is dead from here on). Repairs are rare, so overflow
      // stays tiny; reassign_all() rebuilds packed lanes.
      f |= kOverflowFlag;
      overflow_[overflow_key(t, pos)] = record;
    }
  }
  if (keyframe) f |= kKeyframeFlag;
  lane.flags[idx] = f;
}

bool ClockTable::is_delta(std::int32_t t, std::int32_t pos) const {
  const SparseLane& lane = lanes_[static_cast<std::size_t>(t)];
  return pos >= 1 && static_cast<std::size_t>(pos) <= lane.flags.size() &&
         (lane.flags[static_cast<std::size_t>(pos - 1)] & kKeyframeFlag) == 0;
}

// ---- lookups ----------------------------------------------------------------

std::span<const std::int32_t> ClockTable::vc_span(
    graph::NodeId node, std::vector<std::int32_t>& scratch) const {
  if (!assigned(node)) return {};
  if (mode_ == ClockMode::kFlat) {
    if (node >= vc_slots_.size()) return {};
    const VcSlot s = vc_slots_[node];
    return {vc_arena_.data() + s.offset, s.len};
  }
  const std::size_t len =
      reconstruct_dense(timeline_of_[node], position_[node], scratch);
  return {scratch.data(), len};
}

std::int32_t ClockTable::vc_component(graph::NodeId node,
                                      std::int32_t timeline) const {
  if (!assigned(node) || timeline < 0) return 0;
  if (mode_ == ClockMode::kFlat) {
    if (node >= vc_slots_.size()) return 0;
    const VcSlot s = vc_slots_[node];
    return static_cast<std::uint32_t>(timeline) < s.len
               ? vc_arena_[s.offset + static_cast<std::uint32_t>(timeline)]
               : 0;
  }
  // Own-timeline component is the position by construction — answered
  // without touching the lanes (the common case in Q1's position test when
  // both events share a timeline).
  const std::int32_t t = timeline_of_[node];
  if (timeline == t) return position_[node];
  // Walk the delta chain latest record first: the nearest occurrence of the
  // component is its current value; a keyframe proves absence means zero.
  const SparseLane& lane = lanes_[static_cast<std::size_t>(t)];
  for (std::int32_t p = position_[node]; p >= 1; --p) {
    const auto idx = static_cast<std::size_t>(p - 1);
    const std::uint8_t f = lane.flags[idx];
    if ((f & kOverflowFlag) != 0) {
      const auto it = overflow_.find(overflow_key(t, p));
      if (it != overflow_.end()) {
        const auto& rec = it->second;
        const auto lo = std::lower_bound(
            rec.begin(), rec.end(), timeline,
            [](const auto& e, std::int32_t tl) { return e.first < tl; });
        if (lo != rec.end() && lo->first == timeline) return lo->second;
      }
    } else {
      const std::uint32_t end = lane.rec_end[idx];
      const std::uint32_t begin = p > 1 ? lane.rec_end[idx - 1] : 0;
      const std::int32_t* base = lane.entry_tl.data();
      const std::int32_t* lo =
          std::lower_bound(base + begin, base + end, timeline);
      if (lo != base + end && *lo == timeline) {
        return lane.entry_val[static_cast<std::size_t>(lo - base)];
      }
    }
    if ((f & kKeyframeFlag) != 0) break;
  }
  return 0;
}

std::size_t ClockTable::clock_bytes() const noexcept {
  if (mode_ == ClockMode::kFlat) {
    return vc_arena_.size() * sizeof(std::int32_t) +
           vc_slots_.size() * sizeof(VcSlot);
  }
  std::size_t bytes = 0;
  for (const SparseLane& lane : lanes_) {
    bytes += (lane.entry_tl.size() + lane.entry_val.size()) *
                 sizeof(std::int32_t) +
             lane.rec_end.size() * sizeof(std::uint32_t) +
             lane.flags.size() * sizeof(std::uint8_t);
  }
  for (const auto& [key, rec] : overflow_) {
    (void)key;
    bytes += sizeof(std::uint64_t) + rec.size() * 2 * sizeof(std::int32_t);
  }
  return bytes;
}

bool ClockTable::happens_before(graph::NodeId a, graph::NodeId b) const {
  if (a == b) return false;
  if (!assigned(a) || !assigned(b)) return false;
  return vc_component(b, timeline_of_[a]) >= position_[a];
}

bool ClockTable::vc_less(graph::NodeId a, graph::NodeId b) const {
  if (!assigned(a) || !assigned(b)) return false;
  // Flat spans view the arena; sparse spans reconstruct into the scratches.
  static thread_local std::vector<std::int32_t> scratch_a;
  static thread_local std::vector<std::int32_t> scratch_b;
  const auto va = vc_span(a, scratch_a);
  const auto vb = vc_span(b, scratch_b);
  const std::size_t n = std::max(va.size(), vb.size());
  bool strictly = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t x = i < va.size() ? va[i] : 0;
    const std::int32_t y = i < vb.size() ? vb[i] : 0;
    if (x > y) return false;
    if (x < y) strictly = true;
  }
  return strictly;
}

std::string ClockTable::vc_string(graph::NodeId node) const {
  std::string out = "[";
  std::vector<std::int32_t> scratch;
  const auto v = vc_span(node, scratch);
  for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(i < v.size() ? v[i] : 0);
  }
  out += ']';
  return out;
}

// ---- serialization ----------------------------------------------------------

void ClockTable::save(std::ostream& out) const {
  std::string payload;
  const std::uint64_t n = lamport_.size();
  if (mode_ == ClockMode::kFlat) {
    // Byte-identical to the original HORUSVC1 writer: flat checkpoints stay
    // readable by (and from) earlier builds.
    payload.reserve(64 + n * 24 + vc_arena_.size() * 4);
    put_u64(payload, n);
    for (const std::int64_t lc : lamport_) put_i64(payload, lc);
    put_u64(payload, vc_arena_.size());
    for (const std::int32_t c : vc_arena_) put_i32(payload, c);
    for (const VcSlot& s : vc_slots_) {
      put_u32(payload, s.offset);
      put_u32(payload, s.len);
    }
    for (const std::int32_t t : timeline_of_) put_i32(payload, t);
    for (const std::int32_t p : position_) put_i32(payload, p);
    put_u64(payload, timeline_names_.size());
    for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
      put_u32(payload, static_cast<std::uint32_t>(timeline_names_[i].size()));
      payload += timeline_names_[i];
      put_i32(payload, timeline_sizes_[i]);
    }
  } else {
    payload.reserve(64 + n * 16);
    payload.push_back(static_cast<char>(ClockMode::kSparse));
    put_i32(payload, keyframe_interval_);
    put_u64(payload, n);
    for (const std::int64_t lc : lamport_) put_i64(payload, lc);
    for (const std::int32_t t : timeline_of_) put_i32(payload, t);
    for (const std::int32_t p : position_) put_i32(payload, p);
    put_u64(payload, timeline_names_.size());
    for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
      put_u32(payload, static_cast<std::uint32_t>(timeline_names_[i].size()));
      payload += timeline_names_[i];
      put_i32(payload, timeline_sizes_[i]);
    }
    static const SparseLane kEmptyLane;
    for (std::size_t i = 0; i < timeline_names_.size(); ++i) {
      const SparseLane& lane = i < lanes_.size() ? lanes_[i] : kEmptyLane;
      put_u64(payload, lane.rec_end.size());
      for (const std::uint32_t e : lane.rec_end) put_u32(payload, e);
      for (const std::uint8_t f : lane.flags) {
        payload.push_back(static_cast<char>(f));
      }
      put_u64(payload, lane.entry_tl.size());
      for (const std::int32_t tl : lane.entry_tl) put_i32(payload, tl);
      for (const std::int32_t val : lane.entry_val) put_i32(payload, val);
    }
    put_u64(payload, overflow_.size());
    for (const auto& [key, rec] : overflow_) {
      put_u64(payload, key);
      put_u32(payload, static_cast<std::uint32_t>(rec.size()));
      for (const auto& [tl, val] : rec) {
        put_i32(payload, tl);
        put_i32(payload, val);
      }
    }
  }

  const std::uint32_t crc = crc32(payload);
  std::string frame;
  frame.reserve(sizeof(kClockMagicV1) + 8 + payload.size() + 4);
  if (mode_ == ClockMode::kFlat) {
    frame.append(kClockMagicV1, sizeof(kClockMagicV1));
  } else {
    frame.append(kClockMagicV2, sizeof(kClockMagicV2));
  }
  put_u64(frame, payload.size());
  frame += payload;
  put_u32(frame, crc);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!out) throw HorusError("clock table: write failed");
}

namespace {

/// Shared tail of both versions: length prefix, payload, CRC trailer,
/// single-record check.
std::string read_clock_payload(std::istream& in) {
  char len_bytes[8];
  if (!in.read(len_bytes, sizeof(len_bytes))) {
    throw HorusError("clock table: truncated record (missing length)");
  }
  std::uint64_t payload_len = 0;
  for (int i = 0; i < 8; ++i) {
    payload_len |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(len_bytes[i]))
        << (8 * i);
  }
  // An absurd length means a corrupt length field; refuse before allocating.
  if (payload_len > (1ULL << 36)) {
    throw HorusError("clock table: implausible payload length (corrupt)");
  }
  std::string payload(payload_len, '\0');
  if (!in.read(payload.data(), static_cast<std::streamsize>(payload_len))) {
    throw HorusError("clock table: truncated record (payload short read)");
  }
  char crc_bytes[4];
  if (!in.read(crc_bytes, sizeof(crc_bytes))) {
    throw HorusError("clock table: truncated record (missing CRC trailer)");
  }
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |=
        static_cast<std::uint32_t>(static_cast<unsigned char>(crc_bytes[i]))
        << (8 * i);
  }
  if (crc32(payload) != stored_crc) {
    throw HorusError("clock table: CRC mismatch (corrupt record)");
  }
  // A clocks.bin holds exactly one record; bytes after the CRC trailer mean
  // the file was mangled (e.g. two writes interleaved), not a longer table.
  if (in.peek() != std::istream::traits_type::eof()) {
    throw HorusError("clock table: data after the CRC trailer (corrupt)");
  }
  return payload;
}

}  // namespace

ClockTable ClockTable::load(std::istream& in) {
  char magic[sizeof(kClockMagicV1)];
  if (!in.read(magic, sizeof(magic)) ||
      !std::equal(magic, magic + sizeof(magic) - 1, kClockMagicV1)) {
    throw HorusError("clock table: bad magic (not a clock-table record)");
  }
  const char version = magic[sizeof(magic) - 1];
  if (version != '1' && version != '2') {
    // Structurally a clock record, just from a newer (or corrupted-version)
    // format — the typed error lets restore paths say "upgrade the binary"
    // instead of "corrupt checkpoint".
    throw ClockFormatError(std::string("clock table: record version '") +
                           version + "' not supported by this binary");
  }
  const std::string payload = read_clock_payload(in);
  Cursor cur(payload);
  ClockTable table;

  if (version == '2') {
    const std::uint8_t mode = cur.u8();
    if (mode != static_cast<std::uint8_t>(ClockMode::kSparse)) {
      throw ClockFormatError(
          "clock table: storage mode " + std::to_string(int(mode)) +
          " not supported by this binary");
    }
    table.mode_ = ClockMode::kSparse;
    table.keyframe_interval_ = cur.i32();
    if (table.keyframe_interval_ < 1) {
      throw HorusError("clock table: invalid keyframe interval (corrupt)");
    }
  }

  const std::uint64_t n = cur.u64();
  table.lamport_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.lamport_.push_back(cur.i64());

  if (version == '1') {
    const std::uint64_t arena = cur.u64();
    table.vc_arena_.reserve(arena);
    for (std::uint64_t i = 0; i < arena; ++i) {
      table.vc_arena_.push_back(cur.i32());
    }
    table.vc_slots_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      VcSlot s;
      s.offset = cur.u32();
      s.len = cur.u32();
      if (static_cast<std::uint64_t>(s.offset) + s.len > arena) {
        throw HorusError("clock table: VC slot outside arena (corrupt record)");
      }
      table.vc_slots_.push_back(s);
    }
  }

  table.timeline_of_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.timeline_of_.push_back(cur.i32());
  table.position_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) table.position_.push_back(cur.i32());
  const std::uint64_t timelines = cur.u64();
  for (std::uint64_t i = 0; i < timelines; ++i) {
    const std::uint32_t name_len = cur.u32();
    std::string name = cur.str(name_len);
    table.timeline_ids_.try_emplace(name, static_cast<std::int32_t>(i));
    table.timeline_names_.push_back(std::move(name));
    table.timeline_sizes_.push_back(cur.i32());
  }

  if (version == '2') {
    table.lanes_.resize(timelines);
    for (std::uint64_t i = 0; i < timelines; ++i) {
      SparseLane& lane = table.lanes_[i];
      const std::uint64_t positions = cur.u64();
      if (positions !=
          static_cast<std::uint64_t>(std::max<std::int32_t>(
              0, table.timeline_sizes_[static_cast<std::size_t>(i)]))) {
        throw HorusError(
            "clock table: lane size disagrees with timeline size (corrupt)");
      }
      lane.rec_end.reserve(positions);
      std::uint32_t prev = 0;
      for (std::uint64_t p = 0; p < positions; ++p) {
        const std::uint32_t e = cur.u32();
        if (e < prev) {
          throw HorusError(
              "clock table: non-monotone lane record offsets (corrupt)");
        }
        prev = e;
        lane.rec_end.push_back(e);
      }
      lane.flags.reserve(positions);
      for (std::uint64_t p = 0; p < positions; ++p) {
        lane.flags.push_back(cur.u8());
      }
      const std::uint64_t entries = cur.u64();
      if (!lane.rec_end.empty() && lane.rec_end.back() != entries) {
        throw HorusError(
            "clock table: lane entry count disagrees with offsets (corrupt)");
      }
      lane.entry_tl.reserve(entries);
      for (std::uint64_t e = 0; e < entries; ++e) {
        lane.entry_tl.push_back(cur.i32());
      }
      lane.entry_val.reserve(entries);
      for (std::uint64_t e = 0; e < entries; ++e) {
        lane.entry_val.push_back(cur.i32());
      }
    }
    const std::uint64_t overflow = cur.u64();
    for (std::uint64_t i = 0; i < overflow; ++i) {
      const std::uint64_t key = cur.u64();
      const std::uint32_t count = cur.u32();
      SparseRecord rec;
      rec.reserve(count);
      for (std::uint32_t e = 0; e < count; ++e) {
        const std::int32_t tl = cur.i32();
        const std::int32_t val = cur.i32();
        rec.emplace_back(tl, val);
      }
      table.overflow_.emplace(key, std::move(rec));
    }
  }

  if (!cur.done()) {
    throw HorusError("clock table: trailing bytes after record (corrupt)");
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::int32_t t = table.timeline_of_[v];
    if (t >= static_cast<std::int32_t>(timelines)) {
      throw HorusError("clock table: timeline id out of range (corrupt)");
    }
    if (version == '2' && table.lamport_[v] != 0) {
      if (t < 0) {
        throw HorusError("clock table: assigned node without timeline");
      }
      const std::int32_t pos = table.position_[v];
      if (pos < 1 ||
          static_cast<std::size_t>(pos) >
              table.lanes_[static_cast<std::size_t>(t)].rec_end.size()) {
        throw HorusError(
            "clock table: node position outside its lane (corrupt)");
      }
    }
  }
  return table;
}

// ---- assigner ---------------------------------------------------------------

namespace {

/// Successor lists of the edges a Kahn pass counted into its in-degrees, in
/// CSR form over the pass's dense node indexes. Releasing successors from
/// these lists (not from the live adjacency) decrements exactly the counted
/// edges, however many edges writers add while the pass runs.
class SuccessorLists {
 public:
  SuccessorLists(std::size_t nodes,
                 const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                     edges)  // (pred, succ)
      : begin_(nodes + 1, 0), succ_(edges.size()) {
    for (const auto& [pred, succ] : edges) ++begin_[pred + 1];
    for (std::size_t i = 1; i <= nodes; ++i) begin_[i] += begin_[i - 1];
    std::vector<std::uint32_t> cursor(begin_.begin(), begin_.end() - 1);
    for (const auto& [pred, succ] : edges) succ_[cursor[pred]++] = succ;
  }

  [[nodiscard]] std::span<const std::uint32_t> of(std::uint32_t node) const {
    return {succ_.data() + begin_[node], begin_[node + 1] - begin_[node]};
  }

 private:
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> succ_;
};

}  // namespace

LogicalClockAssigner::LogicalClockAssigner(ExecutionGraph& graph,
                                           Options options)
    : graph_(graph),
      options_(options),
      table_(options.mode, options.keyframe_interval) {}

std::int32_t LogicalClockAssigner::timeline_for_pool(std::uint32_t pool_id) {
  if (pool_id < timeline_of_pool_.size() &&
      timeline_of_pool_[pool_id] >= 0) {
    return timeline_of_pool_[pool_id];
  }
  const std::string name =
      graph_.store().interned_name(graph_.keys().timeline, pool_id);
  auto [tit, inserted] = table_.timeline_ids_.try_emplace(
      name, static_cast<std::int32_t>(table_.timeline_names_.size()));
  if (inserted) {
    table_.timeline_names_.push_back(name);
    table_.timeline_sizes_.push_back(0);
  }
  if (timeline_of_pool_.size() <= pool_id) {
    timeline_of_pool_.resize(pool_id + 1, -1);
  }
  timeline_of_pool_[pool_id] = tit->second;
  return tit->second;
}

void LogicalClockAssigner::merge_pred_vc(
    graph::NodeId pred, std::vector<std::int32_t>& acc) const {
  if (table_.mode_ == ClockMode::kFlat) {
    const ClockTable::VcSlot s = table_.vc_slots_[pred];
    const std::int32_t* pv = table_.vc_arena_.data() + s.offset;
    if (s.len > acc.size()) acc.resize(s.len, 0);
    std::int32_t* out = acc.data();
    for (std::uint32_t i = 0; i < s.len; ++i) out[i] = std::max(out[i], pv[i]);
    return;
  }
  table_.walk_sparse(
      table_.timeline_of_[pred], table_.position_[pred],
      [&](std::int32_t tl, std::int32_t val) {
        const auto i = static_cast<std::size_t>(tl);
        if (i >= acc.size()) acc.resize(i + 1, 0);
        if (val > acc[i]) acc[i] = val;
      });
}

void LogicalClockAssigner::store_new_vc(graph::NodeId v, std::int32_t t,
                                        std::int32_t pos,
                                        const std::vector<std::int32_t>& vc,
                                        std::vector<std::int32_t>& tp_scratch) {
  if (table_.mode_ == ClockMode::kSparse) {
    table_.append_sparse(t, pos, {vc.data(), vc.size()}, tp_scratch);
    return;
  }
  // Slot offsets are 32-bit; a flat arena past 2^32 elements would silently
  // wrap them into aliased clocks. At the timeline counts where that
  // happens the sparse backend is the answer anyway.
  if (table_.vc_arena_.size() + vc.size() >
      std::numeric_limits<std::uint32_t>::max()) {
    throw HorusError(
        "clock table: flat VC arena exceeds 32-bit slot addressing "
        "(switch to the sparse clock mode)");
  }
  table_.vc_slots_[v] = {static_cast<std::uint32_t>(table_.vc_arena_.size()),
                         static_cast<std::uint32_t>(vc.size())};
  table_.vc_arena_.insert(table_.vc_arena_.end(), vc.begin(), vc.end());
}

std::size_t LogicalClockAssigner::assign() {
  const graph::GraphStore& store = graph_.store();
  const ExecutionGraphKeys& keys = graph_.keys();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  auto& lamport = table_.lamport_;
  auto& timeline_of = table_.timeline_of_;
  auto& position = table_.position_;

  if (lamport.size() < n) {
    lamport.resize(n, 0);
    if (table_.mode_ == ClockMode::kFlat) table_.vc_slots_.resize(n);
    timeline_of.resize(n, -1);
    position.resize(n, 0);
  }

  // Collect the unassigned region [first, n): each node's in-edge sources
  // and the in-region edges the Kahn pass below orders by. Every node below
  // `first` already holds its clocks. The pass works on this snapshot only:
  // an edge a concurrent writer adds meanwhile must not release a node
  // early (its counted predecessors would then be numbered after it), and
  // the clock daemon audits such edges on its next tick anyway.
  const graph::NodeId first = std::min(first_unassigned_, n);
  const std::size_t region = n - first;
  std::vector<std::int32_t> indegree(region, 0);
  std::vector<std::uint32_t> preds_begin(region + 1, 0);
  std::vector<graph::NodeId> preds;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counted;  // (pred, v)
  std::vector<graph::NodeId> frontier;
  std::size_t unassigned = 0;
  for (graph::NodeId v = first; v < n; ++v) {
    const std::uint32_t i = v - first;
    preds_begin[i] = static_cast<std::uint32_t>(preds.size());
    if (table_.assigned(v)) continue;
    ++unassigned;
    for (const graph::Edge& e : store.in_edges_snapshot(v)) {
      // in_edges store the source in .to; sources appended concurrently
      // (>= n) are ignored — the clock daemon checks their out-edges once
      // a later pass assigns them.
      if (e.to >= n) continue;
      preds.push_back(e.to);
      if (!table_.assigned(e.to)) {
        ++indegree[i];
        counted.emplace_back(e.to - first, i);
      }
    }
    if (indegree[i] == 0) frontier.push_back(v);
  }
  preds_begin[region] = static_cast<std::uint32_t>(preds.size());
  if (unassigned == 0) {
    first_unassigned_ = std::max(first_unassigned_, n);
    return 0;
  }
  const SuccessorLists successors(region, counted);

  std::size_t processed = 0;
  std::vector<std::int32_t> v_clock;     // scratch, reused across nodes
  std::vector<std::int32_t> tp_scratch;  // sparse delta base, reused
  while (!frontier.empty()) {
    const graph::NodeId v = frontier.back();
    frontier.pop_back();
    ++processed;
    const std::uint32_t i = v - first;

    // Timeline identity: an integer read from the interned timeline column —
    // no string materialisation per node.
    const std::uint32_t pool_id = store.interned_id(v, keys.timeline);
    if (pool_id == graph::InternedColumnView::kAbsent) {
      throw std::logic_error("clock assigner: node without timeline property");
    }
    const std::int32_t t = timeline_for_pool(pool_id);

    // Lamport clock: 1 + max over predecessors.
    std::int64_t lc = 1;
    // Vector clock: component-wise max over predecessors, then tick own
    // component to this event's position in its timeline.
    v_clock.clear();
    for (std::uint32_t k = preds_begin[i]; k < preds_begin[i + 1]; ++k) {
      const graph::NodeId pred = preds[k];
      lc = std::max(lc, lamport[pred] + 1);
      merge_pred_vc(pred, v_clock);
    }
    const std::int32_t pos = ++table_.timeline_sizes_[static_cast<std::size_t>(t)];
    if (static_cast<std::size_t>(t) >= v_clock.size()) {
      v_clock.resize(static_cast<std::size_t>(t) + 1, 0);
    }
    v_clock[static_cast<std::size_t>(t)] = pos;

    lamport[v] = lc;
    timeline_of[v] = t;
    position[v] = pos;
    // Store the clock (flat: append to the arena — predecessors' spans were
    // fully consumed above, so the potential reallocation is safe; sparse:
    // append the delta/keyframe record to the timeline's lane).
    store_new_vc(v, t, pos, v_clock, tp_scratch);

    if (options_.write_lamport_property) {
      graph_.store().set_property(v, keys.lamport, lc);
    }

    for (const std::uint32_t next : successors.of(i)) {
      if (--indegree[next] == 0) frontier.push_back(first + next);
    }
  }

  if (processed != unassigned) {
    throw std::logic_error(
        "clock assigner: cycle detected in causal graph (" +
        std::to_string(unassigned - processed) + " nodes unreachable)");
  }
  first_unassigned_ = n;
  return processed;
}

std::size_t LogicalClockAssigner::reassign_all() {
  table_ = ClockTable{options_.mode, options_.keyframe_interval};
  timeline_of_pool_.clear();  // table timeline ids were dropped with the table
  first_unassigned_ = 0;
  return assign();
}

LogicalClockAssigner::RepairResult LogicalClockAssigner::repair(
    std::span<const graph::NodeId> dirty_roots) {
  const graph::GraphStore& store = graph_.store();
  const ExecutionGraphKeys& keys = graph_.keys();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  // Forward closure of the roots over assigned nodes. Unassigned successors
  // are left to the next assign() pass, which reads the repaired
  // predecessors anyway. The closure follows every out-edge, including the
  // intra chain; sparse lane successors are re-encoded below.
  std::unordered_map<graph::NodeId, std::uint32_t> index;  // dense per node
  std::vector<graph::NodeId> dirty;
  std::vector<graph::NodeId> stack;
  const auto mark_dirty = [&](graph::NodeId v) {
    if (index.try_emplace(v, static_cast<std::uint32_t>(dirty.size())).second) {
      dirty.push_back(v);
      stack.push_back(v);
    }
  };
  for (const graph::NodeId r : dirty_roots) {
    if (r < n && table_.assigned(r)) mark_dirty(r);
  }
  while (!stack.empty()) {
    const graph::NodeId v = stack.back();
    stack.pop_back();
    for (const graph::Edge& e : store.out_edges_snapshot(v)) {
      if (e.to < n && table_.assigned(e.to)) mark_dirty(e.to);
    }
  }
  if (dirty.empty()) return {};

  // Kahn over the dirty subgraph: in-degrees count dirty predecessors only;
  // clean predecessors already hold their final clocks. As in assign(),
  // only the counted edges release successors, and the recomputation reads
  // the predecessors listed here; an edge added later is audited by the
  // next tick.
  std::vector<std::int32_t> indegree(dirty.size(), 0);
  std::vector<std::uint32_t> preds_begin(dirty.size() + 1, 0);
  std::vector<graph::NodeId> preds;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counted;  // (pred, v)
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t i = 0; i < dirty.size(); ++i) {
    preds_begin[i] = static_cast<std::uint32_t>(preds.size());
    for (const graph::Edge& e : store.in_edges_snapshot(dirty[i])) {
      if (e.to >= n || !table_.assigned(e.to)) continue;
      preds.push_back(e.to);
      if (const auto it = index.find(e.to); it != index.end()) {
        ++indegree[i];
        counted.emplace_back(it->second, i);
      }
    }
    if (indegree[i] == 0) frontier.push_back(i);
  }
  preds_begin[dirty.size()] = static_cast<std::uint32_t>(preds.size());
  const SuccessorLists successors(dirty.size(), counted);

  // Sparse lanes: a raised record is the delta base of the next record in
  // its lane, and that lane successor need not be a graph successor. Before
  // each rewrite the successor is re-encoded over the new base, so its
  // reconstruction, and that of every record below it, stays what it was
  // until the pass recomputes it (if it ever does).
  const bool sparse = table_.mode_ == ClockMode::kSparse;

  RepairResult result;
  std::vector<graph::NodeId>& processed = result.recomputed;
  processed.reserve(dirty.size());
  std::vector<std::int32_t> v_clock;     // scratch, reused across nodes
  std::vector<std::int32_t> tp_scratch;  // sparse delta base, reused
  std::vector<std::int32_t> next_vc;     // sparse lane successor, reused
  while (!frontier.empty()) {
    const std::uint32_t i = frontier.back();
    frontier.pop_back();
    const graph::NodeId v = dirty[i];
    processed.push_back(v);

    // Same recurrences as assign(): the canonical values are unique, so
    // recomputing them over final predecessor clocks reproduces exactly what
    // a from-scratch pass would produce (HealsAfterLateEdge asserts this).
    std::int64_t lc = 1;
    v_clock.clear();
    for (std::uint32_t k = preds_begin[i]; k < preds_begin[i + 1]; ++k) {
      const graph::NodeId pred = preds[k];
      lc = std::max(lc, table_.lamport_[pred] + 1);
      merge_pred_vc(pred, v_clock);
    }
    const auto t = static_cast<std::size_t>(table_.timeline_of_[v]);
    if (t >= v_clock.size()) v_clock.resize(t + 1, 0);
    // The own component must exceed every predecessor's; otherwise a later
    // event of v's timeline is in v's past and no in-place value is right.
    if (v_clock[t] >= table_.position_[v]) result.positions_contradicted = true;
    v_clock[t] = table_.position_[v];

    if (lc != table_.lamport_[v]) {
      table_.lamport_[v] = lc;
      if (options_.write_lamport_property) {
        graph_.store().set_property(v, keys.lamport, lc);
      }
    }
    if (sparse) {
      // The lane successor's vector is read before v's record changes
      // under it, and re-encoded over v's new record right after.
      const auto ti = static_cast<std::int32_t>(t);
      const std::int32_t pos = table_.position_[v];
      const bool reencode_next = table_.is_delta(ti, pos + 1);
      std::size_t next_len = 0;
      if (reencode_next) {
        next_len = table_.reconstruct_dense(ti, pos + 1, next_vc);
      }
      table_.rewrite_sparse(ti, pos, {v_clock.data(), v_clock.size()},
                            tp_scratch);
      if (reencode_next) {
        table_.rewrite_sparse(ti, pos + 1, {next_vc.data(), next_len},
                              tp_scratch);
      }
    } else {
      // Overwrite the arena slot in place when the raised clock fits
      // (clearing any stale tail — absent components read as zero);
      // otherwise append a fresh slot and abandon the old one (reclaimed by
      // the next reassign_all).
      ClockTable::VcSlot& slot = table_.vc_slots_[v];
      if (v_clock.size() <= slot.len) {
        const auto base =
            table_.vc_arena_.begin() + static_cast<std::ptrdiff_t>(slot.offset);
        std::copy(v_clock.begin(), v_clock.end(), base);
        std::fill(base + static_cast<std::ptrdiff_t>(v_clock.size()),
                  base + static_cast<std::ptrdiff_t>(slot.len), 0);
      } else {
        if (table_.vc_arena_.size() + v_clock.size() >
            std::numeric_limits<std::uint32_t>::max()) {
          throw HorusError(
              "clock table: flat VC arena exceeds 32-bit slot addressing "
              "(switch to the sparse clock mode)");
        }
        slot = {static_cast<std::uint32_t>(table_.vc_arena_.size()),
                static_cast<std::uint32_t>(v_clock.size())};
        table_.vc_arena_.insert(table_.vc_arena_.end(), v_clock.begin(),
                                v_clock.end());
      }
    }

    for (const std::uint32_t next : successors.of(i)) {
      if (--indegree[next] == 0) frontier.push_back(next);
    }
  }

  if (processed.size() != dirty.size()) {
    throw std::logic_error(
        "clock assigner: cycle detected in repair region (" +
        std::to_string(dirty.size() - processed.size()) +
        " nodes unreachable)");
  }
  return result;
}

void LogicalClockAssigner::restore(ClockTable table) {
  table_ = std::move(table);
  // The restored table's timeline ids were minted against the pre-crash
  // store; the cache must be rebuilt lazily against the current interning.
  timeline_of_pool_.clear();
  first_unassigned_ = 0;
  while (table_.assigned(first_unassigned_)) ++first_unassigned_;
}

}  // namespace horus
