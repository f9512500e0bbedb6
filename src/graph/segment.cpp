#include "graph/segment.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace horus::graph {

namespace fs = std::filesystem;

namespace {

Json property_to_json(const PropertyValue& v) {
  if (const auto* b = std::get_if<bool>(&v)) return Json(*b);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return Json(*i);
  if (const auto* d = std::get_if<double>(&v)) return Json(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return Json(*s);
  return Json();
}

PropertyValue property_from_json(const Json& j) {
  if (j.is_bool()) return j.as_bool();
  if (j.is_int()) return j.as_int();
  if (j.is_double()) return j.as_double();
  if (j.is_string()) return j.as_string();
  return std::monostate{};
}

[[noreturn]] void corrupt(const std::string& what, std::size_t line,
                          const std::string& reason) {
  throw SegmentCorruptError("segment io: " + what + ": line " +
                            std::to_string(line) + ": " + reason);
}

/// Rough resident size of one node's evictable payload: the property bag
/// (entries + string storage) and both adjacency vectors. An estimate — the
/// budget bounds heap growth, it is not an allocator audit.
std::size_t record_payload_bytes(const PropertyList& bag,
                                 const std::vector<Edge>& out,
                                 const std::vector<Edge>& in) {
  std::size_t bytes = out.capacity() * sizeof(Edge) +
                      in.capacity() * sizeof(Edge) +
                      bag.capacity() * sizeof(PropertyList::value_type);
  for (const auto& [key, value] : bag) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      bytes += s->capacity();
    }
  }
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// segment file format
// ---------------------------------------------------------------------------

ParsedSegmentFile read_segment_stream(std::istream& in,
                                      const std::string& what) {
  // Phase 1: slurp every line, tracking a running CRC so the trailer can be
  // verified against exactly the bytes preceding it — *before* any parsing
  // commits state anywhere.
  std::vector<std::string> lines;
  std::vector<std::uint32_t> crc_before;  // CRC of everything before line i
  std::uint32_t crc = crc32_init();
  std::string line;
  while (std::getline(in, line)) {
    crc_before.push_back(crc);
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    lines.push_back(std::move(line));
  }
  while (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
    crc_before.pop_back();
  }
  if (lines.size() < 3) {
    throw SegmentCorruptError("segment io: " + what +
                              ": truncated segment file (" +
                              std::to_string(lines.size()) + " lines)");
  }

  const auto parse_line = [&](std::size_t i) -> Json {
    try {
      return Json::parse(lines[i]);
    } catch (const std::exception& e) {
      corrupt(what, i + 1, std::string("malformed JSON (") + e.what() + ")");
    }
  };

  // Trailer first: CRC gate everything else.
  const std::size_t trailer_idx = lines.size() - 1;
  const Json trailer = parse_line(trailer_idx);
  if (!trailer.is_object() || !trailer.contains("checksum")) {
    corrupt(what, trailer_idx + 1,
            "missing integrity trailer (file truncated?)");
  }
  try {
    const auto stored =
        static_cast<std::uint32_t>(trailer.at("checksum").as_int());
    const std::uint32_t actual = crc32_final(crc_before[trailer_idx]);
    if (stored != actual) {
      corrupt(what, trailer_idx + 1,
              "checksum mismatch: segment file is corrupt");
    }
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, trailer_idx + 1,
            std::string("bad integrity trailer (") + e.what() + ")");
  }

  ParsedSegmentFile out;
  const Json header = parse_line(0);
  try {
    if (header.get_or("format", std::string{}) != "horus-segment") {
      corrupt(what, 1, "not a horus-segment file");
    }
    const std::int64_t version = header.get_or("version", std::int64_t{0});
    if (version != 1) {
      corrupt(what, 1,
              "unsupported segment version " + std::to_string(version));
    }
    out.segment = static_cast<SegmentId>(header.at("segment").as_int());
    out.first = static_cast<NodeId>(header.at("first").as_int());
    const std::int64_t count = header.at("nodes").as_int();
    const std::int64_t edges = header.at("edges").as_int();
    if (count < 0 || edges < 0) corrupt(what, 1, "negative section count");
    out.count = static_cast<std::uint32_t>(count);
    out.edges = static_cast<std::size_t>(edges);
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, 1, std::string("bad header (") + e.what() + ")");
  }

  const Json tables = parse_line(1);
  try {
    for (const Json& name : tables.at("keys").as_array()) {
      out.keys.push_back(name.as_string());
    }
    for (const Json& name : tables.at("edge_types").as_array()) {
      out.edge_types.push_back(name.as_string());
    }
  } catch (const SegmentCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    corrupt(what, 2, std::string("bad key/type tables (") + e.what() + ")");
  }

  if (lines.size() != 2 + out.count + 1) {
    throw SegmentCorruptError(
        "segment io: " + what + ": header declares " +
        std::to_string(out.count) + " nodes, file has " +
        std::to_string(lines.size() - 3) + " node lines");
  }

  std::size_t edge_entries = 0;
  out.nodes.reserve(out.count);
  for (std::size_t i = 0; i < out.count; ++i) {
    const std::size_t line_idx = 2 + i;
    const Json j = parse_line(line_idx);
    ParsedSegmentNode node;
    try {
      node.id = static_cast<NodeId>(j.at("id").as_int());
      if (node.id != out.first + static_cast<NodeId>(i)) {
        corrupt(what, line_idx + 1, "node ids are not dense within segment");
      }
      node.label = j.at("label").as_string();
      for (const Json& entry : j.at("props").as_array()) {
        const auto& pair = entry.as_array();
        if (pair.size() != 2) {
          corrupt(what, line_idx + 1, "malformed property entry");
        }
        const auto idx = static_cast<std::size_t>(pair[0].as_int());
        if (idx >= out.keys.size()) {
          corrupt(what, line_idx + 1, "property key index out of range");
        }
        node.props.emplace_back(static_cast<PropKeyId>(idx),
                                property_from_json(pair[1]));
      }
      const auto read_adjacency =
          [&](const char* field,
              std::vector<std::pair<NodeId, std::uint32_t>>& dst) {
            for (const Json& entry : j.at(field).as_array()) {
              const auto& pair = entry.as_array();
              if (pair.size() != 2) {
                corrupt(what, line_idx + 1, "malformed edge entry");
              }
              const std::int64_t peer = pair[0].as_int();
              const auto type = static_cast<std::size_t>(pair[1].as_int());
              if (peer < 0 || type >= out.edge_types.size()) {
                corrupt(what, line_idx + 1, "edge endpoint/type out of range");
              }
              dst.emplace_back(static_cast<NodeId>(peer),
                               static_cast<std::uint32_t>(type));
            }
          };
      read_adjacency("out", node.out);
      read_adjacency("in", node.in);
    } catch (const SegmentCorruptError&) {
      throw;
    } catch (const std::exception& e) {
      corrupt(what, line_idx + 1,
              std::string("bad node record (") + e.what() + ")");
    }
    edge_entries += node.out.size();
    out.nodes.push_back(std::move(node));
  }
  if (edge_entries != out.edges) {
    throw SegmentCorruptError("segment io: " + what + ": header declares " +
                              std::to_string(out.edges) + " edges, file has " +
                              std::to_string(edge_entries));
  }
  return out;
}

ParsedSegmentFile read_segment_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw SegmentCorruptError("segment io: cannot open " + path);
  }
  return read_segment_stream(in, path);
}

// ---------------------------------------------------------------------------
// lifecycle
// ---------------------------------------------------------------------------

SegmentManager::SegmentManager(GraphStore& store, SegmentOptions options)
    : store_(store), options_(std::move(options)) {
  if (options_.nodes_per_segment == 0) options_.nodes_per_segment = 1;
  if (options_.shard_count == 0) options_.shard_count = 1;
  if (!options_.spill_dir.empty()) {
    fs::create_directories(options_.spill_dir);
  }

  obs::Registry& registry = obs::Registry::global();
  obs::Family<obs::Gauge>& states =
      registry.gauges("horus_graph_segments", "Graph segments by state");
  segments_sealed_gauge_ = &states.with({{"state", "sealed"}});
  segments_evicted_gauge_ = &states.with({{"state", "evicted"}});
  resident_bytes_gauge_ = &registry.gauge(
      "horus_graph_segment_resident_bytes",
      "Resident payload bytes (bags + adjacency) of sealed graph segments");
  seals_total_ = &registry.counter("horus_graph_segment_seals_total",
                                   "Segments sealed (size or epoch boundary)");
  evictions_total_ = &registry.counter(
      "horus_graph_segment_evictions_total", "Segments evicted to spill files");
  reloads_total_ = &registry.counter(
      "horus_graph_segment_reloads_total",
      "Evicted segments faulted back in on access");
  obs::Family<obs::Counter>& skips = registry.counters(
      "horus_graph_segment_prune_skips_total",
      "Whole segments skipped by VC-summary pruning, by query path");
  q1_skips_ = &skips.with({{"path", "q1"}});
  q2_skips_ = &skips.with({{"path", "q2"}});
  scan_skips_ = &skips.with({{"path", "scan"}});

  // Carve any pre-existing nodes into sealed full-size segments plus an
  // active tail (enable_segments on a loaded snapshot).
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  NodeId first = 0;
  while (options_.carve_existing && n - first >= options_.nodes_per_segment) {
    Segment seg;
    seg.first = first;
    seg.count = static_cast<std::uint32_t>(options_.nodes_per_segment);
    seg.sealed = true;
    seg.touch = ++touch_clock_;
    segments_.push_back(std::move(seg));
    first += static_cast<NodeId>(options_.nodes_per_segment);
  }
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    segments_[i].payload_bytes = payload_bytes_locked(i);
    resident_bytes_ += segments_[i].payload_bytes;
  }
  Segment active;
  active.first = first;
  active.count = n - first;
  segments_.push_back(std::move(active));

  segments_sealed_gauge_->add(static_cast<std::int64_t>(segments_.size() - 1));
  seals_total_->inc(segments_.size() - 1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(resident_bytes_));
}

SegmentManager::~SegmentManager() {
  // Roll this store's contribution back out of the process-wide gauges.
  std::int64_t sealed = 0;
  std::int64_t evicted = 0;
  for (const Segment& s : segments_) {
    if (s.sealed) ++sealed;
    if (!s.resident) ++evicted;
  }
  segments_sealed_gauge_->sub(sealed);
  segments_evicted_gauge_->sub(evicted);
  resident_bytes_gauge_->sub(static_cast<std::int64_t>(resident_bytes_));
}

std::string SegmentManager::spill_path(SegmentId seg) const {
  return options_.spill_dir + "/seg-" + std::to_string(seg) + ".hseg";
}

// ---------------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------------

std::size_t SegmentManager::segment_count() const {
  const std::shared_lock lock(store_.mutex_);
  return segments_.size();
}

std::size_t SegmentManager::sealed_count() const {
  const std::shared_lock lock(store_.mutex_);
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.sealed ? 1 : 0;
  return n;
}

std::size_t SegmentManager::evicted_count() const {
  const std::shared_lock lock(store_.mutex_);
  std::size_t n = 0;
  for (const Segment& s : segments_) n += s.resident ? 0 : 1;
  return n;
}

SegmentId SegmentManager::segment_of_locked(NodeId node) const {
  // Boundaries are sorted and tile [0, node_count); find the last segment
  // with first <= node.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), node,
      [](NodeId n, const Segment& s) { return n < s.first; });
  if (it == segments_.begin()) return kNoSegment;
  return static_cast<SegmentId>(std::distance(segments_.begin(), it) - 1);
}

SegmentId SegmentManager::segment_of(NodeId node) const {
  const std::shared_lock lock(store_.mutex_);
  if (node >= store_.nodes_.size()) return kNoSegment;
  return segment_of_locked(node);
}

bool SegmentManager::resident_for_locked(NodeId node) const {
  const SegmentId seg = segment_of_locked(node);
  return seg == kNoSegment || segments_[seg].resident;
}

SegmentInfo SegmentManager::info_locked(SegmentId seg) const {
  const Segment& s = segments_[seg];
  SegmentInfo out;
  out.id = seg;
  out.first = s.first;
  out.count = s.count;
  out.shard = shard_of(seg);
  out.sealed = s.sealed;
  out.resident = s.resident;
  out.spill_clean = s.spill_clean;
  out.summary_fresh = s.summary.fresh;
  out.pins = s.pins;
  out.payload_bytes = s.payload_bytes;
  return out;
}

SegmentInfo SegmentManager::info(SegmentId seg) const {
  const std::shared_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  return info_locked(seg);
}

std::vector<SegmentInfo> SegmentManager::list() const {
  const std::shared_lock lock(store_.mutex_);
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size());
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    out.push_back(info_locked(i));
  }
  return out;
}

std::vector<ShardCounts> SegmentManager::shard_counts() const {
  const std::shared_lock lock(store_.mutex_);
  std::vector<ShardCounts> out(options_.shard_count);
  for (std::size_t shard = 0; shard < out.size(); ++shard) {
    out[shard].shard = shard;
  }
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    ShardCounts& sc = out[shard_of(i)];
    if (s.sealed) {
      ++sc.sealed;
      if (s.resident) {
        ++sc.resident;
        sc.resident_bytes += s.payload_bytes;
      } else {
        ++sc.evicted;
      }
    } else {
      sc.active_nodes += s.count;
    }
  }
  return out;
}

std::string SegmentManager::shard_report() const {
  std::ostringstream out;
  for (const ShardCounts& sc : shard_counts()) {
    out << "shard " << sc.shard << ": sealed=" << sc.sealed
        << " resident=" << sc.resident << " evicted=" << sc.evicted
        << " active_nodes=" << sc.active_nodes
        << " resident_bytes=" << sc.resident_bytes << '\n';
  }
  return out.str();
}

std::size_t SegmentManager::resident_bytes() const {
  const std::shared_lock lock(store_.mutex_);
  return resident_bytes_;
}

bool SegmentManager::is_resident(SegmentId seg) const {
  const std::shared_lock lock(store_.mutex_);
  return seg < segments_.size() && segments_[seg].resident;
}

// ---------------------------------------------------------------------------
// sealing + write-path hooks (store lock held by GraphStore)
// ---------------------------------------------------------------------------

std::size_t SegmentManager::payload_bytes_locked(SegmentId seg) const {
  const Segment& s = segments_[seg];
  std::size_t bytes = 0;
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    const auto& rec = store_.nodes_[v];
    bytes += record_payload_bytes(rec.properties, rec.out, rec.in);
  }
  return bytes;
}

void SegmentManager::seal_active_locked() {
  Segment& active = segments_.back();
  if (active.count == 0) return;
  const SegmentId seg = static_cast<SegmentId>(segments_.size() - 1);
  active.sealed = true;
  active.touch = ++touch_clock_;
  active.payload_bytes = payload_bytes_locked(seg);
  resident_bytes_ += active.payload_bytes;
  segments_sealed_gauge_->add(1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(active.payload_bytes));
  seals_total_->inc();

  Segment next;
  next.first = active.first + active.count;
  segments_.push_back(std::move(next));

  if (options_.auto_evict && options_.resident_budget_bytes > 0) {
    evict_to_budget_locked();
  }
}

void SegmentManager::seal_active() {
  const std::unique_lock lock(store_.mutex_);
  seal_active_locked();
}

void SegmentManager::on_node_added_locked(NodeId node) {
  Segment& active = segments_.back();
  // Appends are dense; the new node extends the active tail.
  (void)node;
  ++active.count;
  if (active.count >= options_.nodes_per_segment) {
    seal_active_locked();
  }
}

void SegmentManager::on_property_write_locked(NodeId node) {
  const SegmentId seg = segment_of_locked(node);
  if (seg == kNoSegment) return;
  Segment& s = segments_[seg];
  ++s.mut_gen;
  s.summary.fresh = false;
  if (s.sealed) s.spill_clean = false;
}

void SegmentManager::on_edge_added_locked(NodeId from, NodeId to) {
  // Edges do not feed the VC summary (clock data does), but they do make a
  // sealed segment's spill file stale.
  for (const NodeId node : {from, to}) {
    const SegmentId seg = segment_of_locked(node);
    if (seg == kNoSegment) continue;
    Segment& s = segments_[seg];
    if (s.sealed) s.spill_clean = false;
  }
}

void SegmentManager::ensure_resident_locked(NodeId node) {
  const SegmentId seg = segment_of_locked(node);
  if (seg == kNoSegment) return;
  if (!segments_[seg].resident) reload_locked(seg);
}

void SegmentManager::reload_all_locked() {
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    if (!segments_[i].resident) reload_locked(i);
  }
}

// ---------------------------------------------------------------------------
// pinning + eviction
// ---------------------------------------------------------------------------

void SegmentManager::pin(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  if (!segments_[seg].resident) reload_locked(seg);
  ++segments_[seg].pins;
}

void SegmentManager::unpin(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size() || segments_[seg].pins == 0) return;
  --segments_[seg].pins;
}

void SegmentManager::ReadHold::release() noexcept {
  if (mgr_ != nullptr) {
    mgr_->read_holds_.fetch_sub(1, std::memory_order_release);
    mgr_ = nullptr;
  }
}

SegmentManager::ReadHold SegmentManager::read_hold() const {
  read_holds_.fetch_add(1, std::memory_order_acquire);
  return ReadHold(this);
}

std::size_t SegmentManager::evict_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  if (!s.sealed || !s.resident || s.pins > 0 || options_.spill_dir.empty()) {
    return 0;
  }
  // Live spans (query paths holding adjacency/bag references) make freeing
  // the payload unsafe; the budget is enforced again on the next attempt.
  if (read_holds_.load(std::memory_order_acquire) > 0) return 0;
  if (!s.spill_clean) write_spill_locked(seg);

  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    auto& rec = store_.nodes_[v];
    PropertyList().swap(rec.properties);
    std::vector<Edge>().swap(rec.out);
    std::vector<Edge>().swap(rec.in);
  }
  s.resident = false;
  const std::size_t released = s.payload_bytes;
  resident_bytes_ -= released;
  segments_evicted_gauge_->add(1);
  resident_bytes_gauge_->sub(static_cast<std::int64_t>(released));
  evictions_total_->inc();
  return released;
}

std::size_t SegmentManager::evict(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) return 0;
  return evict_locked(seg);
}

std::size_t SegmentManager::evict_to_budget_locked() {
  const std::size_t budget = options_.resident_budget_bytes;
  if (budget == 0) return 0;
  std::size_t released = 0;
  while (resident_bytes_ > budget) {
    // LRU victim: least-recently-stamped evictable sealed segment.
    SegmentId victim = kNoSegment;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (SegmentId i = 0; i < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (!s.sealed || !s.resident || s.pins > 0) continue;
      if (s.touch < oldest) {
        oldest = s.touch;
        victim = i;
      }
    }
    if (victim == kNoSegment) break;
    const std::size_t freed = evict_locked(victim);
    if (freed == 0) break;  // read holds active or spill unavailable
    released += freed;
  }
  return released;
}

std::size_t SegmentManager::evict_to_budget() {
  const std::unique_lock lock(store_.mutex_);
  return evict_to_budget_locked();
}

std::size_t SegmentManager::evict_all() {
  const std::unique_lock lock(store_.mutex_);
  std::size_t released = 0;
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    released += evict_locked(i);
  }
  return released;
}

void SegmentManager::reload(SegmentId seg) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  reload_locked(seg);
}

void SegmentManager::reload_locked(SegmentId seg) {
  Segment& s = segments_[seg];
  if (s.resident) return;

  // Parse + CRC-verify the whole file before touching the store: a corrupt
  // spill fails typed with the store unchanged (still evicted, retryable).
  const std::string path = spill_path(seg);
  ParsedSegmentFile file = read_segment_file(path);
  if (file.segment != seg || file.first != s.first || file.count != s.count) {
    throw SegmentCorruptError(
        "segment io: " + path + ": file describes segment " +
        std::to_string(file.segment) + " [" + std::to_string(file.first) +
        " +" + std::to_string(file.count) + "), expected " +
        std::to_string(seg) + " [" + std::to_string(s.first) + " +" +
        std::to_string(s.count) + ")");
  }
  const auto node_count = static_cast<NodeId>(store_.nodes_.size());
  std::vector<PropKeyId> key_map;
  key_map.reserve(file.keys.size());
  for (const std::string& name : file.keys) {
    key_map.push_back(store_.intern_prop_key_locked(name));
  }
  std::vector<EdgeTypeId> type_map;
  type_map.reserve(file.edge_types.size());
  for (const std::string& name : file.edge_types) {
    type_map.push_back(store_.intern_edge_type(name));
  }
  for (const ParsedSegmentNode& node : file.nodes) {
    for (const auto& [peer, type] : node.out) {
      if (peer >= node_count) {
        throw SegmentCorruptError("segment io: " + path +
                                  ": edge endpoint out of range");
      }
      (void)type;
    }
    for (const auto& [peer, type] : node.in) {
      if (peer >= node_count) {
        throw SegmentCorruptError("segment io: " + path +
                                  ": edge endpoint out of range");
      }
      (void)type;
    }
  }

  // Commit: restore bags (cold keys only — columns stayed resident) and both
  // adjacency lists verbatim. Indexes were never dropped at eviction, so no
  // index maintenance happens here; the restored segment is bit-identical to
  // its pre-eviction self.
  for (ParsedSegmentNode& node : file.nodes) {
    auto& rec = store_.nodes_[node.id];
    PropertyList bag;
    for (auto& [file_key, value] : node.props) {
      const PropKeyId key = key_map[file_key];
      if (store_.columns_.contains(key)) continue;
      bag.emplace_back(key, std::move(value));
    }
    std::sort(bag.begin(), bag.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    rec.properties = std::move(bag);
    rec.out.reserve(node.out.size());
    for (const auto& [peer, type] : node.out) {
      rec.out.push_back(Edge{peer, type_map[type]});
    }
    rec.in.reserve(node.in.size());
    for (const auto& [peer, type] : node.in) {
      rec.in.push_back(Edge{peer, type_map[type]});
    }
  }
  s.resident = true;
  s.touch = ++touch_clock_;
  s.payload_bytes = payload_bytes_locked(seg);
  resident_bytes_ += s.payload_bytes;
  segments_evicted_gauge_->sub(1);
  resident_bytes_gauge_->add(static_cast<std::int64_t>(s.payload_bytes));
  reloads_total_->inc();
}

// ---------------------------------------------------------------------------
// spill / checkpoint serialization
// ---------------------------------------------------------------------------

void SegmentManager::write_segment_stream_locked(SegmentId seg,
                                                 std::ostream& out) const {
  const Segment& s = segments_[seg];
  std::uint32_t crc = crc32_init();
  const auto emit = [&](const std::string& line) {
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    out << line << '\n';
  };

  std::size_t edges = 0;
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    edges += store_.nodes_[v].out.size();
  }

  Json header = Json::object();
  header["format"] = "horus-segment";
  header["version"] = std::int64_t{1};
  header["segment"] = static_cast<std::int64_t>(seg);
  header["first"] = static_cast<std::int64_t>(s.first);
  header["nodes"] = static_cast<std::int64_t>(s.count);
  header["edges"] = static_cast<std::int64_t>(edges);
  emit(header.dump());

  Json keys = Json::array();
  for (const std::string& name : store_.prop_keys_) keys.push_back(Json(name));
  Json types = Json::array();
  for (const std::string& name : store_.edge_types_) {
    types.push_back(Json(name));
  }
  Json tables = Json::object();
  tables["keys"] = std::move(keys);
  tables["edge_types"] = std::move(types);
  emit(tables.dump());

  for (NodeId v = s.first; v < end; ++v) {
    const auto& rec = store_.nodes_[v];
    Json node = Json::object();
    node["id"] = static_cast<std::int64_t>(v);
    node["label"] = store_.labels_[rec.label];
    Json props = Json::array();
    // Full property set (columns included) so checkpoint restore can
    // reconstruct the node; evicted-segment reload skips column keys.
    for (const auto& [key, value] : store_.collect_properties_locked(v)) {
      Json entry = Json::array();
      entry.push_back(Json(static_cast<std::int64_t>(key)));
      entry.push_back(property_to_json(value));
      props.push_back(std::move(entry));
    }
    node["props"] = std::move(props);
    const auto adjacency = [](const std::vector<Edge>& list) {
      Json arr = Json::array();
      for (const Edge& e : list) {
        Json entry = Json::array();
        entry.push_back(Json(static_cast<std::int64_t>(e.to)));
        entry.push_back(Json(static_cast<std::int64_t>(e.type)));
        arr.push_back(std::move(entry));
      }
      return arr;
    };
    node["out"] = adjacency(rec.out);
    node["in"] = adjacency(rec.in);
    emit(node.dump());
  }

  Json trailer = Json::object();
  trailer["checksum"] = static_cast<std::int64_t>(crc32_final(crc));
  trailer["nodes"] = static_cast<std::int64_t>(s.count);
  trailer["edges"] = static_cast<std::int64_t>(edges);
  out << trailer.dump() << '\n';
}

void SegmentManager::write_spill_locked(SegmentId seg) {
  write_file_atomic(spill_path(seg), [&](std::ostream& out) {
    write_segment_stream_locked(seg, out);
  });
  segments_[seg].spill_clean = true;
}

void SegmentManager::write_segment_file(SegmentId seg,
                                        const std::string& path) {
  const std::unique_lock lock(store_.mutex_);
  if (seg >= segments_.size()) {
    throw std::out_of_range("graph: invalid segment id " +
                            std::to_string(seg));
  }
  const Segment& s = segments_[seg];
  if (!s.resident) {
    // Evicted implies a clean spill file; reuse its bytes instead of
    // faulting the segment in just to re-serialize identical content.
    fs::copy_file(spill_path(seg), path, fs::copy_options::overwrite_existing);
    return;
  }
  write_file_atomic(path, [&](std::ostream& out) {
    write_segment_stream_locked(seg, out);
  });
}

void SegmentManager::adopt_sealed(
    const std::vector<std::pair<NodeId, std::uint32_t>>& sealed) {
  const std::unique_lock lock(store_.mutex_);
  if (segments_.size() != 1 || segments_.front().sealed) {
    throw std::logic_error(
        "graph: adopt_sealed requires a fresh (single active segment) "
        "layout");
  }
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  NodeId expect = 0;
  for (const auto& [first, count] : sealed) {
    if (first != expect || count == 0 || first + count > n) {
      throw std::logic_error(
          "graph: adopt_sealed boundaries do not tile the node space");
    }
    expect = first + count;
  }

  segments_.clear();
  resident_bytes_ = 0;
  for (const auto& [first, count] : sealed) {
    Segment seg;
    seg.first = first;
    seg.count = count;
    seg.sealed = true;
    seg.touch = ++touch_clock_;
    segments_.push_back(std::move(seg));
  }
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    segments_[i].payload_bytes = payload_bytes_locked(i);
    resident_bytes_ += segments_[i].payload_bytes;
  }
  Segment active;
  active.first = expect;
  active.count = n - expect;
  segments_.push_back(std::move(active));

  segments_sealed_gauge_->add(static_cast<std::int64_t>(sealed.size()));
  seals_total_->inc(sealed.size());
  resident_bytes_gauge_->add(static_cast<std::int64_t>(resident_bytes_));
}

// ---------------------------------------------------------------------------
// VC summaries
// ---------------------------------------------------------------------------

void SegmentManager::build_summary_locked(SegmentId seg,
                                          const ClockLookup& clocks,
                                          SegmentSummary& out) const {
  const Segment& s = segments_[seg];
  const NodeId end = s.first + s.count;
  for (NodeId v = s.first; v < end; ++v) {
    if (options_.lamport_key != kNoPropKey) {
      if (const PropertyValue* p =
              store_.find_property_locked(v, options_.lamport_key)) {
        if (const auto* i = std::get_if<std::int64_t>(p)) {
          if (!out.has_lamport) {
            out.has_lamport = true;
            out.lamport_min = out.lamport_max = *i;
          } else {
            out.lamport_min = std::min(out.lamport_min, *i);
            out.lamport_max = std::max(out.lamport_max, *i);
          }
        }
      }
    }
    if (options_.timestamp_key != kNoPropKey) {
      if (const PropertyValue* p =
              store_.find_property_locked(v, options_.timestamp_key)) {
        if (const auto* i = std::get_if<std::int64_t>(p)) {
          if (!out.has_timestamp) {
            out.has_timestamp = true;
            out.ts_min = out.ts_max = *i;
          } else {
            out.ts_min = std::min(out.ts_min, *i);
            out.ts_max = std::max(out.ts_max, *i);
          }
        }
      }
    }
    if (!clocks) continue;
    std::int32_t timeline = -1;
    std::int32_t position = 0;
    std::span<const std::int32_t> vc;
    if (!clocks(v, timeline, position, vc)) continue;
    TimelineStats& own = out.timelines[timeline];
    own.min_pos = std::min(own.min_pos, position);
    for (std::size_t t = 0; t < vc.size(); ++t) {
      if (vc[t] <= 0) continue;
      TimelineStats& stats = out.timelines[static_cast<std::int32_t>(t)];
      stats.max_entry = std::max(stats.max_entry, vc[t]);
    }
  }
}

void SegmentManager::mark_summaries_stale(std::span<const NodeId> nodes) {
  const std::unique_lock lock(store_.mutex_);
  for (const NodeId node : nodes) {
    const SegmentId seg = segment_of_locked(node);
    if (seg == kNoSegment) continue;
    Segment& s = segments_[seg];
    ++s.mut_gen;  // a build racing this mark must not commit
    s.summary.fresh = false;
  }
}

std::size_t SegmentManager::update_summaries(const ClockLookup& clocks,
                                             bool force, ThreadPool* pool,
                                             unsigned threads) {
  // Snapshot the rebuild worklist with generation stamps; each segment is
  // built under a shared lock and committed only if unmodified meanwhile,
  // so a racing writer can never leave a stale summary marked fresh.
  std::vector<std::pair<SegmentId, std::uint64_t>> work;
  {
    const std::shared_lock lock(store_.mutex_);
    for (SegmentId i = 0; i < segments_.size(); ++i) {
      const Segment& s = segments_[i];
      if (s.sealed && (force || !s.summary.fresh)) {
        work.emplace_back(i, s.mut_gen);
      }
    }
  }
  std::atomic<std::size_t> rebuilt{0};
  const auto one = [&](std::size_t idx) {
    const auto [seg, gen] = work[idx];
    SegmentSummary sum;
    {
      const std::shared_lock lock(store_.mutex_);
      if (seg >= segments_.size()) return;
      const Segment& s = segments_[seg];
      if (!s.sealed || s.mut_gen != gen) return;
      build_summary_locked(seg, clocks, sum);
    }
    {
      const std::unique_lock lock(store_.mutex_);
      if (seg >= segments_.size()) return;
      Segment& s = segments_[seg];
      if (!s.sealed || s.mut_gen != gen) return;
      sum.fresh = true;
      s.summary = std::move(sum);
      rebuilt.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (pool != nullptr && threads > 1 && work.size() > 1) {
    pool->parallel_for(work.size(), 1, threads,
                       [&](ThreadPool::ChunkRange range) {
                         for (std::size_t i = range.begin; i < range.end; ++i) {
                           one(i);
                         }
                       });
  } else {
    for (std::size_t i = 0; i < work.size(); ++i) one(i);
  }
  return rebuilt.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// pruning
// ---------------------------------------------------------------------------

bool SegmentManager::q2_segment_admissible_locked(
    SegmentId seg, const Q2Pruner& pruner) const {
  const Segment& s = segments_[seg];
  // Unsealed or stale-summary segments are always admissible (conservative).
  if (!s.sealed || !s.summary.fresh) return true;
  const SegmentSummary& sum = s.summary;

  if (options_.lamport_key != kNoPropKey) {
    // An admissible v satisfies LC(a) <= LC(v) <= LC(b). A segment with no
    // lamport values at build time held only unassigned nodes, which can
    // never be causally between a and b (writes since would have staled the
    // summary).
    if (!sum.has_lamport) return false;
    if (sum.lamport_max < pruner.lc_a_ || sum.lamport_min > pruner.lc_b_) {
      return false;
    }
  }
  // a-side: hb(a, v) requires VC(v)[tl(a)] >= pos(a) for some v.
  auto it = sum.timelines.find(pruner.tl_a_);
  if (it == sum.timelines.end() || it->second.max_entry < pruner.pos_a_) {
    return false;
  }
  // b-side: hb(v, b) requires VC(b)[tl(v)] >= pos(v); over the segment, some
  // timeline t with nodes here must satisfy VC(b)[t] >= min_pos(t).
  for (const auto& [timeline, stats] : sum.timelines) {
    if (stats.min_pos == std::numeric_limits<std::int32_t>::max()) continue;
    if (timeline >= 0 &&
        static_cast<std::size_t>(timeline) < pruner.vc_b_.size() &&
        pruner.vc_b_[static_cast<std::size_t>(timeline)] >= stats.min_pos) {
      return true;
    }
  }
  return false;
}

bool SegmentManager::q2_segment_admissible(SegmentId seg,
                                           const Q2Pruner& pruner) const {
  const std::shared_lock lock(store_.mutex_);
  if (seg >= segments_.size()) return true;
  const bool admissible = q2_segment_admissible_locked(seg, pruner);
  if (!admissible) q2_skips_->inc();
  return admissible;
}

bool SegmentManager::Q2Pruner::admits(NodeId v) const {
  if (mgr_ == nullptr) return true;
  if (v == a_ || v == b_) return true;
  auto it = std::upper_bound(firsts_.begin(), firsts_.end(), v);
  if (it == firsts_.begin()) return true;
  const auto seg = static_cast<std::size_t>(it - firsts_.begin()) - 1;
  if (seg >= firsts_.size()) return true;
  std::atomic<std::uint8_t>& slot = verdicts_[seg];
  std::uint8_t verdict = slot.load(std::memory_order_relaxed);
  if (verdict == 0) {
    verdict =
        mgr_->q2_segment_admissible(static_cast<SegmentId>(seg), *this) ? 1 : 2;
    slot.store(verdict, std::memory_order_relaxed);
  }
  return verdict == 1;
}

std::size_t SegmentManager::Q2Pruner::skipped_segments() const {
  if (mgr_ == nullptr) return 0;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < firsts_.size(); ++i) {
    if (verdicts_[i].load(std::memory_order_relaxed) == 2) ++skipped;
  }
  return skipped;
}

SegmentManager::Q2Pruner SegmentManager::q2_pruner(
    NodeId a, NodeId b, std::int64_t lc_a, std::int64_t lc_b,
    std::int32_t tl_a, std::int32_t pos_a,
    std::span<const std::int32_t> vc_b) const {
  Q2Pruner pruner;
  if (!pruning_enabled() || tl_a < 0 || pos_a <= 0 || vc_b.empty()) {
    return pruner;  // inert: admits everything
  }
  pruner.a_ = a;
  pruner.b_ = b;
  pruner.lc_a_ = lc_a;
  pruner.lc_b_ = lc_b;
  pruner.tl_a_ = tl_a;
  pruner.pos_a_ = pos_a;
  pruner.vc_b_.assign(vc_b.begin(), vc_b.end());
  {
    const std::shared_lock lock(store_.mutex_);
    pruner.firsts_.reserve(segments_.size());
    for (const Segment& s : segments_) pruner.firsts_.push_back(s.first);
  }
  pruner.verdicts_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(pruner.firsts_.size());
  for (std::size_t i = 0; i < pruner.firsts_.size(); ++i) {
    pruner.verdicts_[i].store(0, std::memory_order_relaxed);
  }
  pruner.mgr_ = this;
  return pruner;
}

bool SegmentManager::summary_rules_out_hb(std::int32_t tl_a,
                                          std::int32_t pos_a,
                                          NodeId b) const {
  if (!pruning_enabled() || tl_a < 0 || pos_a <= 0) return false;
  const std::shared_lock lock(store_.mutex_);
  if (b >= store_.nodes_.size()) return false;
  const SegmentId seg = segment_of_locked(b);
  if (seg == kNoSegment) return false;
  const Segment& s = segments_[seg];
  if (!s.sealed || !s.summary.fresh) return false;
  auto it = s.summary.timelines.find(tl_a);
  if (it == s.summary.timelines.end() || it->second.max_entry < pos_a) {
    q1_skips_->inc();
    return true;
  }
  return false;
}

std::optional<std::pair<std::int64_t, std::int64_t>>
SegmentManager::summary_range(SegmentId seg, PropKeyId key) const {
  if (!pruning_enabled() || key == kNoPropKey) return std::nullopt;
  const std::shared_lock lock(store_.mutex_);
  if (seg >= segments_.size()) return std::nullopt;
  const Segment& s = segments_[seg];
  if (!s.sealed || !s.summary.fresh) return std::nullopt;
  if (key == options_.lamport_key) {
    if (!s.summary.has_lamport) return std::pair<std::int64_t, std::int64_t>{1, 0};
    return std::pair{s.summary.lamport_min, s.summary.lamport_max};
  }
  if (key == options_.timestamp_key) {
    if (!s.summary.has_timestamp) {
      return std::pair<std::int64_t, std::int64_t>{1, 0};
    }
    return std::pair{s.summary.ts_min, s.summary.ts_max};
  }
  return std::nullopt;
}

std::vector<std::pair<NodeId, NodeId>> SegmentManager::equality_scan_ranges(
    PropKeyId key, std::int64_t value) const {
  return scan_ranges(key, value, value);
}

std::vector<std::pair<NodeId, NodeId>> SegmentManager::scan_ranges(
    PropKeyId key, std::int64_t lo, std::int64_t hi,
    std::size_t* skipped_out) const {
  const std::shared_lock lock(store_.mutex_);
  const auto n = static_cast<NodeId>(store_.nodes_.size());
  std::vector<std::pair<NodeId, NodeId>> ranges;
  if (skipped_out != nullptr) *skipped_out = 0;
  const bool summarised =
      pruning_enabled() && key != kNoPropKey &&
      (key == options_.lamport_key || key == options_.timestamp_key);
  if (!summarised || lo > hi) {
    if (!summarised && n > 0) ranges.emplace_back(0, n);
    return ranges;
  }
  std::size_t skipped = 0;
  for (SegmentId i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    if (s.count == 0) continue;
    bool skip = false;
    if (s.sealed && s.summary.fresh) {
      const bool has = key == options_.lamport_key ? s.summary.has_lamport
                                                   : s.summary.has_timestamp;
      const std::int64_t seg_lo = key == options_.lamport_key
                                      ? s.summary.lamport_min
                                      : s.summary.ts_min;
      const std::int64_t seg_hi = key == options_.lamport_key
                                      ? s.summary.lamport_max
                                      : s.summary.ts_max;
      skip = !has || hi < seg_lo || lo > seg_hi;
    }
    if (skip) {
      ++skipped;
      continue;
    }
    const NodeId begin = s.first;
    const NodeId end = s.first + s.count;
    if (!ranges.empty() && ranges.back().second == begin) {
      ranges.back().second = end;
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  if (skipped > 0) scan_skips_->inc(skipped);
  if (skipped_out != nullptr) *skipped_out = skipped;
  return ranges;
}

}  // namespace horus::graph
