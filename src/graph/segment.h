// Sharded, epoch-segmented storage management for GraphStore.
//
// A long-running Horus deployment ingests executions forever; one monolithic
// in-memory graph grows without bound. The SegmentManager partitions the
// append-only NodeId space into contiguous *segments*: a single mutable
// active segment at the tail, sealed into immutable segments on size
// boundaries (`nodes_per_segment`) or explicit epoch boundaries
// (`seal_active()`, called by the service checkpoint loop). Segments are
// attributed round-robin to *shards* (aligned with the queue partition count
// in service mode) so diagnostics and eviction fairness can name the shard.
//
// Each sealed segment carries a **VC summary**: the lamport/timestamp value
// ranges of its nodes plus, per timeline, the maximum vector-clock component
// observed and the minimum position of any node on that timeline. The
// summary supports conservative segment-skip tests (never skips a segment
// that could contribute) for the three query shapes:
//
//   Q1  happens_before(a, b):  hb  =>  VC(b)[tl(a)] >= pos(a), so if the
//       segment-wide max of component tl(a) is below pos(a), no node of the
//       segment (b included) can be causally after a.
//   Q2  getCausalGraph(a, b): an admissible v satisfies hb(a,v) && hb(v,b);
//       the a-side uses the same max-component bound, the b-side requires
//       some timeline t with nodes in the segment where VC(b)[t] >= the
//       segment's minimum position on t, and the lamport range must overlap
//       [LC(a), LC(b)].
//   MATCH full scans: equality predicates on the summarised integer keys
//       (lamportLogicalTime, timestamp) skip segments whose value range
//       excludes the constant.
//
// Sealed segments are **LRU-evictable** to spill files in the v3
// JSON-lines snapshot family (CRC-32 trailer included) and transparently
// reloaded on access: evicting frees the per-node property bags and
// adjacency vectors while labels, dense columns and all indexes stay
// resident, so index lookups and column scans never fault. The residency
// state machine is
//
//      active --seal--> resident <--> evicted
//                          |  ^
//                        pin  | (pin_count > 0 blocks eviction)
//
// and a resident-byte budget (`resident_budget_bytes`) drives LRU eviction
// from the write path and from `evict_to_budget()` (called by the service
// supervisor, which also feeds resident bytes into the overload
// controller). A corrupted spill file fails reload with a typed
// SegmentCorruptError after CRC verification — never a crash, never a
// silently short segment.
//
// Thread safety: the manager shares the owning GraphStore's shared_mutex;
// public methods take it themselves, `*_locked` internals are called from
// GraphStore's write path with the lock already held.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "graph/graph_store.h"

namespace horus {
class ThreadPool;
}  // namespace horus

namespace horus::obs {
class Counter;
class Gauge;
}  // namespace horus::obs

namespace horus::graph {

/// Raised when a segment spill/checkpoint file fails CRC verification or
/// structural validation at reload. Derives HorusError so existing
/// "your data is bad" catch sites handle it.
class SegmentCorruptError : public HorusError {
 public:
  using HorusError::HorusError;
};

using SegmentId = std::uint32_t;
inline constexpr SegmentId kNoSegment = ~SegmentId{0};

struct SegmentOptions {
  /// Size boundary: the active segment seals once it reaches this many
  /// nodes. Epoch boundaries (seal_active()) can seal it earlier.
  std::size_t nodes_per_segment = 4096;
  /// Shards for diagnostics/eviction fairness; align with the queue
  /// partition count in service mode. Segments are attributed round-robin.
  std::size_t shard_count = 4;
  /// Directory for eviction spill files (seg-<id>.hseg). Empty disables
  /// eviction (segments still seal and carry summaries).
  std::string spill_dir;
  /// Evict sealed segments (LRU) once their resident payload exceeds this.
  /// 0 = unbounded (no automatic eviction).
  std::size_t resident_budget_bytes = 0;
  /// Enforce the budget from the write path (on seal). evict_to_budget()
  /// works regardless.
  bool auto_evict = true;
  /// Store key ids of the summarised integer columns. kNoPropKey disables
  /// the corresponding range summary (pruning then never uses it).
  PropKeyId lamport_key = kNoPropKey;
  PropKeyId timestamp_key = kNoPropKey;
  /// Carve pre-existing nodes into sealed full-size segments on enable
  /// (the right thing for a loaded snapshot). A segmented-checkpoint
  /// restore sets this false — everything lands in one active segment —
  /// and then adopt_sealed() imposes the checkpointed boundaries exactly.
  bool carve_existing = true;
};

/// Point-in-time view of one segment (diagnostics, tests, CLI).
struct SegmentInfo {
  SegmentId id = kNoSegment;
  NodeId first = 0;
  std::uint32_t count = 0;
  std::size_t shard = 0;
  bool sealed = false;
  bool resident = true;
  bool spill_clean = false;
  bool summary_fresh = false;
  int pins = 0;
  std::size_t payload_bytes = 0;
};

/// Per-shard rollup for Pipeline::drain() diagnostics and `horus stats`.
struct ShardCounts {
  std::size_t shard = 0;
  std::size_t sealed = 0;
  std::size_t resident = 0;
  std::size_t evicted = 0;
  std::size_t active_nodes = 0;  ///< unsealed tail nodes owned by this shard
  std::size_t resident_bytes = 0;
};

/// Clock accessor used to build VC summaries without a dependency on the
/// core ClockTable: returns false when `node` has no assigned clocks,
/// otherwise fills the timeline index, 1-based position, and the VC span.
using ClockLookup = std::function<bool(
    NodeId, std::int32_t& timeline, std::int32_t& position,
    std::span<const std::int32_t>& vc)>;

/// One node of a parsed segment file. Property keys index the file's own
/// key table; edge types index its edge_types table — the consumer maps
/// both onto the target store's interned ids.
struct ParsedSegmentNode {
  NodeId id = kNoNode;
  std::string label;
  PropertyList props;  ///< keyed by file key index
  std::vector<std::pair<NodeId, std::uint32_t>> out;  ///< (to, type index)
  std::vector<std::pair<NodeId, std::uint32_t>> in;   ///< (from, type index)
};

/// A fully parsed, CRC-verified segment file. Nothing is applied to any
/// store until parsing succeeds end to end — a corrupted file raises
/// SegmentCorruptError before a single node is touched.
struct ParsedSegmentFile {
  SegmentId segment = kNoSegment;
  NodeId first = 0;
  std::uint32_t count = 0;
  std::size_t edges = 0;  ///< total out-edge entries
  std::vector<std::string> keys;
  std::vector<std::string> edge_types;
  std::vector<ParsedSegmentNode> nodes;
};

/// Reads and validates a segment file (format, structure, CRC-32 trailer).
/// `what` names the source in error messages. Throws SegmentCorruptError.
[[nodiscard]] ParsedSegmentFile read_segment_stream(std::istream& in,
                                                    const std::string& what);
[[nodiscard]] ParsedSegmentFile read_segment_file(const std::string& path);

class SegmentManager {
 public:
  SegmentManager(const SegmentManager&) = delete;
  SegmentManager& operator=(const SegmentManager&) = delete;
  ~SegmentManager();

  /// RAII guard taken by query paths that hold spans into node payloads
  /// (adjacency, bags). While any hold is live, eviction is refused —
  /// fault-in still works — so a span obtained after taking the hold cannot
  /// be invalidated by a concurrent evictor. Cheap: one atomic per query,
  /// not per node.
  class ReadHold {
   public:
    ReadHold() = default;
    ReadHold(ReadHold&& other) noexcept : mgr_(other.mgr_) {
      other.mgr_ = nullptr;
    }
    ReadHold& operator=(ReadHold&& other) noexcept {
      if (this != &other) {
        release();
        mgr_ = other.mgr_;
        other.mgr_ = nullptr;
      }
      return *this;
    }
    ~ReadHold() { release(); }

   private:
    friend class SegmentManager;
    explicit ReadHold(const SegmentManager* mgr) : mgr_(mgr) {}
    void release() noexcept;
    const SegmentManager* mgr_ = nullptr;
  };

  /// Blocks eviction (not fault-in) for the hold's lifetime.
  [[nodiscard]] ReadHold read_hold() const;

  [[nodiscard]] const SegmentOptions& options() const noexcept {
    return options_;
  }

  // ---- introspection -------------------------------------------------------

  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] std::size_t sealed_count() const;
  [[nodiscard]] std::size_t evicted_count() const;
  [[nodiscard]] SegmentId segment_of(NodeId node) const;
  [[nodiscard]] SegmentInfo info(SegmentId seg) const;
  [[nodiscard]] std::vector<SegmentInfo> list() const;
  [[nodiscard]] std::vector<ShardCounts> shard_counts() const;
  /// One-line-per-shard text block ("shard 0: 3 sealed (1 evicted) ...")
  /// appended to stuck-drain diagnostics and `horus stats`.
  [[nodiscard]] std::string shard_report() const;
  /// Tracked resident payload bytes (bags + adjacency of sealed segments).
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] bool is_resident(SegmentId seg) const;

  // ---- sealing / residency state machine -----------------------------------

  /// Seals the active tail segment (epoch boundary); no-op when empty.
  void seal_active();

  /// Pins keep a segment resident (and fault it in if evicted).
  void pin(SegmentId seg);
  void unpin(SegmentId seg);

  /// Evicts one sealed segment to its spill file. Returns payload bytes
  /// released; 0 when the segment is not evictable (unsealed, pinned,
  /// already evicted, or no spill_dir configured).
  std::size_t evict(SegmentId seg);
  /// LRU-evicts sealed segments until resident payload <= the budget (no-op
  /// when budget is 0). Returns bytes released.
  std::size_t evict_to_budget();
  /// Evicts every evictable sealed segment (tests, benches).
  std::size_t evict_all();
  /// Faults a segment back in (idempotent). Throws SegmentCorruptError when
  /// the spill file fails CRC or structural validation.
  void reload(SegmentId seg);

  // ---- VC summaries / pruning ----------------------------------------------

  /// Rebuilds summaries of sealed segments whose contents changed since the
  /// last build (all of them when `force`). Safe to call concurrently with
  /// readers and writers: each segment is built under a shared lock and
  /// committed only if unmodified meanwhile. When `pool` is non-null and
  /// `threads` > 1, segments rebuild in parallel (the caller must not hold
  /// the store lock). Returns the number of summaries rebuilt.
  std::size_t update_summaries(const ClockLookup& clocks, bool force = false,
                               ThreadPool* pool = nullptr,
                               unsigned threads = 1);

  /// Marks stale the summaries of the segments holding `nodes` — for clock
  /// changes the store never saw as a write (a targeted repair can raise a
  /// node's vector clock and leave its Lamport property alone). The next
  /// update_summaries() rebuilds exactly those.
  void mark_summaries_stale(std::span<const NodeId> nodes);

  /// Master switch for all summary-based skipping (benches A/B pruning).
  void set_pruning(bool on) noexcept {
    pruning_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool pruning_enabled() const noexcept {
    return pruning_.load(std::memory_order_relaxed);
  }

  /// Memoized per-query segment filter for Q2 (getCausalGraph a -> b).
  /// admits(v) is thread-safe and conservative: it returns true unless v's
  /// segment provably contains no admissible node. Move-only.
  class Q2Pruner {
   public:
    Q2Pruner() = default;
    Q2Pruner(Q2Pruner&&) noexcept = default;
    Q2Pruner& operator=(Q2Pruner&&) noexcept = default;

    /// True when the pruner has segment data to consult (a/b assigned,
    /// pruning enabled). An inert pruner admits everything.
    [[nodiscard]] bool active() const noexcept { return mgr_ != nullptr; }

    [[nodiscard]] bool admits(NodeId v) const;

    /// Segments ruled out so far (diagnostics; racy read is fine).
    [[nodiscard]] std::size_t skipped_segments() const;

   private:
    friend class SegmentManager;

    const SegmentManager* mgr_ = nullptr;
    NodeId a_ = kNoNode;
    NodeId b_ = kNoNode;
    std::int64_t lc_a_ = 0;
    std::int64_t lc_b_ = 0;
    std::int32_t tl_a_ = -1;
    std::int32_t pos_a_ = 0;
    std::vector<std::int32_t> vc_b_;
    std::vector<NodeId> firsts_;  ///< segment boundaries at construction
    /// 0 = unknown, 1 = admit, 2 = skip. Benign compute-twice races.
    std::unique_ptr<std::atomic<std::uint8_t>[]> verdicts_;
  };

  /// Builds a Q2 pruner for the query (a, b) from the endpoint clock data
  /// (lamport values, a's timeline/position, b's VC). Returns an inert
  /// pruner when pruning is disabled or either endpoint lacks clocks.
  [[nodiscard]] Q2Pruner q2_pruner(NodeId a, NodeId b, std::int64_t lc_a,
                                   std::int64_t lc_b, std::int32_t tl_a,
                                   std::int32_t pos_a,
                                   std::span<const std::int32_t> vc_b) const;

  /// Q1 fast reject: true when the summary of b's segment *proves*
  /// a -/-> b (max VC component tl_a over the segment < pos_a). False means
  /// "unknown — consult the clock table".
  [[nodiscard]] bool summary_rules_out_hb(std::int32_t tl_a,
                                          std::int32_t pos_a, NodeId b) const;

  /// Value range [min, max] of a summarised integer key over a sealed
  /// segment with a fresh summary; nullopt when unknown (unsealed, stale,
  /// or key not summarised). nullopt must be treated as "scan the segment".
  /// A segment where *no* node carries the key reports the empty range
  /// {1, 0} so equality scans can still skip it.
  [[nodiscard]] std::optional<std::pair<std::int64_t, std::int64_t>>
  summary_range(SegmentId seg, PropKeyId key) const;

  /// Node-id ranges [begin, end) a full scan for `key == value` must visit:
  /// sealed segments whose summarised value range provably excludes `value`
  /// are dropped (counted in the scan-skip metric) and the survivors merged.
  /// Returns the full range when `key` is not summarised or pruning is off.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> equality_scan_ranges(
      PropKeyId key, std::int64_t value) const;

  /// Range generalization of equality_scan_ranges: node-id ranges a scan
  /// constrained to `lo <= key <= hi` must visit — sealed segments whose
  /// summarised value range misses [lo, hi] entirely are dropped and the
  /// survivors merged (ascending id order, so scanning the ranges matches
  /// a plain full scan's output order). `skipped_out`, when non-null,
  /// receives the number of segments pruned (the query planner's
  /// segments-pruned counter). Conservative under staleness: a stale or
  /// unsealed segment is always visited.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> scan_ranges(
      PropKeyId key, std::int64_t lo, std::int64_t hi,
      std::size_t* skipped_out = nullptr) const;

  // ---- checkpoint support --------------------------------------------------

  /// Writes one segment (sealed or the active tail) to `path` in the
  /// segment file format. Reuses the clean spill file via a byte copy when
  /// possible; otherwise serializes from the resident data.
  void write_segment_file(SegmentId seg, const std::string& path);

  /// Adopts sealed-segment boundaries after a segmented checkpoint restore:
  /// `sealed` lists (first, count) in id order and must exactly tile
  /// [0, store.node_count() - tail). Any remaining tail nodes become the
  /// active segment. The store must currently hold exactly one (active)
  /// segment layout, i.e. call right after restore into a fresh store.
  void adopt_sealed(const std::vector<std::pair<NodeId, std::uint32_t>>& sealed);

 private:
  friend class GraphStore;

  struct TimelineStats {
    std::int32_t max_entry = -1;  ///< max VC(v)[t] over the segment
    /// min/max 1-based position among segment nodes *on* timeline t;
    /// min == INT32_MAX means no node of the segment lives on t.
    std::int32_t min_pos = std::numeric_limits<std::int32_t>::max();
  };

  struct SegmentSummary {
    bool fresh = false;
    bool has_lamport = false;
    std::int64_t lamport_min = 0;
    std::int64_t lamport_max = 0;
    bool has_timestamp = false;
    std::int64_t ts_min = 0;
    std::int64_t ts_max = 0;
    std::unordered_map<std::int32_t, TimelineStats> timelines;
  };

  struct Segment {
    NodeId first = 0;
    std::uint32_t count = 0;
    bool sealed = false;
    bool resident = true;
    bool spill_clean = false;
    int pins = 0;
    std::uint64_t touch = 0;     ///< LRU stamp (seal / reload / prune admit)
    std::uint64_t mut_gen = 0;   ///< bumped on property writes (staleness)
    std::size_t payload_bytes = 0;
    SegmentSummary summary;
  };

  SegmentManager(GraphStore& store, SegmentOptions options);

  [[nodiscard]] std::string spill_path(SegmentId seg) const;
  [[nodiscard]] std::size_t shard_of(SegmentId seg) const noexcept {
    return options_.shard_count == 0 ? 0 : seg % options_.shard_count;
  }

  // All *_locked methods require store_.mutex_ held (unique unless noted).
  [[nodiscard]] SegmentId segment_of_locked(NodeId node) const;  // shared ok
  [[nodiscard]] bool resident_for_locked(NodeId node) const;     // shared ok
  void on_node_added_locked(NodeId node);
  void on_property_write_locked(NodeId node);
  void on_edge_added_locked(NodeId from, NodeId to);
  void seal_active_locked();
  void ensure_resident_locked(NodeId node);
  void reload_locked(SegmentId seg);
  std::size_t evict_locked(SegmentId seg);
  std::size_t evict_to_budget_locked();
  void reload_all_locked();  ///< index (re)builds need every bag resident
  void write_spill_locked(SegmentId seg);
  void write_segment_stream_locked(SegmentId seg, std::ostream& out) const;
  [[nodiscard]] std::size_t payload_bytes_locked(SegmentId seg) const;
  [[nodiscard]] SegmentInfo info_locked(SegmentId seg) const;
  void build_summary_locked(SegmentId seg, const ClockLookup& clocks,
                            SegmentSummary& out) const;  // shared ok

  /// Conservative Q2 admissibility of a sealed segment (shared lock held).
  [[nodiscard]] bool q2_segment_admissible_locked(
      SegmentId seg, const Q2Pruner& pruner) const;
  [[nodiscard]] bool q2_segment_admissible(SegmentId seg,
                                           const Q2Pruner& pruner) const;

  GraphStore& store_;
  SegmentOptions options_;
  std::vector<Segment> segments_;  ///< last entry is the active tail
  std::uint64_t touch_clock_ = 0;
  std::size_t resident_bytes_ = 0;  ///< sealed-segment payload currently in RAM
  std::atomic<bool> pruning_{true};
  mutable std::atomic<int> read_holds_{0};

  // Process-wide metrics; gauges are updated by delta (add/sub) so several
  // stores aggregate instead of overwriting each other, and the destructor
  // rolls this manager's contribution back out.
  obs::Gauge* segments_sealed_gauge_ = nullptr;
  obs::Gauge* segments_evicted_gauge_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
  obs::Counter* seals_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* reloads_total_ = nullptr;
  obs::Counter* q1_skips_ = nullptr;
  obs::Counter* q2_skips_ = nullptr;
  obs::Counter* scan_skips_ = nullptr;
};

}  // namespace horus::graph
