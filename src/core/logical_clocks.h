// Logical-time assignment over the stored causal graph (Section V).
//
// Horus augments every event with:
//  - a Lamport logical clock LC, a scalar with  a -> b  =>  LC(a) < LC(b);
//    it is written into the node property `lamportLogicalTime`, which has an
//    ordered database index — LC range scans are the cheap first-stage
//    bound of every causal query;
//  - a Fidge/Mattern vector clock VC with  a -> b  <=>  VC(a) < VC(b); the
//    exact test used to prune the LC over-approximation. Vectors are kept in
//    an in-memory clock table (they are non-scalar and unsuitable for
//    database indexing, as the paper notes).
//
// The table offers two storage backends behind one API (ClockMode):
//
//  - kFlat: every VC is a dense int32 vector in one append-only arena —
//    O(#timelines) per event. Fastest lookups, but the arena dominates
//    resident memory once the workload reaches thousands of timelines.
//  - kSparse: per-timeline "lanes" store each event's VC as the set of
//    components that *changed* relative to its timeline predecessor (a
//    delta), with periodic full keyframes bounding the reconstruction walk.
//    Components are overwhelmingly unchanged between consecutive events of
//    a timeline (only merged-in histories move), so storage collapses to
//    O(churn) instead of O(#timelines) per event. Reconstruction walks the
//    delta chain latest-record-first: the first occurrence of a component
//    is its current value (a delta is only stored over a base it dominates),
//    and a keyframe terminates the walk.
//
// Assignment is a Kahn-style topological traversal, *incremental* by
// design: a periodic run resumes from the frontier of each timeline and only
// touches events added since the previous run — so the cost scales with the
// number of unprocessed events, not with the total graph size (the property
// measured in Figure 6).
//
// Correct incremental use requires the flush horizon discipline the pipeline
// enforces: when assign() runs, every edge incident to the events being
// assigned must already be persisted. Edges added later between
// already-assigned events would invalidate their clocks; reassign_all()
// recomputes from scratch for such offline scenarios, and repair() heals the
// forward closure of a late edge in place. Delta encoding stays sound
// whether or not a timeline predecessor is also a graph predecessor (the
// intra encoder guarantees it; the separate ExecutionGraph::add_event /
// add_intra_edge calls do not): a record whose base exceeds its VC in some
// component is stored as a keyframe, and before repair() rewrites a record
// it re-encodes the lane successor's delta over the new record.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/execution_graph.h"

namespace horus {

/// VC storage backend of a ClockTable. Threaded from the CLI / service
/// options down through ClockDaemon and LogicalClockAssigner.
enum class ClockMode : std::uint8_t {
  kFlat = 0,    ///< dense per-event vectors in one flat arena
  kSparse = 1,  ///< per-timeline delta lanes with periodic keyframes
};

[[nodiscard]] constexpr const char* to_string(ClockMode mode) noexcept {
  return mode == ClockMode::kSparse ? "sparse" : "flat";
}

/// Parses "flat" / "sparse"; nullopt on anything else (the CLI turns that
/// into a usage error).
[[nodiscard]] std::optional<ClockMode> parse_clock_mode(std::string_view text);

/// A structurally valid clock-table record whose version or storage mode
/// this binary does not support (e.g. a checkpoint written by a newer
/// build). Distinct from plain HorusError corruption so restore paths can
/// report "upgrade the binary" instead of "your checkpoint is damaged".
class ClockFormatError : public HorusError {
 public:
  using HorusError::HorusError;
};

/// Dense per-node clock storage, indexed by graph::NodeId.
class ClockTable {
 public:
  static constexpr std::int32_t kDefaultKeyframeInterval = 16;

  ClockTable() = default;
  explicit ClockTable(ClockMode mode,
                      std::int32_t keyframe_interval = kDefaultKeyframeInterval)
      : mode_(mode),
        keyframe_interval_(keyframe_interval < 1 ? 1 : keyframe_interval) {}

  [[nodiscard]] ClockMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::int32_t keyframe_interval() const noexcept {
    return keyframe_interval_;
  }

  /// Lamport clock of a node (0 = not yet assigned).
  [[nodiscard]] std::int64_t lamport(graph::NodeId node) const {
    return node < lamport_.size() ? lamport_[node] : 0;
  }

  /// Vector clock of a node as a dense span. Component i corresponds to
  /// timeline i; the span may be shorter than the current timeline count
  /// (missing components are zero — timelines discovered later than the
  /// event's assignment).
  ///
  /// kFlat: a view into the arena (scratch untouched), valid until the next
  /// assign()/repair()/reassign_all(). kSparse: reconstructed into
  /// `scratch`, valid until the caller reuses the scratch. Either way the
  /// span must be consumed before the table or the scratch is written again
  /// — holding it across a mutation is the stale-span bug this API shape
  /// exists to prevent.
  [[nodiscard]] std::span<const std::int32_t> vc_span(
      graph::NodeId node, std::vector<std::int32_t>& scratch) const;

  /// Single component VC(node)[timeline] (0 when absent/unassigned).
  /// kFlat: one arena read. kSparse: delta-chain walk bounded by the
  /// keyframe interval, binary-searching each record.
  [[nodiscard]] std::int32_t vc_component(graph::NodeId node,
                                          std::int32_t timeline) const;

  /// Timeline index of a node (-1 if unassigned).
  [[nodiscard]] std::int32_t timeline_of(graph::NodeId node) const {
    return node < timeline_of_.size() ? timeline_of_[node] : -1;
  }

  /// 1-based position of the node within its timeline.
  [[nodiscard]] std::int32_t position(graph::NodeId node) const {
    return node < position_.size() ? position_[node] : 0;
  }

  [[nodiscard]] bool assigned(graph::NodeId node) const {
    return node < lamport_.size() && lamport_[node] != 0;
  }

  [[nodiscard]] std::size_t timeline_count() const {
    return timeline_names_.size();
  }

  /// Elements in the flat VC arena (0 in sparse mode); kept for the flat
  /// arena-size instrumentation and tests.
  [[nodiscard]] std::size_t vc_arena_size() const noexcept {
    return vc_arena_.size();
  }

  /// Resident bytes of the VC store itself, mode-aware: the flat arena plus
  /// its slots, or the sparse lanes (entries, record offsets, flags, node
  /// map) plus repair overflow records. Shared bookkeeping (lamports,
  /// timeline/position columns) is excluded from both so the two modes
  /// compare like for like; the clock daemon exports this as the
  /// clock-bytes gauge and bench_clocks derives bytes/event from it.
  [[nodiscard]] std::size_t clock_bytes() const noexcept;

  [[nodiscard]] const std::string& timeline_name(std::int32_t index) const {
    return timeline_names_[static_cast<std::size_t>(index)];
  }

  /// O(1) happens-before test via the Fidge/Mattern property:
  /// a -> b  iff  VC(b)[timeline(a)] >= position(a), for a != b.
  /// (Sparse mode pays the bounded vc_component walk instead of O(1).)
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  /// Full vector comparison VC(a) < VC(b) (component-wise <=, somewhere <).
  /// Equivalent to happens_before(); kept for tests and for the paper's
  /// formulation of Q1.
  [[nodiscard]] bool vc_less(graph::NodeId a, graph::NodeId b) const;

  /// Renders a node's VC as "[c0,c1,...]" padded to the current timeline
  /// count (display/ShiViz export).
  [[nodiscard]] std::string vc_string(graph::NodeId node) const;

  /// Serializes the full table into a framed binary record (magic, length
  /// prefix, CRC-32 trailer). Flat tables write the HORUSVC1 record
  /// unchanged from earlier releases; sparse tables write HORUSVC2 with a
  /// storage-mode byte. The format pairs with load(); the service
  /// checkpoint writes this next to the graph snapshot so a restarted
  /// daemon resumes incremental assignment instead of recomputing every
  /// clock.
  void save(std::ostream& out) const;

  /// Parses a record written by save(). Throws HorusError on a truncated,
  /// corrupt, or internally inconsistent record (bad magic, short read, CRC
  /// mismatch, slot pointing outside the arena), and ClockFormatError on a
  /// structurally sound record whose version or mode byte this binary does
  /// not understand.
  [[nodiscard]] static ClockTable load(std::istream& in);

 private:
  friend class LogicalClockAssigner;

  /// Offset/length of a node's clock inside the flat arena.
  struct VcSlot {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  /// Per-timeline delta storage (kSparse). Record r (1-based position r)
  /// occupies entries [rec_end[r-2], rec_end[r-1]) of the entry arrays —
  /// contiguous per timeline, so a reconstruction walk reads backward
  /// through one array instead of chasing pointers across a global arena.
  struct SparseLane {
    std::vector<std::int32_t> entry_tl;   ///< component timeline ids (asc)
    std::vector<std::int32_t> entry_val;  ///< component values
    std::vector<std::uint32_t> rec_end;   ///< exclusive end per position
    std::vector<std::uint8_t> flags;      ///< kKeyframeFlag | kOverflowFlag
  };
  static constexpr std::uint8_t kKeyframeFlag = 1;
  static constexpr std::uint8_t kOverflowFlag = 2;
  /// Entry padding left behind when a repair shrinks a record in place;
  /// walkers skip it, and it sorts after every real timeline id so record
  /// binary searches stay valid.
  static constexpr std::int32_t kPadTimeline =
      std::numeric_limits<std::int32_t>::max();

  using SparseRecord = std::vector<std::pair<std::int32_t, std::int32_t>>;

  /// Invokes fn(timeline, value) for every entry of the delta chain ending
  /// at (timeline t, position pos), latest record first, stopping after the
  /// nearest keyframe. First occurrence of a component is its current
  /// value; max over all occurrences equals it too (a delta is stored only
  /// over a base no larger than its VC, see base_exceeds).
  template <typename Fn>
  void walk_sparse(std::int32_t t, std::int32_t pos, Fn&& fn) const;

  /// Reconstructs (t, pos) into `dense` (zero-filled to timeline_count());
  /// returns the used length (max component index + 1).
  std::size_t reconstruct_dense(std::int32_t t, std::int32_t pos,
                                std::vector<std::int32_t>& dense) const;

  /// Appends a VC (dense in `vc`, timeline t, 1-based pos) as a sparse
  /// record: keyframe on the periodic boundary or when build_sparse_record
  /// promotes it, delta against the timeline predecessor otherwise.
  /// `tp_scratch` is caller-provided dense scratch.
  void append_sparse(std::int32_t t, std::int32_t pos,
                     std::span<const std::int32_t> vc,
                     std::vector<std::int32_t>& tp_scratch);

  /// Rewrites the existing record at (t, pos) after a repair raised its VC
  /// or its delta base. Keeps keyframes keyframes (walks of descendants stay
  /// bounded), may promote a delta to a keyframe, and spills records that
  /// outgrow their lane window into overflow_ (rare: repairs only).
  void rewrite_sparse(std::int32_t t, std::int32_t pos,
                      std::span<const std::int32_t> vc,
                      std::vector<std::int32_t>& tp_scratch);

  /// True iff some component of the VC stored at (t, pos) exceeds `vc`.
  /// Reconstruction takes the max along the walk, so a delta over such a
  /// base would over-report: append_sparse and rewrite_sparse store a
  /// keyframe instead (a timeline predecessor that is not a graph
  /// predecessor can be such a base).
  [[nodiscard]] bool base_exceeds(std::int32_t t, std::int32_t pos,
                                  std::span<const std::int32_t> vc) const;

  /// True iff (t, pos) holds a stored delta record (not a keyframe).
  [[nodiscard]] bool is_delta(std::int32_t t, std::int32_t pos) const;

  /// Collects the record for (vc, keyframe-or-delta-vs-tp) into `record`.
  /// `tp_len` is the used length of tp_scratch (delta base); pass 0 with
  /// keyframe=true. Returns whether the record ended up a keyframe (deltas
  /// no smaller than the full sparse form are promoted).
  bool build_sparse_record(std::span<const std::int32_t> vc, bool keyframe,
                           const std::vector<std::int32_t>& tp,
                           std::size_t tp_len, SparseRecord& record) const;

  std::vector<std::int64_t> lamport_;
  std::vector<std::int32_t> vc_arena_;  ///< kFlat: all VCs, back to back
  std::vector<VcSlot> vc_slots_;
  std::vector<std::int32_t> timeline_of_;
  std::vector<std::int32_t> position_;
  std::vector<std::string> timeline_names_;
  std::unordered_map<std::string, std::int32_t, graph::StringHash,
                     std::equal_to<>>
      timeline_ids_;
  std::vector<std::int32_t> timeline_sizes_;  ///< events assigned per timeline

  ClockMode mode_ = ClockMode::kFlat;
  std::int32_t keyframe_interval_ = kDefaultKeyframeInterval;
  std::vector<SparseLane> lanes_;  ///< kSparse: one lane per timeline
  /// Repaired records that outgrew their lane window (kOverflowFlag set on
  /// the position): full replacement entry lists, keyed by
  /// (timeline << 32 | position).
  std::unordered_map<std::uint64_t, SparseRecord> overflow_;

  static constexpr std::uint64_t overflow_key(std::int32_t t,
                                              std::int32_t pos) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)) << 32) |
           static_cast<std::uint32_t>(pos);
  }
};

class LogicalClockAssigner {
 public:
  struct Options {
    /// Also write `lamportLogicalTime` into the graph store (feeding its
    /// ordered index). Disable only for throughput experiments that measure
    /// the traversal alone.
    bool write_lamport_property = true;
    /// VC storage backend (see ClockMode). Both modes produce identical
    /// clocks — the `clocks` differential suite holds them row-for-row
    /// equal — they differ in bytes/event and lookup cost only.
    ClockMode mode = ClockMode::kFlat;
    /// Sparse mode: full keyframe every this many positions per timeline
    /// (bounds the reconstruction walk). Ignored in flat mode.
    std::int32_t keyframe_interval = ClockTable::kDefaultKeyframeInterval;
  };

  explicit LogicalClockAssigner(ExecutionGraph& graph)
      : LogicalClockAssigner(graph, Options{}) {}
  LogicalClockAssigner(ExecutionGraph& graph, Options options);

  /// Assigns clocks to every node added since the previous call (or to all
  /// nodes on the first call). Returns the number of newly assigned nodes.
  /// The scan starts at assigned_prefix(), so its cost follows the new
  /// nodes, not the graph size.
  ///
  /// Throws std::logic_error if the unassigned region contains a cycle
  /// (which would mean the encoders produced a non-DAG).
  std::size_t assign();

  /// Drops all state and recomputes every clock from scratch (keeping the
  /// configured storage mode).
  std::size_t reassign_all();

  /// Targeted heal for edges that landed after both endpoints were assigned
  /// (`dirty_roots` = the heads of the violated edges, as found by the clock
  /// daemon's audit). Recomputes Lamport and vector clocks for the forward
  /// causal closure of the roots only — new constraints can only *raise*
  /// clocks, and only downstream of the late edge, so every node outside the
  /// closure keeps its canonical value. Timelines and positions never change:
  /// the intra encoder writes a timeline's new events together with their
  /// program-order chain, so assign() numbers them in chain order. A late
  /// edge that puts a later position of a timeline into the causal past of
  /// an earlier one contradicts the numbering and cannot be repaired;
  /// RepairResult::positions_contradicted reports it, and the caller must
  /// reassign_all().
  ///
  /// The closure walks out-edges of already-assigned nodes, which in a
  /// segmented store are the recently sealed / active segments — unlike
  /// reassign_all() it does not fault evicted segments back in.
  struct RepairResult {
    /// The nodes whose clocks were recomputed, in topological order.
    std::vector<graph::NodeId> recomputed;
    /// Some recomputed node has a later position of its own timeline in its
    /// causal past; its clocks cannot be made consistent in place.
    bool positions_contradicted = false;
  };
  RepairResult repair(std::span<const graph::NodeId> dirty_roots);

  /// Replaces all assigner state with a table previously produced by
  /// ClockTable::save()/load(). The table's own storage mode wins (a
  /// checkpoint written in sparse mode restores sparse regardless of this
  /// assigner's configured default). The pool-id cache is invalidated (the
  /// restored table's timeline ids need not match the current store's
  /// interning order); the next assign() resumes incrementally from the
  /// restored frontier.
  void restore(ClockTable table);

  [[nodiscard]] const ClockTable& clocks() const noexcept { return table_; }

  /// Every node below this id holds clocks: the end of the region the last
  /// assign() covered, or the restored table's assigned prefix.
  [[nodiscard]] graph::NodeId assigned_prefix() const noexcept {
    return first_unassigned_;
  }

 private:
  /// Table timeline id for a store-interned timeline pool id (interning the
  /// name on first sight). Pool ids are append-only, so the cache is stable.
  std::int32_t timeline_for_pool(std::uint32_t pool_id);

  /// Component-wise max of VC(pred) into the dense accumulator (resizing as
  /// needed) — the storage-mode-aware half of the Kahn recurrence.
  void merge_pred_vc(graph::NodeId pred, std::vector<std::int32_t>& acc) const;

  /// Stores the freshly computed clock of v (assign path: always a new
  /// record/slot).
  void store_new_vc(graph::NodeId v, std::int32_t t, std::int32_t pos,
                    const std::vector<std::int32_t>& vc,
                    std::vector<std::int32_t>& tp_scratch);

  ExecutionGraph& graph_;
  Options options_;
  ClockTable table_;
  std::vector<std::int32_t> timeline_of_pool_;  ///< pool id -> table id cache
  graph::NodeId first_unassigned_ = 0;  ///< see assigned_prefix()
};

}  // namespace horus
