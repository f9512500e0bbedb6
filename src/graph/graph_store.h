// Embedded property-graph store — the repository's Neo4j stand-in.
//
// Feature set (deliberately matching what the Horus paper uses from Neo4j):
//  - labelled nodes with property bags;
//  - typed directed edges;
//  - a label index (all nodes with label L);
//  - hash indexes on (property key, value) for exact-match lookups;
//  - ordered indexes on integer properties for range scans — this is what
//    makes the logical-clock bounding of Section V an index operation
//    instead of a full scan;
//  - batched writes (the encoders flush events/edges in periodic batches).
//
// Storage layout: property keys are interned store-wide into dense PropKeyIds,
// and a handful of hot keys (logical clocks, timestamps, timelines) can be
// promoted to dense per-node columns so the query paths of Fig. 7/8 touch
// flat vectors instead of per-node maps. Cold keys live in a per-node sorted
// (PropKeyId, value) bag. The string-view API survives as a thin interning
// shim; hot paths resolve a key once and use the typed overloads.
//
// A std::shared_mutex allows concurrent readers (queries) with exclusive
// writers (pipeline flushes), mirroring a database's snapshot-ish behaviour
// at the granularity Horus needs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/property.h"

namespace horus::graph {

class SegmentManager;
struct SegmentOptions;

/// Dense node identifier. Nodes are never deleted (an execution trace is
/// append-only), so ids are stable.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

/// Interned edge-type identifier.
using EdgeTypeId = std::uint16_t;

struct Edge {
  NodeId to = kNoNode;
  EdgeTypeId type = 0;

  [[nodiscard]] bool operator==(const Edge&) const = default;
};

/// Both endpoints of one directed edge, as recorded by the edge-insertion
/// log (GraphStore::subscribe_edge_log).
struct EdgeEndpoints {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
};

class GraphStore;

/// Dense read-only view over a direct column (e.g. lamportLogicalTime,
/// timestamp). Values live in a flat vector indexed by NodeId; absent slots
/// hold null. Valid only on the quiesced read path (same contract as
/// out_edges): a concurrent writer may reallocate the backing vector.
class Int64ColumnView {
 public:
  Int64ColumnView() = default;

  [[nodiscard]] bool has(NodeId node) const noexcept {
    return values_ != nullptr && node < values_->size() &&
           std::holds_alternative<std::int64_t>((*values_)[node]);
  }
  /// Value at `node`, or `fallback` when absent / not an int64.
  [[nodiscard]] std::int64_t value_or(NodeId node,
                                      std::int64_t fallback) const noexcept {
    if (values_ == nullptr || node >= values_->size()) return fallback;
    const auto* i = std::get_if<std::int64_t>(&(*values_)[node]);
    return i != nullptr ? *i : fallback;
  }
  /// Number of slots (<= store node count; trailing nodes without the
  /// property may not have slots yet).
  [[nodiscard]] std::size_t size() const noexcept {
    return values_ != nullptr ? values_->size() : 0;
  }
  [[nodiscard]] bool valid() const noexcept { return values_ != nullptr; }

 private:
  friend class GraphStore;
  explicit Int64ColumnView(const std::vector<PropertyValue>* values)
      : values_(values) {}
  const std::vector<PropertyValue>* values_ = nullptr;
};

/// Dense read-only view over an interned (low-cardinality string) column,
/// e.g. timeline or eventType. Each node slot holds a u32 id into the
/// column's value pool; comparing two nodes' values is an integer compare.
/// Same quiesced-read-path contract as Int64ColumnView.
class InternedColumnView {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  InternedColumnView() = default;

  /// Pool id of the node's value, or kAbsent.
  [[nodiscard]] std::uint32_t id_of(NodeId node) const noexcept {
    if (ids_ == nullptr || node >= ids_->size()) return kAbsent;
    return (*ids_)[node];
  }
  /// The pool string for `id` (must be a value previously returned by
  /// id_of(...) != kAbsent).
  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    return (*pool_)[id];
  }
  /// Number of distinct values in the pool.
  [[nodiscard]] std::size_t distinct() const noexcept {
    return pool_ != nullptr ? pool_->size() : 0;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return ids_ != nullptr ? ids_->size() : 0;
  }
  [[nodiscard]] bool valid() const noexcept { return ids_ != nullptr; }

 private:
  friend class GraphStore;
  InternedColumnView(const std::vector<std::uint32_t>* ids,
                     const std::vector<std::string>* pool)
      : ids_(ids), pool_(pool) {}
  const std::vector<std::uint32_t>* ids_ = nullptr;
  const std::vector<std::string>* pool_ = nullptr;
};

class GraphStore {
 public:
  // Both out of line: SegmentManager is incomplete here and the defaulted
  // bodies would instantiate its deleter.
  GraphStore();
  ~GraphStore();

  // Non-copyable, non-movable: the store can be large, holds index state,
  // and is back-referenced by its SegmentManager.
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;
  GraphStore(GraphStore&&) = delete;
  GraphStore& operator=(GraphStore&&) = delete;

  // ---- segmentation --------------------------------------------------------

  /// Turns on segmented storage management (sealing, VC summaries, LRU
  /// eviction — see graph/segment.h). Idempotent-hostile by design: call at
  /// most once, before or after loading a snapshot; existing nodes are
  /// carved into sealed segments plus an active tail.
  SegmentManager& enable_segments(const SegmentOptions& options);

  /// The manager, or nullptr when enable_segments was never called. Query
  /// paths treat nullptr as "monolithic store, nothing to prune or evict".
  [[nodiscard]] SegmentManager* segments() const noexcept {
    return segments_.get();
  }

  // ---- property-key interning ---------------------------------------------

  /// Interns `key`, returning its store-wide id (idempotent).
  PropKeyId intern_prop_key(std::string_view key);

  /// Id of an already-interned key, or kNoPropKey if never seen. Lookups
  /// with kNoPropKey behave as "property absent everywhere".
  [[nodiscard]] PropKeyId prop_key_id(std::string_view key) const;

  [[nodiscard]] const std::string& prop_key_name(PropKeyId key) const;
  [[nodiscard]] std::size_t prop_key_count() const;

  // ---- column promotion ----------------------------------------------------

  /// Promotes `key` to a dense direct column (flat vector<PropertyValue>
  /// indexed by NodeId). Idempotent; existing bag values are migrated. Use
  /// for hot numeric keys (logical clocks, timestamps).
  PropKeyId declare_column(std::string_view key);

  /// Promotes `key` to a dense interned column: per-node u32 ids into a
  /// value pool. Only string (or null) values may be stored under such a
  /// key. Use for hot low-cardinality keys (timeline, eventType, host).
  PropKeyId declare_interned_column(std::string_view key);

  // ---- writes ------------------------------------------------------------

  /// Adds a node; returns its id. O(properties) plus index maintenance.
  NodeId add_node(std::string_view label, PropertyMap properties);

  /// Typed insert: properties arrive already keyed by PropKeyId (from
  /// intern_prop_key). The hot write path for the encoders.
  NodeId add_node_typed(std::string_view label, PropertyList properties);

  /// Adds a directed typed edge.
  void add_edge(NodeId from, NodeId to, std::string_view type);

  /// Sets (or overwrites) one property, maintaining any indexes on its key.
  void set_property(NodeId node, std::string_view key, PropertyValue value);
  void set_property(NodeId node, PropKeyId key, PropertyValue value);

  /// Batch insert of nodes sharing a label; returns first assigned id
  /// (ids are consecutive).
  NodeId add_nodes_batch(std::string_view label,
                         std::vector<PropertyMap> batch);

  /// One node of add_batch(); `label` must stay valid for the call.
  struct NodeInsert {
    std::string_view label;
    PropertyList properties;
  };
  /// An add_batch() edge endpoint: an existing node id, or (batch_local)
  /// the index of a node inserted by the same batch.
  struct BatchRef {
    NodeId id = kNoNode;
    bool batch_local = false;
  };
  struct BatchEdge {
    BatchRef from;
    BatchRef to;
  };

  /// Appends `nodes` (consecutive ids; returns the first) and then `edges`,
  /// all of type `edge_type`, under one exclusive lock: a concurrent reader
  /// sees the whole batch or none of it. The intra encoder writes each
  /// timeline flush this way, so no reader ever sees a timeline's new
  /// events without the program-order chain between them.
  NodeId add_batch(std::vector<NodeInsert> nodes,
                   std::span<const BatchEdge> edges,
                   std::string_view edge_type);

  // ---- edge-insertion log ----------------------------------------------------

  /// Starts recording the endpoints of every edge added from now on, for
  /// one incremental consumer (the clock daemon). Off by default: a store
  /// nobody subscribed to records nothing. Throws std::logic_error when a
  /// consumer is already subscribed.
  void subscribe_edge_log();

  /// Stops recording and frees the unread entries.
  void unsubscribe_edge_log();

  /// Replaces `out` with the edges recorded since the previous drain and
  /// drops them from the log; `out`'s old buffer becomes the log's, so two
  /// alternating buffers sized by one drain interval serve the whole run.
  void drain_edge_log(std::vector<EdgeEndpoints>& out);

  // ---- index management ----------------------------------------------------

  /// Creates an exact-match index on `key` (idempotent). Existing nodes are
  /// back-filled.
  void create_index(std::string_view key);
  void create_index(PropKeyId key);

  /// Creates a range index on integer values of `key` (idempotent).
  void create_ordered_index(std::string_view key);
  void create_ordered_index(PropKeyId key);

  // ---- reads ---------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::size_t edge_count() const;

  [[nodiscard]] const std::string& node_label(NodeId node) const;

  /// Materialised name-keyed view of a node's bag (cold path: serialisation,
  /// debugging). Built on demand — hot paths use property(NodeId, PropKeyId).
  [[nodiscard]] PropertyMap node_properties(NodeId node) const;

  /// Typed view of a node's bag, sorted by PropKeyId. Includes column-stored
  /// values.
  [[nodiscard]] PropertyList node_property_list(NodeId node) const;

  /// Value of a property, or null PropertyValue when absent.
  [[nodiscard]] PropertyValue property(NodeId node, std::string_view key) const;

  /// Typed lookup returning a reference into the store (no copy). The
  /// reference is stable on the quiesced read path only (same contract as
  /// out_edges); concurrent readers racing writers must copy under
  /// property_snapshot. Returns a shared null value when absent.
  [[nodiscard]] const PropertyValue& property(NodeId node, PropKeyId key) const;

  /// Copying typed lookup, safe under concurrent writes.
  [[nodiscard]] PropertyValue property_snapshot(NodeId node,
                                                PropKeyId key) const;

  /// Dense column views for promoted keys; invalid view if `key` was not
  /// declared as the matching column kind. Quiesced-read-path contract.
  [[nodiscard]] Int64ColumnView int64_column(PropKeyId key) const;
  [[nodiscard]] InternedColumnView interned_column(PropKeyId key) const;

  /// Locked scalar reads on interned columns, safe under concurrent writes:
  /// the pool id of a node's value (InternedColumnView::kAbsent when absent),
  /// and a copy of the pool string for a previously observed id.
  [[nodiscard]] std::uint32_t interned_id(NodeId node, PropKeyId key) const;
  [[nodiscard]] std::string interned_name(PropKeyId key,
                                          std::uint32_t pool_id) const;

  /// Adjacency views. The spans point into the store's internal vectors:
  /// they are only safe while no concurrent writer appends edges to this
  /// node (the quiesced read path — queries over a sealed graph). Readers
  /// racing with writers must use the *_snapshot variants.
  [[nodiscard]] std::span<const Edge> out_edges(NodeId node) const;
  [[nodiscard]] std::span<const Edge> in_edges(NodeId node) const;

  /// Copying adjacency accessors, safe under concurrent writes.
  [[nodiscard]] std::vector<Edge> out_edges_snapshot(NodeId node) const;
  [[nodiscard]] std::vector<Edge> in_edges_snapshot(NodeId node) const;

  [[nodiscard]] const std::string& edge_type_name(EdgeTypeId type) const;
  /// Interned id of a type name, or nullopt if never seen.
  [[nodiscard]] std::optional<EdgeTypeId> edge_type_id(
      std::string_view type) const;

  /// All nodes carrying `label` (insertion order).
  [[nodiscard]] std::vector<NodeId> nodes_with_label(
      std::string_view label) const;

  /// All node ids, 0..node_count() — convenience for full scans.
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

  /// Exact-match lookup via hash index; falls back to a full scan when no
  /// index exists on `key` (like a database without an index would).
  [[nodiscard]] std::vector<NodeId> find_nodes(std::string_view key,
                                               const PropertyValue& value) const;
  [[nodiscard]] std::vector<NodeId> find_nodes(PropKeyId key,
                                               const PropertyValue& value) const;

  /// Range scan [lo, hi] over an ordered integer index. Requires
  /// create_ordered_index(key) to have been called; throws otherwise.
  [[nodiscard]] std::vector<NodeId> range_scan(std::string_view key,
                                               std::int64_t lo,
                                               std::int64_t hi) const;
  [[nodiscard]] std::vector<NodeId> range_scan(PropKeyId key, std::int64_t lo,
                                               std::int64_t hi) const;

  /// True if an ordered index exists on `key`.
  [[nodiscard]] bool has_ordered_index(std::string_view key) const;
  [[nodiscard]] bool has_ordered_index(PropKeyId key) const;

  // ---- column statistics (query planner) -----------------------------------

  /// Interned id of a label name, or nullopt when no node ever carried it.
  [[nodiscard]] std::optional<std::uint32_t> label_id(
      std::string_view label) const;

  /// Interned label id of a node (pairs with label_id: checking a batch of
  /// candidates against one label is an integer compare per node).
  [[nodiscard]] std::uint32_t node_label_id(NodeId node) const;

  /// Number of nodes carrying `label` (0 when unknown).
  [[nodiscard]] std::size_t label_count(std::string_view label) const;

  /// True if a hash index exists on `key`.
  [[nodiscard]] bool has_index(PropKeyId key) const;

  /// Exact size of the hash-index bucket for (key, value) — the planner's
  /// cardinality estimate for an equality scan. nullopt when `key` has no
  /// hash index.
  [[nodiscard]] std::optional<std::size_t> index_count(
      PropKeyId key, const PropertyValue& value) const;

  /// O(1) summary of an ordered index, for range-selectivity estimation.
  struct OrderedIndexStats {
    std::int64_t min_value = 0;
    std::int64_t max_value = 0;
    std::size_t distinct_keys = 0;
  };
  /// Stats of the ordered index on `key`; nullopt when there is no ordered
  /// index or it is empty.
  [[nodiscard]] std::optional<OrderedIndexStats> ordered_index_stats(
      PropKeyId key) const;

  /// Pool id of `value` in an interned column, or nullopt when `key` is not
  /// an interned column or the value was never stored under it. Batch
  /// equality against the constant is then an integer compare per node
  /// (interned_column), with no string access at all.
  [[nodiscard]] std::optional<std::uint32_t> interned_value_id(
      PropKeyId key, std::string_view value) const;

  /// Distinct-value count of an interned column (0 when not interned) —
  /// the planner's 1/distinct equality selectivity.
  [[nodiscard]] std::size_t interned_distinct(PropKeyId key) const;

 private:
  friend class SegmentManager;

  struct NodeRecord {
    std::uint32_t label = 0;  // interned label id
    PropertyList properties;  // cold keys only, sorted by PropKeyId
    std::vector<Edge> out;
    std::vector<Edge> in;
  };

  /// A promoted (dense) column. Direct columns store PropertyValue slots
  /// (monostate = absent); interned columns store u32 ids into a string pool.
  struct DenseColumn {
    bool interned = false;
    std::vector<PropertyValue> values;  // direct
    std::vector<std::uint32_t> ids;     // interned
    std::vector<std::string> pool;      // interned: distinct values
    // PropertyValue copies of pool entries, maintained on the write path so
    // the typed property() lookup can return a reference without allocating.
    std::vector<PropertyValue> pool_values;
    std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
        pool_ids;
  };

  // Must be called with lock held.
  std::uint32_t intern_label(std::string_view label);
  EdgeTypeId intern_edge_type(std::string_view type);
  PropKeyId intern_prop_key_locked(std::string_view key);
  void index_insert_locked(NodeId node, PropKeyId key,
                           const PropertyValue& value);
  void index_erase_locked(NodeId node, PropKeyId key,
                          const PropertyValue& value);
  NodeId add_node_locked(std::string_view label, PropertyList properties);
  void add_edge_locked(NodeId from, NodeId to, EdgeTypeId type);
  void set_property_locked(NodeId node, PropKeyId key, PropertyValue value);
  /// Pointer to the node's value for `key` (column or bag), or nullptr.
  /// For interned columns the returned pointer aliases the pool entry.
  [[nodiscard]] const PropertyValue* find_property_locked(NodeId node,
                                                          PropKeyId key) const;
  /// Collects (key, value) pairs for a node, columns included, sorted by id.
  [[nodiscard]] PropertyList collect_properties_locked(NodeId node) const;
  PropertyList intern_map_locked(PropertyMap properties);
  [[nodiscard]] std::vector<NodeId> find_nodes_locked(
      PropKeyId key, const PropertyValue& value) const;
  [[nodiscard]] std::vector<NodeId> range_scan_locked(
      PropKeyId key, std::int64_t lo, std::int64_t hi,
      std::string_view name) const;

  mutable std::shared_mutex mutex_;

  std::vector<NodeRecord> nodes_;
  std::size_t edge_count_ = 0;

  /// Edge-insertion log: recorded only while a consumer is subscribed, and
  /// holds only what it has not drained yet.
  bool edge_log_subscribed_ = false;
  std::vector<EdgeEndpoints> edge_log_;

  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      label_ids_;
  std::unordered_map<std::uint32_t, std::vector<NodeId>> label_index_;

  std::vector<std::string> edge_types_;
  std::unordered_map<std::string, EdgeTypeId, StringHash, std::equal_to<>>
      edge_type_ids_;

  std::vector<std::string> prop_keys_;
  std::unordered_map<std::string, PropKeyId, StringHash, std::equal_to<>>
      prop_key_ids_;

  /// Keyed by PropKeyId; only promoted keys have entries. Values are
  /// unique_ptr-free stable maps: node ids index into the column vectors.
  std::unordered_map<PropKeyId, DenseColumn> columns_;

  using HashIndex =
      std::unordered_map<PropertyValue, std::vector<NodeId>, PropertyValueHash,
                         PropertyValueEq>;
  std::unordered_map<PropKeyId, HashIndex> hash_indexes_;

  using OrderedIndex = std::map<std::int64_t, std::vector<NodeId>>;
  std::unordered_map<PropKeyId, OrderedIndex> ordered_indexes_;

  /// Present only after enable_segments(). The manager shares mutex_ and
  /// receives write-path callbacks (node added, property write, edge added)
  /// with the lock already held; read accessors fault evicted segments back
  /// in before dereferencing node payloads.
  std::unique_ptr<SegmentManager> segments_;

  /// Shared-lock read helper: true when `node`'s payload is resident (or
  /// segmentation is off). Readers seeing false must upgrade to a unique
  /// lock and fault the segment in.
  [[nodiscard]] bool payload_resident_locked(NodeId node) const;
  /// Unique-lock fault-in of the segment owning `node` (no-op when off).
  void ensure_payload_resident(NodeId node) const;
  /// Runs `fn` under a shared lock with `node`'s payload guaranteed
  /// resident, faulting its segment in first when needed. `column_key`
  /// (when a declared column) bypasses the residency requirement.
  template <typename Fn>
  decltype(auto) with_payload_locked(NodeId node, PropKeyId column_key,
                                     Fn&& fn) const;
};

}  // namespace horus::graph
