#include "graph/graph_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/segment.h"

namespace horus::graph {

namespace {
[[noreturn]] void bad_node(NodeId node) {
  throw std::out_of_range("graph: invalid node id " + std::to_string(node));
}

const PropertyValue kNullValue{};

/// Sorted-bag lookup by key id.
PropertyList::const_iterator bag_find(const PropertyList& bag, PropKeyId key) {
  auto it = std::lower_bound(
      bag.begin(), bag.end(), key,
      [](const auto& entry, PropKeyId k) { return entry.first < k; });
  if (it != bag.end() && it->first == key) return it;
  return bag.end();
}

PropertyList::iterator bag_lower_bound(PropertyList& bag, PropKeyId key) {
  return std::lower_bound(
      bag.begin(), bag.end(), key,
      [](const auto& entry, PropKeyId k) { return entry.first < k; });
}
}  // namespace

// Out of line: SegmentManager is an incomplete type in the header.
GraphStore::GraphStore() = default;
GraphStore::~GraphStore() = default;

// ---------------------------------------------------------------------------
// segmentation
// ---------------------------------------------------------------------------

SegmentManager& GraphStore::enable_segments(const SegmentOptions& options) {
  const std::unique_lock lock(mutex_);
  if (segments_ != nullptr) {
    throw std::logic_error("graph: segments already enabled on this store");
  }
  segments_.reset(new SegmentManager(*this, options));
  return *segments_;
}

bool GraphStore::payload_resident_locked(NodeId node) const {
  return segments_ == nullptr || segments_->resident_for_locked(node);
}

void GraphStore::ensure_payload_resident(NodeId node) const {
  if (segments_ == nullptr) return;
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) return;
  segments_->ensure_resident_locked(node);
}

/// Shared-lock read helper with transparent fault-in: runs `fn` under a
/// shared lock once `node`'s payload is resident. `column_key` short-circuits
/// the residency check for reads satisfied by a dense column (columns never
/// evict) so pruned query paths touching only clock columns do not fault
/// evicted segments back in.
template <typename Fn>
decltype(auto) GraphStore::with_payload_locked(NodeId node,
                                               PropKeyId column_key,
                                               Fn&& fn) const {
  for (;;) {
    {
      const std::shared_lock lock(mutex_);
      if (node >= nodes_.size()) bad_node(node);
      if (segments_ == nullptr ||
          (column_key != kNoPropKey && columns_.contains(column_key)) ||
          payload_resident_locked(node)) {
        return fn();
      }
    }
    // Evicted: upgrade to a unique lock, fault the segment in, retry (a
    // concurrent evictor may race the re-acquisition).
    ensure_payload_resident(node);
  }
}

// ---------------------------------------------------------------------------
// interning
// ---------------------------------------------------------------------------

std::uint32_t GraphStore::intern_label(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace_back(label);
  label_ids_.emplace(std::string(label), id);
  return id;
}

EdgeTypeId GraphStore::intern_edge_type(std::string_view type) {
  auto it = edge_type_ids_.find(type);
  if (it != edge_type_ids_.end()) return it->second;
  const auto id = static_cast<EdgeTypeId>(edge_types_.size());
  edge_types_.emplace_back(type);
  edge_type_ids_.emplace(std::string(type), id);
  return id;
}

PropKeyId GraphStore::intern_prop_key_locked(std::string_view key) {
  auto it = prop_key_ids_.find(key);
  if (it != prop_key_ids_.end()) return it->second;
  const auto id = static_cast<PropKeyId>(prop_keys_.size());
  prop_keys_.emplace_back(key);
  prop_key_ids_.emplace(std::string(key), id);
  return id;
}

PropKeyId GraphStore::intern_prop_key(std::string_view key) {
  const std::unique_lock lock(mutex_);
  return intern_prop_key_locked(key);
}

PropKeyId GraphStore::prop_key_id(std::string_view key) const {
  const std::shared_lock lock(mutex_);
  auto it = prop_key_ids_.find(key);
  if (it == prop_key_ids_.end()) return kNoPropKey;
  return it->second;
}

const std::string& GraphStore::prop_key_name(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return prop_keys_.at(key);
}

std::size_t GraphStore::prop_key_count() const {
  const std::shared_lock lock(mutex_);
  return prop_keys_.size();
}

// ---------------------------------------------------------------------------
// column promotion
// ---------------------------------------------------------------------------

PropKeyId GraphStore::declare_column(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [cit, inserted] = columns_.try_emplace(id);
  if (!inserted) {
    if (cit->second.interned) {
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' already declared as an interned column");
    }
    return id;
  }
  DenseColumn& col = cit->second;
  col.interned = false;
  // Migrate existing bag values into the column.
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    auto& bag = nodes_[node].properties;
    auto it = bag_lower_bound(bag, id);
    if (it == bag.end() || it->first != id) continue;
    if (col.values.size() <= node) col.values.resize(node + 1);
    col.values[node] = std::move(it->second);
    bag.erase(it);
  }
  return id;
}

PropKeyId GraphStore::declare_interned_column(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [cit, inserted] = columns_.try_emplace(id);
  if (!inserted) {
    if (!cit->second.interned) {
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' already declared as a direct column");
    }
    return id;
  }
  DenseColumn& col = cit->second;
  col.interned = true;
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    auto& bag = nodes_[node].properties;
    auto it = bag_lower_bound(bag, id);
    if (it == bag.end() || it->first != id) continue;
    const auto* s = std::get_if<std::string>(&it->second);
    if (s == nullptr) {
      columns_.erase(id);
      throw std::logic_error("graph: key '" + std::string(key) +
                             "' holds non-string values; cannot intern");
    }
    std::uint32_t pool_id;
    if (auto pit = col.pool_ids.find(*s); pit != col.pool_ids.end()) {
      pool_id = pit->second;
    } else {
      pool_id = static_cast<std::uint32_t>(col.pool.size());
      col.pool.push_back(*s);
      col.pool_values.emplace_back(*s);
      col.pool_ids.emplace(*s, pool_id);
    }
    if (col.ids.size() <= node) {
      col.ids.resize(node + 1, InternedColumnView::kAbsent);
    }
    col.ids[node] = pool_id;
    bag.erase(it);
  }
  return id;
}

// ---------------------------------------------------------------------------
// property plumbing (lock held)
// ---------------------------------------------------------------------------

const PropertyValue* GraphStore::find_property_locked(NodeId node,
                                                      PropKeyId key) const {
  if (key >= prop_keys_.size()) return nullptr;
  if (auto cit = columns_.find(key); cit != columns_.end()) {
    const DenseColumn& col = cit->second;
    if (col.interned) {
      if (node >= col.ids.size()) return nullptr;
      const std::uint32_t id = col.ids[node];
      if (id == InternedColumnView::kAbsent) return nullptr;
      return &col.pool_values[id];
    }
    if (node >= col.values.size()) return nullptr;
    const PropertyValue& v = col.values[node];
    if (std::holds_alternative<std::monostate>(v)) return nullptr;
    return &v;
  }
  const auto& bag = nodes_[node].properties;
  auto it = bag_find(bag, key);
  if (it == bag.end()) return nullptr;
  return &it->second;
}

void GraphStore::index_insert_locked(NodeId node, PropKeyId key,
                                     const PropertyValue& value) {
  if (auto hit = hash_indexes_.find(key); hit != hash_indexes_.end()) {
    hit->second[value].push_back(node);
  }
  if (auto oit = ordered_indexes_.find(key); oit != ordered_indexes_.end()) {
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      oit->second[*i].push_back(node);
    }
  }
}

void GraphStore::index_erase_locked(NodeId node, PropKeyId key,
                                    const PropertyValue& value) {
  if (auto hit = hash_indexes_.find(key); hit != hash_indexes_.end()) {
    if (auto vit = hit->second.find(value); vit != hit->second.end()) {
      std::erase(vit->second, node);
    }
  }
  if (auto oit = ordered_indexes_.find(key); oit != ordered_indexes_.end()) {
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      if (auto vit = oit->second.find(*i); vit != oit->second.end()) {
        std::erase(vit->second, node);
        if (vit->second.empty()) oit->second.erase(vit);
      }
    }
  }
}

void GraphStore::set_property_locked(NodeId node, PropKeyId key,
                                     PropertyValue value) {
  if (const PropertyValue* old = find_property_locked(node, key)) {
    index_erase_locked(node, key, *old);
  }
  auto cit = columns_.find(key);
  if (cit != columns_.end()) {
    DenseColumn& col = cit->second;
    if (col.interned) {
      if (const auto* s = std::get_if<std::string>(&value)) {
        std::uint32_t pool_id;
        if (auto pit = col.pool_ids.find(*s); pit != col.pool_ids.end()) {
          pool_id = pit->second;
        } else {
          pool_id = static_cast<std::uint32_t>(col.pool.size());
          col.pool.push_back(*s);
          col.pool_values.emplace_back(*s);
          col.pool_ids.emplace(*s, pool_id);
        }
        if (col.ids.size() <= node) {
          col.ids.resize(node + 1, InternedColumnView::kAbsent);
        }
        col.ids[node] = pool_id;
        index_insert_locked(node, key, col.pool_values[pool_id]);
        return;
      }
      if (std::holds_alternative<std::monostate>(value)) {
        if (node < col.ids.size()) col.ids[node] = InternedColumnView::kAbsent;
        return;
      }
      throw std::logic_error("graph: interned column '" + prop_keys_[key] +
                             "' only stores strings");
    }
    if (col.values.size() <= node) col.values.resize(node + 1);
    col.values[node] = std::move(value);
    const PropertyValue& stored = col.values[node];
    if (!std::holds_alternative<std::monostate>(stored)) {
      index_insert_locked(node, key, stored);
    }
    return;
  }
  auto& bag = nodes_[node].properties;
  auto it = bag_lower_bound(bag, key);
  if (it != bag.end() && it->first == key) {
    it->second = std::move(value);
    index_insert_locked(node, key, it->second);
  } else {
    it = bag.emplace(it, key, std::move(value));
    index_insert_locked(node, key, it->second);
  }
}

PropertyList GraphStore::collect_properties_locked(NodeId node) const {
  PropertyList out = nodes_[node].properties;
  for (const auto& [key, col] : columns_) {
    if (col.interned) {
      if (node < col.ids.size() && col.ids[node] != InternedColumnView::kAbsent)
        out.emplace_back(key, col.pool_values[col.ids[node]]);
    } else if (node < col.values.size() &&
               !std::holds_alternative<std::monostate>(col.values[node])) {
      out.emplace_back(key, col.values[node]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

PropertyList GraphStore::intern_map_locked(PropertyMap properties) {
  PropertyList list;
  list.reserve(properties.size());
  for (auto& [key, value] : properties) {
    list.emplace_back(intern_prop_key_locked(key), std::move(value));
  }
  return list;
}

// ---------------------------------------------------------------------------
// writes
// ---------------------------------------------------------------------------

NodeId GraphStore::add_node_locked(std::string_view label,
                                   PropertyList properties) {
  const auto id = static_cast<NodeId>(nodes_.size());
  NodeRecord rec;
  rec.label = intern_label(label);
  label_index_[rec.label].push_back(id);
  nodes_.push_back(std::move(rec));
  for (auto& [key, value] : properties) {
    set_property_locked(id, key, std::move(value));
  }
  // After the property loop: sealing (and a possible budget eviction) must
  // only ever see fully-written nodes.
  if (segments_ != nullptr) segments_->on_node_added_locked(id);
  return id;
}

NodeId GraphStore::add_node(std::string_view label, PropertyMap properties) {
  const std::unique_lock lock(mutex_);
  return add_node_locked(label, intern_map_locked(std::move(properties)));
}

NodeId GraphStore::add_node_typed(std::string_view label,
                                  PropertyList properties) {
  const std::unique_lock lock(mutex_);
  for (const auto& [key, value] : properties) {
    if (key >= prop_keys_.size()) {
      throw std::out_of_range("graph: unknown property key id " +
                              std::to_string(key));
    }
  }
  return add_node_locked(label, std::move(properties));
}

NodeId GraphStore::add_nodes_batch(std::string_view label,
                                   std::vector<PropertyMap> batch) {
  const std::unique_lock lock(mutex_);
  const auto first = static_cast<NodeId>(nodes_.size());
  for (auto& props : batch) {
    add_node_locked(label, intern_map_locked(std::move(props)));
  }
  return first;
}

void GraphStore::add_edge_locked(NodeId from, NodeId to, EdgeTypeId type) {
  if (from >= nodes_.size()) bad_node(from);
  if (to >= nodes_.size()) bad_node(to);
  if (segments_ != nullptr) {
    // Both adjacency lists must be in memory before appending.
    segments_->ensure_resident_locked(from);
    segments_->ensure_resident_locked(to);
  }
  nodes_[from].out.push_back(Edge{to, type});
  nodes_[to].in.push_back(Edge{from, type});
  ++edge_count_;
  if (edge_log_subscribed_) edge_log_.push_back(EdgeEndpoints{from, to});
  if (segments_ != nullptr) segments_->on_edge_added_locked(from, to);
}

void GraphStore::add_edge(NodeId from, NodeId to, std::string_view type) {
  const std::unique_lock lock(mutex_);
  add_edge_locked(from, to, intern_edge_type(type));
}

NodeId GraphStore::add_batch(std::vector<NodeInsert> nodes,
                             std::span<const BatchEdge> edges,
                             std::string_view edge_type) {
  const std::unique_lock lock(mutex_);
  const auto first = static_cast<NodeId>(nodes_.size());
  // Validate everything before the first write, so a bad batch leaves the
  // store untouched.
  for (const NodeInsert& node : nodes) {
    for (const auto& [key, value] : node.properties) {
      if (key >= prop_keys_.size()) {
        throw std::out_of_range("graph: unknown property key id " +
                                std::to_string(key));
      }
    }
  }
  const auto resolve = [&](BatchRef ref) {
    if (!ref.batch_local) {
      if (ref.id >= first) bad_node(ref.id);
      return ref.id;
    }
    if (ref.id >= nodes.size()) bad_node(first + ref.id);
    return first + ref.id;
  };
  for (const BatchEdge& e : edges) {
    (void)resolve(e.from);
    (void)resolve(e.to);
  }
  for (NodeInsert& node : nodes) {
    add_node_locked(node.label, std::move(node.properties));
  }
  const EdgeTypeId tid = intern_edge_type(edge_type);
  for (const BatchEdge& e : edges) {
    add_edge_locked(resolve(e.from), resolve(e.to), tid);
  }
  return first;
}

void GraphStore::subscribe_edge_log() {
  const std::unique_lock lock(mutex_);
  if (edge_log_subscribed_) {
    throw std::logic_error("graph: edge log already has a subscriber");
  }
  edge_log_subscribed_ = true;
}

void GraphStore::unsubscribe_edge_log() {
  const std::unique_lock lock(mutex_);
  edge_log_subscribed_ = false;
  std::vector<EdgeEndpoints>().swap(edge_log_);
}

void GraphStore::drain_edge_log(std::vector<EdgeEndpoints>& out) {
  out.clear();
  const std::unique_lock lock(mutex_);
  out.swap(edge_log_);
}

void GraphStore::set_property(NodeId node, std::string_view key,
                              PropertyValue value) {
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  if (segments_ != nullptr) segments_->ensure_resident_locked(node);
  set_property_locked(node, intern_prop_key_locked(key), std::move(value));
  if (segments_ != nullptr) segments_->on_property_write_locked(node);
}

void GraphStore::set_property(NodeId node, PropKeyId key, PropertyValue value) {
  const std::unique_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  if (segments_ != nullptr) segments_->ensure_resident_locked(node);
  set_property_locked(node, key, std::move(value));
  if (segments_ != nullptr) segments_->on_property_write_locked(node);
}

// ---------------------------------------------------------------------------
// indexes
// ---------------------------------------------------------------------------

void GraphStore::create_index(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [it, inserted] = hash_indexes_.try_emplace(id);
  if (!inserted) return;
  // Backfill scans every bag; evicted segments must come back first.
  if (segments_ != nullptr && !columns_.contains(id)) {
    segments_->reload_all_locked();
  }
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    if (const PropertyValue* v = find_property_locked(node, id)) {
      it->second[*v].push_back(node);
    }
  }
}

void GraphStore::create_index(PropKeyId key) {
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  auto [it, inserted] = hash_indexes_.try_emplace(key);
  if (!inserted) return;
  if (segments_ != nullptr && !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    if (const PropertyValue* v = find_property_locked(node, key)) {
      it->second[*v].push_back(node);
    }
  }
}

void GraphStore::create_ordered_index(std::string_view key) {
  const std::unique_lock lock(mutex_);
  const PropKeyId id = intern_prop_key_locked(key);
  auto [it, inserted] = ordered_indexes_.try_emplace(id);
  if (!inserted) return;
  if (segments_ != nullptr && !columns_.contains(id)) {
    segments_->reload_all_locked();
  }
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    if (const PropertyValue* v = find_property_locked(node, id)) {
      if (const auto* i = std::get_if<std::int64_t>(v)) {
        it->second[*i].push_back(node);
      }
    }
  }
}

void GraphStore::create_ordered_index(PropKeyId key) {
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) {
    throw std::out_of_range("graph: unknown property key id " +
                            std::to_string(key));
  }
  auto [it, inserted] = ordered_indexes_.try_emplace(key);
  if (!inserted) return;
  if (segments_ != nullptr && !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    if (const PropertyValue* v = find_property_locked(node, key)) {
      if (const auto* i = std::get_if<std::int64_t>(v)) {
        it->second[*i].push_back(node);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// reads
// ---------------------------------------------------------------------------

std::size_t GraphStore::node_count() const {
  const std::shared_lock lock(mutex_);
  return nodes_.size();
}

std::size_t GraphStore::edge_count() const {
  const std::shared_lock lock(mutex_);
  return edge_count_;
}

const std::string& GraphStore::node_label(NodeId node) const {
  const std::shared_lock lock(mutex_);
  if (node >= nodes_.size()) bad_node(node);
  return labels_[nodes_[node].label];
}

PropertyMap GraphStore::node_properties(NodeId node) const {
  return with_payload_locked(node, kNoPropKey, [&] {
    PropertyMap out;
    for (auto& [key, value] : collect_properties_locked(node)) {
      out.emplace(prop_keys_[key], std::move(value));
    }
    return out;
  });
}

PropertyList GraphStore::node_property_list(NodeId node) const {
  return with_payload_locked(
      node, kNoPropKey, [&] { return collect_properties_locked(node); });
}

PropertyValue GraphStore::property(NodeId node, std::string_view key) const {
  PropKeyId id = kNoPropKey;
  {
    const std::shared_lock lock(mutex_);
    auto it = prop_key_ids_.find(key);
    if (it == prop_key_ids_.end()) {
      if (node >= nodes_.size()) bad_node(node);
      return std::monostate{};
    }
    id = it->second;
  }
  return with_payload_locked(node, id, [&]() -> PropertyValue {
    if (const PropertyValue* v = find_property_locked(node, id)) return *v;
    return std::monostate{};
  });
}

const PropertyValue& GraphStore::property(NodeId node, PropKeyId key) const {
  return with_payload_locked(node, key, [&]() -> const PropertyValue& {
    if (const PropertyValue* v = find_property_locked(node, key)) return *v;
    return kNullValue;
  });
}

PropertyValue GraphStore::property_snapshot(NodeId node, PropKeyId key) const {
  return with_payload_locked(node, key, [&]() -> PropertyValue {
    if (const PropertyValue* v = find_property_locked(node, key)) return *v;
    return std::monostate{};
  });
}

Int64ColumnView GraphStore::int64_column(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || cit->second.interned) return {};
  return Int64ColumnView(&cit->second.values);
}

InternedColumnView GraphStore::interned_column(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) return {};
  return InternedColumnView(&cit->second.ids, &cit->second.pool);
}

std::uint32_t GraphStore::interned_id(NodeId node, PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) {
    return InternedColumnView::kAbsent;
  }
  const DenseColumn& col = cit->second;
  if (node >= col.ids.size()) return InternedColumnView::kAbsent;
  return col.ids[node];
}

std::string GraphStore::interned_name(PropKeyId key,
                                      std::uint32_t pool_id) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) {
    throw std::logic_error("graph: key id " + std::to_string(key) +
                           " is not an interned column");
  }
  return cit->second.pool.at(pool_id);
}

std::span<const Edge> GraphStore::out_edges(NodeId node) const {
  // Adjacency vectors are append-only and nodes_ never shrinks; the span
  // stays valid as long as no concurrent writer reallocates. Callers running
  // queries against a quiesced store (the Horus read path) rely on this;
  // with segments enabled they additionally hold a SegmentManager::ReadHold
  // so a concurrent evictor cannot free the vector under the span.
  return with_payload_locked(node, kNoPropKey, [&]() -> std::span<const Edge> {
    return nodes_[node].out;
  });
}

std::span<const Edge> GraphStore::in_edges(NodeId node) const {
  return with_payload_locked(node, kNoPropKey, [&]() -> std::span<const Edge> {
    return nodes_[node].in;
  });
}

std::vector<Edge> GraphStore::out_edges_snapshot(NodeId node) const {
  return with_payload_locked(node, kNoPropKey,
                             [&]() -> std::vector<Edge> {
                               return nodes_[node].out;
                             });
}

std::vector<Edge> GraphStore::in_edges_snapshot(NodeId node) const {
  return with_payload_locked(node, kNoPropKey,
                             [&]() -> std::vector<Edge> {
                               return nodes_[node].in;
                             });
}

const std::string& GraphStore::edge_type_name(EdgeTypeId type) const {
  const std::shared_lock lock(mutex_);
  return edge_types_.at(type);
}

std::optional<EdgeTypeId> GraphStore::edge_type_id(
    std::string_view type) const {
  const std::shared_lock lock(mutex_);
  auto it = edge_type_ids_.find(type);
  if (it == edge_type_ids_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> GraphStore::nodes_with_label(std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return {};
  auto iit = label_index_.find(lit->second);
  if (iit == label_index_.end()) return {};
  return iit->second;
}

std::vector<NodeId> GraphStore::all_nodes() const {
  const std::shared_lock lock(mutex_);
  std::vector<NodeId> out(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) out[id] = id;
  return out;
}

std::vector<NodeId> GraphStore::find_nodes(std::string_view key,
                                           const PropertyValue& value) const {
  PropKeyId id = kNoPropKey;
  {
    const std::shared_lock lock(mutex_);
    auto kit = prop_key_ids_.find(key);
    if (kit == prop_key_ids_.end()) return {};
    id = kit->second;
  }
  return find_nodes(id, value);
}

std::vector<NodeId> GraphStore::find_nodes(PropKeyId key,
                                           const PropertyValue& value) const {
  {
    const std::shared_lock lock(mutex_);
    if (key >= prop_keys_.size()) return {};
    // Indexed lookups and column scans never touch evicted payloads.
    if (segments_ == nullptr || hash_indexes_.contains(key) ||
        columns_.contains(key)) {
      return find_nodes_locked(key, value);
    }
  }
  // Unindexed bag scan: every segment's bags must be in memory.
  const std::unique_lock lock(mutex_);
  if (key >= prop_keys_.size()) return {};
  if (segments_ != nullptr && !hash_indexes_.contains(key) &&
      !columns_.contains(key)) {
    segments_->reload_all_locked();
  }
  return find_nodes_locked(key, value);
}

std::vector<NodeId> GraphStore::find_nodes_locked(
    PropKeyId key, const PropertyValue& value) const {
  auto hit = hash_indexes_.find(key);
  if (hit != hash_indexes_.end()) {
    auto vit = hit->second.find(value);
    if (vit == hit->second.end()) return {};
    return vit->second;
  }
  // No index: full scan, like a database query planner falling back.
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const PropertyValue* v = find_property_locked(id, key);
    if (v != nullptr && property_equals(*v, value)) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> GraphStore::range_scan(std::string_view key,
                                           std::int64_t lo,
                                           std::int64_t hi) const {
  const std::shared_lock lock(mutex_);
  auto kit = prop_key_ids_.find(key);
  if (kit == prop_key_ids_.end()) {
    throw std::logic_error("graph: no ordered index on '" + std::string(key) +
                           "'");
  }
  return range_scan_locked(kit->second, lo, hi, key);
}

std::vector<NodeId> GraphStore::range_scan(PropKeyId key, std::int64_t lo,
                                           std::int64_t hi) const {
  const std::shared_lock lock(mutex_);
  const std::string_view name =
      key < prop_keys_.size() ? std::string_view(prop_keys_[key])
                              : std::string_view("<unknown key>");
  return range_scan_locked(key, lo, hi, name);
}

std::vector<NodeId> GraphStore::range_scan_locked(PropKeyId key,
                                                  std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::string_view name) const {
  auto oit = ordered_indexes_.find(key);
  if (oit == ordered_indexes_.end()) {
    throw std::logic_error("graph: no ordered index on '" + std::string(name) +
                           "'");
  }
  std::vector<NodeId> out;
  for (auto it = oit->second.lower_bound(lo);
       it != oit->second.end() && it->first <= hi; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

bool GraphStore::has_ordered_index(std::string_view key) const {
  const std::shared_lock lock(mutex_);
  auto kit = prop_key_ids_.find(key);
  if (kit == prop_key_ids_.end()) return false;
  return ordered_indexes_.contains(kit->second);
}

bool GraphStore::has_ordered_index(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return ordered_indexes_.contains(key);
}

std::optional<std::uint32_t> GraphStore::label_id(
    std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return std::nullopt;
  return lit->second;
}

std::uint32_t GraphStore::node_label_id(NodeId node) const {
  const std::shared_lock lock(mutex_);
  return nodes_.at(node).label;
}

std::size_t GraphStore::label_count(std::string_view label) const {
  const std::shared_lock lock(mutex_);
  auto lit = label_ids_.find(label);
  if (lit == label_ids_.end()) return 0;
  auto iit = label_index_.find(lit->second);
  return iit == label_index_.end() ? 0 : iit->second.size();
}

bool GraphStore::has_index(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  return hash_indexes_.contains(key);
}

std::optional<std::size_t> GraphStore::index_count(
    PropKeyId key, const PropertyValue& value) const {
  const std::shared_lock lock(mutex_);
  auto hit = hash_indexes_.find(key);
  if (hit == hash_indexes_.end()) return std::nullopt;
  auto vit = hit->second.find(value);
  return vit == hit->second.end() ? 0 : vit->second.size();
}

std::optional<GraphStore::OrderedIndexStats> GraphStore::ordered_index_stats(
    PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto oit = ordered_indexes_.find(key);
  if (oit == ordered_indexes_.end() || oit->second.empty()) {
    return std::nullopt;
  }
  OrderedIndexStats stats;
  stats.min_value = oit->second.begin()->first;
  stats.max_value = oit->second.rbegin()->first;
  stats.distinct_keys = oit->second.size();
  return stats;
}

std::optional<std::uint32_t> GraphStore::interned_value_id(
    PropKeyId key, std::string_view value) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) return std::nullopt;
  auto pit = cit->second.pool_ids.find(value);
  if (pit == cit->second.pool_ids.end()) return std::nullopt;
  return pit->second;
}

std::size_t GraphStore::interned_distinct(PropKeyId key) const {
  const std::shared_lock lock(mutex_);
  auto cit = columns_.find(key);
  if (cit == columns_.end() || !cit->second.interned) return 0;
  return cit->second.pool.size();
}

}  // namespace horus::graph
