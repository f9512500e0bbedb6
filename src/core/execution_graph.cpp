#include "core/execution_graph.h"

#include <stdexcept>

#include "graph/graph_io.h"

namespace horus {

graph::PropertyMap event_to_properties(const Event& event) {
  graph::PropertyMap props;
  props.emplace(std::string(kPropEventId),
                static_cast<std::int64_t>(value_of(event.id)));
  props.emplace(std::string(kPropHost), event.service);
  props.emplace(std::string(kPropThread), event.thread.to_string());
  props.emplace(std::string(kPropTimestamp), event.timestamp);
  props.emplace(std::string(kPropEventType), std::string(to_string(event.type)));
  if (const auto* l = event.log()) {
    props.emplace(std::string(kPropMessage), l->message);
    props.emplace("logger", l->logger);
  } else if (const auto* n = event.net()) {
    props.emplace("src", n->channel.src.to_string());
    props.emplace("dst", n->channel.dst.to_string());
    props.emplace("offset", static_cast<std::int64_t>(n->offset));
    props.emplace("size", static_cast<std::int64_t>(n->size));
  } else if (const auto* c = event.child()) {
    props.emplace("childThread", c->child.to_string());
  } else if (const auto* f = event.fsync()) {
    props.emplace("path", f->path);
  }
  return props;
}

graph::PropertyList ExecutionGraph::event_to_property_list(
    const Event& event, const std::string& timeline) const {
  graph::PropertyList props;
  props.reserve(9);
  props.emplace_back(keys_.event_id,
                     static_cast<std::int64_t>(value_of(event.id)));
  props.emplace_back(keys_.host, event.service);
  props.emplace_back(keys_.thread, event.thread.to_string());
  props.emplace_back(keys_.timestamp, event.timestamp);
  props.emplace_back(keys_.event_type, std::string(to_string(event.type)));
  if (const auto* l = event.log()) {
    props.emplace_back(keys_.message, l->message);
    props.emplace_back(keys_.logger, l->logger);
  } else if (const auto* n = event.net()) {
    props.emplace_back(keys_.src, n->channel.src.to_string());
    props.emplace_back(keys_.dst, n->channel.dst.to_string());
    props.emplace_back(keys_.offset, static_cast<std::int64_t>(n->offset));
    props.emplace_back(keys_.size, static_cast<std::int64_t>(n->size));
  } else if (const auto* c = event.child()) {
    props.emplace_back(keys_.child_thread, c->child.to_string());
  } else if (const auto* f = event.fsync()) {
    props.emplace_back(keys_.path, f->path);
  }
  props.emplace_back(keys_.timeline, timeline);
  return props;
}

ExecutionGraph::ExecutionGraph() {
  // Schema keys are interned once; hot numeric keys (clock, timestamp, event
  // id) live in dense direct columns and hot low-cardinality strings
  // (timeline, event type, host) in interned columns, so the Fig. 7/8 query
  // paths read flat vectors instead of per-node maps.
  keys_.lamport = store_.declare_column(kPropLamport);
  keys_.timestamp = store_.declare_column(kPropTimestamp);
  keys_.event_id = store_.declare_column(kPropEventId);
  keys_.timeline = store_.declare_interned_column(kPropTimeline);
  keys_.event_type = store_.declare_interned_column(kPropEventType);
  keys_.host = store_.declare_interned_column(kPropHost);
  keys_.thread = store_.intern_prop_key(kPropThread);
  keys_.message = store_.intern_prop_key(kPropMessage);
  keys_.logger = store_.intern_prop_key("logger");
  keys_.src = store_.intern_prop_key("src");
  keys_.dst = store_.intern_prop_key("dst");
  keys_.offset = store_.intern_prop_key("offset");
  keys_.size = store_.intern_prop_key("size");
  keys_.child_thread = store_.intern_prop_key("childThread");
  keys_.path = store_.intern_prop_key("path");

  // The Horus query strategy needs: an ordered index on the Lamport clock
  // (LC range bounding), a hash index on eventId (node lookup by id) and on
  // host (the case-study query's anchor filters).
  store_.create_ordered_index(keys_.lamport);
  store_.create_index(keys_.event_id);
  store_.create_index(keys_.host);
}

std::string timeline_key(const Event& event, TimelineGranularity granularity) {
  if (granularity == TimelineGranularity::kThread) {
    return event.thread.to_string();
  }
  return event.thread.host + "/" + std::to_string(event.thread.pid);
}

graph::NodeId ExecutionGraph::add_event(const Event& event,
                                        const std::string& timeline) {
  {
    const std::lock_guard lock(mutex_);
    auto it = node_by_event_.find(event.id);
    if (it != node_by_event_.end()) return it->second;
  }
  const graph::NodeId node = store_.add_node_typed(
      to_string(event.type), event_to_property_list(event, timeline));
  const std::lock_guard lock(mutex_);
  register_event_locked(event, timeline, node);
  return node;
}

void ExecutionGraph::register_event_locked(const Event& event,
                                           const std::string& timeline,
                                           graph::NodeId node) {
  node_by_event_.emplace(event.id, node);
  auto [tail_it, inserted] = tails_.try_emplace(
      timeline, TimelineTail{event.id, event.timestamp});
  if (!inserted && (event.timestamp > tail_it->second.timestamp ||
                    (event.timestamp == tail_it->second.timestamp &&
                     event.id > tail_it->second.id))) {
    tail_it->second = TimelineTail{event.id, event.timestamp};
  }
}

std::optional<ExecutionGraph::TimelineTail> ExecutionGraph::timeline_tail(
    const std::string& timeline) const {
  const std::lock_guard lock(mutex_);
  auto it = tails_.find(timeline);
  if (it == tails_.end()) return std::nullopt;
  return it->second;
}

namespace {
std::uint64_t edge_key(graph::NodeId from, graph::NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}
}  // namespace

void ExecutionGraph::add_timeline_batch(const std::string& timeline,
                                        std::optional<EventId> tail,
                                        std::span<const Event> events) {
  // Resolve each event to its stored node (a replay) or to a slot among the
  // batch's new nodes; chain edges between two stored nodes are deduplicated
  // here, edges touching a new node are new by construction.
  std::vector<graph::GraphStore::BatchRef> refs(events.size());
  std::vector<graph::GraphStore::NodeInsert> nodes;
  std::vector<graph::GraphStore::BatchEdge> edges;
  std::vector<std::size_t> new_events;  // index into `events` per new node
  {
    const std::lock_guard lock(mutex_);
    std::optional<graph::GraphStore::BatchRef> prev;
    if (tail) {
      auto it = node_by_event_.find(*tail);
      if (it == node_by_event_.end()) {
        throw std::logic_error("execution graph: intra edge on unknown event");
      }
      prev = graph::GraphStore::BatchRef{it->second, false};
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (auto it = node_by_event_.find(events[i].id);
          it != node_by_event_.end()) {
        refs[i] = {it->second, false};
      } else {
        refs[i] = {static_cast<graph::NodeId>(new_events.size()), true};
        new_events.push_back(i);
      }
      if (prev && (prev->batch_local || refs[i].batch_local ||
                   intra_edges_seen_.insert(edge_key(prev->id, refs[i].id))
                       .second)) {
        edges.push_back({*prev, refs[i]});
      }
      prev = refs[i];
    }
  }
  nodes.reserve(new_events.size());
  for (const std::size_t i : new_events) {
    nodes.push_back({to_string(events[i].type),
                     event_to_property_list(events[i], timeline)});
  }
  const graph::NodeId first =
      store_.add_batch(std::move(nodes), edges, kIntraEdgeType);

  const std::lock_guard lock(mutex_);
  for (std::size_t k = 0; k < new_events.size(); ++k) {
    register_event_locked(events[new_events[k]], timeline,
                          first + static_cast<graph::NodeId>(k));
  }
  const auto id_of = [first](graph::GraphStore::BatchRef ref) {
    return ref.batch_local ? first + ref.id : ref.id;
  };
  for (const graph::GraphStore::BatchEdge& e : edges) {
    if (e.from.batch_local || e.to.batch_local) {
      intra_edges_seen_.insert(edge_key(id_of(e.from), id_of(e.to)));
    }
  }
}

void ExecutionGraph::add_intra_edge(EventId from, EventId to) {
  const auto a = node_of(from);
  const auto b = node_of(to);
  if (!a || !b) {
    throw std::logic_error("execution graph: intra edge on unknown event");
  }
  {
    const std::lock_guard lock(mutex_);
    if (!intra_edges_seen_.insert(edge_key(*a, *b)).second) return;
  }
  store_.add_edge(*a, *b, kIntraEdgeType);
}

void ExecutionGraph::add_inter_edge(EventId from, EventId to) {
  const auto a = node_of(from);
  const auto b = node_of(to);
  if (!a || !b) {
    throw std::logic_error("execution graph: inter edge on unknown event");
  }
  {
    const std::lock_guard lock(mutex_);
    if (!inter_edges_seen_.insert(edge_key(*a, *b)).second) return;
  }
  store_.add_edge(*a, *b, kInterEdgeType);
}

std::optional<graph::NodeId> ExecutionGraph::node_of(EventId id) const {
  const std::lock_guard lock(mutex_);
  auto it = node_by_event_.find(id);
  if (it == node_by_event_.end()) return std::nullopt;
  return it->second;
}

EventId ExecutionGraph::event_of(graph::NodeId node) const {
  const graph::PropertyValue& v = store_.property(node, keys_.event_id);
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<EventId>(static_cast<std::uint64_t>(*i));
  }
  throw std::logic_error("execution graph: node without eventId");
}

std::size_t ExecutionGraph::event_count() const {
  const std::lock_guard lock(mutex_);
  return node_by_event_.size();
}

void ExecutionGraph::save(const std::string& path) const {
  graph::save_graph_file(store_, path);
}

void ExecutionGraph::load(const std::string& path) {
  graph::load_graph_file(store_, path);
  reindex_loaded_store();
}

void ExecutionGraph::reindex_loaded_store() {
  const std::lock_guard lock(mutex_);
  for (graph::NodeId v = 0; v < store_.node_count(); ++v) {
    const graph::PropertyValue& id = store_.property(v, keys_.event_id);
    const auto* i = std::get_if<std::int64_t>(&id);
    if (i == nullptr) continue;
    const auto event_id = static_cast<EventId>(static_cast<std::uint64_t>(*i));
    node_by_event_.emplace(event_id, v);

    const graph::PropertyValue& timeline = store_.property(v, keys_.timeline);
    const graph::PropertyValue& ts = store_.property(v, keys_.timestamp);
    const auto* tl = std::get_if<std::string>(&timeline);
    const auto* t = std::get_if<std::int64_t>(&ts);
    if (tl == nullptr || t == nullptr) continue;
    auto [tail_it, inserted] =
        tails_.try_emplace(*tl, TimelineTail{event_id, *t});
    if (!inserted && (*t > tail_it->second.timestamp ||
                      (*t == tail_it->second.timestamp &&
                       event_id > tail_it->second.id))) {
      tail_it->second = TimelineTail{event_id, *t};
    }
  }
  // Seed the edge-dedup sets so encoders writing into a loaded graph stay
  // idempotent against the snapshotted edges.
  const auto intra_type = store_.edge_type_id(kIntraEdgeType);
  const auto inter_type = store_.edge_type_id(kInterEdgeType);
  for (graph::NodeId v = 0; v < store_.node_count(); ++v) {
    for (const graph::Edge& e : store_.out_edges(v)) {
      if (intra_type && e.type == *intra_type) {
        intra_edges_seen_.insert(edge_key(v, e.to));
      } else if (inter_type && e.type == *inter_type) {
        inter_edges_seen_.insert(edge_key(v, e.to));
      }
    }
  }
}

}  // namespace horus
