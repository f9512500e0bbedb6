#include "core/intra_encoder.h"

#include <algorithm>

#include "common/diag.h"

namespace horus {

namespace {
/// Ordering of buffered events within a timeline: timestamp first, event id
/// as the deterministic tiebreaker for identical timestamps.
bool timeline_less(const Event& a, const Event& b) noexcept {
  if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
  return a.id < b.id;
}
}  // namespace

IntraProcessEncoder::IntraProcessEncoder(ExecutionGraph& graph,
                                         EventSinkFn downstream,
                                         Options options)
    : graph_(graph), downstream_(std::move(downstream)), options_(options) {}

void IntraProcessEncoder::on_event(Event event) {
  const std::string key = timeline_key(event, options_.granularity);
  auto [timeline_it, created] = timelines_.try_emplace(key);
  Timeline& timeline = timeline_it->second;
  if (created) {
    // A restarted encoder (or a rebalanced worker) recovers the chain tail
    // from the store, so program order survives across the handover.
    if (const auto tail = graph_.timeline_tail(key)) {
      timeline.tail = tail->id;
      timeline.tail_timestamp = tail->timestamp;
    }
  }

  // At-least-once delivery from the queue can replay events; drop ids that
  // are already buffered or already persisted.
  if (timeline.buffered_ids.contains(event.id) ||
      graph_.node_of(event.id).has_value()) {
    ++duplicates_dropped_;
    return;
  }

  if (timeline.tail && event.timestamp < timeline.tail_timestamp) {
    // The flush horizon already passed this event's position. Program order
    // can no longer be honored; record the anomaly and clamp the timestamp
    // so the event lands right after the persisted tail.
    ++late_;
    diag(DiagLevel::kWarn, "intra-encoder",
         "late event " + std::to_string(value_of(event.id)) + " on timeline " +
             event.thread.to_string());
    event.timestamp = timeline.tail_timestamp;
  }

  // Ordered insert (events arrive nearly sorted, so the scan from the back
  // is O(1) amortized for well-behaved sources).
  timeline.buffered_ids.insert(event.id);
  auto pos = std::upper_bound(timeline.buffer.begin(), timeline.buffer.end(),
                              event, timeline_less);
  timeline.buffer.insert(pos, std::move(event));
  ++pending_;
}

void IntraProcessEncoder::flush() {
  for (auto& [key, timeline] : timelines_) {
    if (timeline.buffer.empty()) continue;

    // Nodes and program-order chain in one write (see add_timeline_batch).
    graph_.add_timeline_batch(key, timeline.tail, timeline.buffer);
    timeline.tail = timeline.buffer.back().id;
    timeline.tail_timestamp = timeline.buffer.back().timestamp;
    flushed_ += timeline.buffer.size();
    pending_ -= timeline.buffer.size();

    // Forward to the inter-process stage in final order.
    if (downstream_) {
      for (Event& event : timeline.buffer) {
        downstream_(std::move(event));
      }
    }
    timeline.buffer.clear();
    timeline.buffered_ids.clear();
  }
}

}  // namespace horus
