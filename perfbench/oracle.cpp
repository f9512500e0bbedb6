#include "oracle.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

namespace {

struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive
  std::uint32_t event = 0;
};

}  // namespace

Reference::Reference(const std::vector<horus::Event>& events) {
  const auto n = static_cast<std::uint32_t>(events.size());

  // Program order: consecutive events of one process, in generation order.
  std::map<std::pair<std::string, std::int32_t>, std::uint32_t> last;
  std::map<horus::ChannelId, std::pair<std::vector<Range>, std::vector<Range>>>
      channels;  // sends, receives
  for (std::uint32_t i = 0; i < n; ++i) {
    const horus::Event& e = events[i];
    if (horus::value_of(e.id) != i) {
      throw std::runtime_error("reference: event ids are not 0..n-1");
    }
    const auto process = std::make_pair(e.thread.host, e.thread.pid);
    if (const auto it = last.find(process); it != last.end()) {
      edges_.push_back(RefEdge{it->second, i, false});
    }
    last[process] = i;
    switch (e.type) {
      case horus::EventType::kSnd:
      case horus::EventType::kRcv: {
        const horus::NetPayload& net = *e.net();
        auto& [sends, receives] = channels[net.channel];
        (e.type == horus::EventType::kSnd ? sends : receives)
            .push_back(Range{net.offset, net.offset + net.size, i});
        break;
      }
      case horus::EventType::kLog:
        break;
      default:
        throw std::runtime_error(
            "reference: unmodelled event type " +
            std::string(horus::to_string(e.type)));
    }
  }

  // Message delivery: a receive consumed the bytes of every send whose
  // range it overlaps. Sends on one channel never overlap each other.
  for (auto& [channel, lists] : channels) {
    auto& [sends, receives] = lists;
    std::sort(sends.begin(), sends.end(),
              [](const Range& a, const Range& b) { return a.begin < b.begin; });
    for (const Range& r : receives) {
      auto it = std::lower_bound(
          sends.begin(), sends.end(), r.end,
          [](const Range& s, std::uint64_t end) { return s.begin < end; });
      while (it != sends.begin()) {
        --it;
        if (it->end <= r.begin) break;
        edges_.push_back(RefEdge{it->event, r.event, true});
      }
    }
  }
  std::sort(edges_.begin(), edges_.end());

  out_begin_.assign(n + 1, 0);
  for (const RefEdge& e : edges_) ++out_begin_[e.from + 1];
  for (std::uint32_t v = 0; v < n; ++v) out_begin_[v + 1] += out_begin_[v];
  out_.resize(edges_.size());
  std::vector<std::uint32_t> fill(out_begin_.begin(), out_begin_.end() - 1);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const RefEdge& e : edges_) {
    out_[fill[e.from]++] = e.to;
    ++indegree[e.to];
  }

  // Kahn's algorithm; Lamport clocks fall out of the same pass.
  lamport_.assign(n, 1);
  topo_.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) topo_.push_back(v);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const std::uint32_t v = topo_[head];
    max_lamport_ = std::max(max_lamport_, lamport_[v]);
    for (const std::uint32_t w : successors(v)) {
      lamport_[w] = std::max(lamport_[w], lamport_[v] + 1);
      if (--indegree[w] == 0) topo_.push_back(w);
    }
  }
  if (topo_.size() != n) {
    throw std::runtime_error("reference: happens-before relation has a cycle");
  }
}

std::vector<std::uint64_t> Reference::descendants(
    std::span<const std::uint32_t> sources) const {
  if (sources.size() > 64) throw std::invalid_argument("at most 64 sources");
  std::vector<std::uint64_t> mask(size(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    mask[sources[i]] |= std::uint64_t{1} << i;
  }
  for (const std::uint32_t v : topo_) {
    if (mask[v] == 0) continue;
    for (const std::uint32_t w : successors(v)) mask[w] |= mask[v];
  }
  return mask;
}

std::vector<std::uint64_t> Reference::ancestors(
    std::span<const std::uint32_t> targets) const {
  if (targets.size() > 64) throw std::invalid_argument("at most 64 targets");
  std::vector<std::uint64_t> mask(size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    mask[targets[i]] |= std::uint64_t{1} << i;
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    for (const std::uint32_t w : successors(*it)) mask[*it] |= mask[w];
  }
  return mask;
}

}  // namespace perfbench
