// The benchmark's own happens-before model of a generated execution.
//
// It is built from the generated event list alone: program order per
// process (generation order, which the generators keep causal) plus one
// SND -> RCV edge for every receive whose byte range overlaps a send on the
// same channel. It shares no code with the program's encoders, clocks or
// queries, so every answer the program gives can be checked against it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "event/event.h"

namespace perfbench {

/// A happens-before edge between two event indices (index == event id).
struct RefEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  bool inter = false;  ///< SND -> RCV (false: program order)

  [[nodiscard]] auto operator<=>(const RefEdge&) const = default;
};

class Reference {
 public:
  /// `events` in generation order, with ids 0..n-1. Throws on an id gap or
  /// an event kind the model does not cover (so a generator change cannot
  /// silently weaken the checks).
  explicit Reference(const std::vector<horus::Event>& events);

  [[nodiscard]] std::size_t size() const { return lamport_.size(); }

  /// Every edge, sorted.
  [[nodiscard]] const std::vector<RefEdge>& edges() const { return edges_; }

  /// Lamport clock: 1 + the maximum over direct predecessors.
  [[nodiscard]] std::int64_t lamport(std::uint32_t v) const {
    return lamport_[v];
  }
  [[nodiscard]] std::int64_t max_lamport() const { return max_lamport_; }

  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::uint32_t v) const {
    return {out_.data() + out_begin_[v], out_.data() + out_begin_[v + 1]};
  }

  /// One pass in topological order: bit i of result[v] is set iff v is
  /// `sources[i]` or reachable from it. At most 64 sources.
  [[nodiscard]] std::vector<std::uint64_t> descendants(
      std::span<const std::uint32_t> sources) const;

  /// The reverse pass: bit i of result[v] is set iff v is `targets[i]` or
  /// reaches it. At most 64 targets.
  [[nodiscard]] std::vector<std::uint64_t> ancestors(
      std::span<const std::uint32_t> targets) const;

 private:
  std::vector<RefEdge> edges_;
  std::vector<std::uint32_t> out_begin_;  ///< CSR offsets, size n + 1
  std::vector<std::uint32_t> out_;
  std::vector<std::uint32_t> topo_;
  std::vector<std::int64_t> lamport_;
  std::int64_t max_lamport_ = 0;
};

}  // namespace perfbench
