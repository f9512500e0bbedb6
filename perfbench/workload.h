// Workload definitions and the inputs each one derives from its seed: the
// generated events, their delivery order and wire form, the live-ingest
// chunks, the Q1/Q2 pairs and the two Cypher mixes with their expected
// answers. Everything here is computed from the generated events and the
// benchmark's own happens-before model, never from the program's outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "event/event.h"
#include "oracle.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool mesh;                 ///< ContinuousTraffic mesh; else client-server
  int services;              ///< mesh only
  std::size_t events;        ///< target size (a mesh stops at a whole batch)
  std::size_t chunk;         ///< events per live-ingest chunk
  double q2_span;            ///< Lamport distance of a Q2 pair / max Lamport
  int q1_blocks;             ///< timed blocks of Q1 calls per round
  int q2_passes;             ///< passes over the Q2 pairs per round
  int cypher_passes;         ///< passes over each Cypher mix per round
};

/// The workload table; nullptr when `name` is unknown.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
[[nodiscard]] std::string workload_names();

/// splitmix64: the benchmark's own generator, so pair and parameter choices
/// do not depend on the program's RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Canonical rows of a query answer: one string per row, columns joined.
using Rows = std::vector<std::string>;

struct CypherQuery {
  std::string text;
  std::function<Rows()> expected;  ///< nested-loop answer from the model
};

struct CypherShape {
  std::string name;   ///< metric suffix, e.g. "index_probe"
  bool ordered;       ///< row order is part of the answer
  std::vector<CypherQuery> params;  ///< one query per parameter set
};

struct CypherMix {
  std::string name;   ///< "scan" or "join"
  std::vector<CypherShape> shapes;
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<horus::Event> events;       ///< generation order, index == id
  std::vector<std::uint32_t> delivery;    ///< event indices, delivery order
  std::vector<std::string> wire;          ///< wire JSON, delivery order
  std::vector<std::size_t> chunk_end;     ///< exclusive ends into delivery
  std::vector<std::uint32_t> chunk_of;    ///< event index -> its chunk
  std::unique_ptr<Reference> ref;

  /// Q1/Q2 endpoints: 64 sources a_i and, for Q2, one b_i reachable from
  /// each at about `q2_span` of the Lamport range.
  std::vector<std::uint32_t> sources;
  std::vector<std::uint32_t> targets;
  std::vector<std::uint64_t> reach;       ///< ref->descendants(sources)

  /// Q1 pool: (source slot, target event) pairs, in timed-block order.
  struct Q1Pair {
    std::uint32_t slot;
    std::uint32_t target;
  };
  std::vector<Q1Pair> q1;
  std::vector<std::size_t> q1_block_true;  ///< expected true answers/block

  std::vector<CypherMix> mixes;

  [[nodiscard]] bool q1_expected(const Q1Pair& p) const {
    return p.target != sources[p.slot] && ((reach[p.target] >> p.slot) & 1);
  }
};

inline constexpr std::size_t kPairs = 64;
inline constexpr std::size_t kQ1Block = 4096;

/// Generates and derives every input of a workload from the seed. Held by
/// pointer: the expected-answer closures of the Cypher mixes refer to it.
[[nodiscard]] std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                                  std::uint64_t seed);

}  // namespace perfbench
