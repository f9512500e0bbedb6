// Causal query engine — logical-time-accelerated implementations of the two
// fundamental refinement queries of Section V:
//
//  Q1  may event a causally affect event b?
//      Answered with one vector-clock comparison — no traversal at all.
//      (Baseline: breadth-first shortest path, graph/traversal.h.)
//
//  Q2  what are the causal paths between a and b?
//      Answered in three index-driven steps:
//        V'  = { v : LC(a) <= LC(v) <= LC(b) }   — ordered-index range scan
//        V'' = { v in V' : VC(a) < VC(v) < VC(b) } — vector-clock pruning
//        E'' = { x->y in E : x,y in V'' }          — induced edges
//      (Baseline: exhaustive all-paths enumeration.)
//
// Both Q2 steps fan out across the shared thread pool when QueryOptions
// requests more than one thread: the VC prune partitions the LC-ordered
// candidate list and the induced-edge step partitions the kept node list,
// each into fixed chunks whose outputs concatenate in chunk order — so the
// result is byte-identical to the sequential engine for any thread count.
//
// These are exposed to the query language as the registered procedures
// horus.happensBefore() and horus.getCausalGraph().
#pragma once

#include <cstdint>
#include <vector>

#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "core/execution_graph.h"
#include "core/logical_clocks.h"
#include "obs/query_profile.h"

namespace horus {

/// Parallelism knob threaded from the CLI/benches down to the query
/// engines. The default is the sequential engine; `threads = 0` means "use
/// everything" (ThreadPool::default_parallelism()).
struct QueryOptions {
  /// Max threads a single query may use (caller + pool helpers).
  unsigned threads = 1;
  /// Pool supplying the helpers; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Below this many items a chunked loop stays sequential (fan-out costs
  /// more than it saves). Tests drop it to 1 to force the parallel paths on
  /// small graphs.
  std::size_t min_parallel_items = 4096;
  /// When set, engines write a per-stage cost breakdown here (parse, plan,
  /// prune admit/reject, traversal) — `horus query --profile`. Null keeps
  /// the hot paths at a single pointer test.
  obs::QueryProfile* profile = nullptr;
  /// Optional shared guardrails (deadline / visited-node budget /
  /// cancellation). When it trips, engines stop cooperatively and return a
  /// partial result with `truncated` set instead of running away on
  /// adversarial graphs. Null keeps the hot paths at a single pointer test.
  QueryGuard* guard = nullptr;
  /// Lower MATCH/WHERE query prefixes into a typed plan (src/query/planner.h)
  /// executed batch-at-a-time over column spans. Query shapes the planner
  /// cannot prove row-identical fall back to the tuple-at-a-time evaluator
  /// automatically; false forces the legacy path everywhere (A/B benches,
  /// the plan-differential oracle suite).
  bool use_planner = true;

  [[nodiscard]] unsigned effective_threads() const {
    return threads == 0 ? ThreadPool::default_parallelism() : threads;
  }
  [[nodiscard]] ThreadPool& effective_pool() const {
    return pool != nullptr ? *pool : ThreadPool::shared();
  }
};

struct CausalGraphResult {
  /// Nodes of the causal sub-graph between the two query events, inclusive
  /// of the endpoints, sorted by Lamport clock (a stable causal order).
  std::vector<graph::NodeId> nodes;
  /// Induced edges between nodes of the result set (raw node ids).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  /// Size of the LC-bounded over-approximation V' (instrumentation: how much
  /// the VC pruning step removed). For the traversal-based variant this is
  /// the number of nodes the pruned floods expanded instead.
  std::size_t lc_candidates = 0;
  /// True when QueryOptions::guard tripped mid-query: nodes/edges are a
  /// well-formed subset of the full answer (consult the guard's reason()).
  bool truncated = false;
};

class CausalQueryEngine {
 public:
  CausalQueryEngine(const ExecutionGraph& graph, const ClockTable& clocks,
                    QueryOptions options = {})
      : graph_(graph), clocks_(clocks), options_(options) {}

  /// Q1: true iff `a` happens-before `b`.
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  /// Q1 under its procedure name: may `a` causally affect `b`?
  [[nodiscard]] bool is_causally_related(graph::NodeId a,
                                         graph::NodeId b) const {
    return happens_before(a, b);
  }

  /// Q1 via the paper's literal formulation (full VC(a) < VC(b) comparison);
  /// same result as happens_before(), O(#timelines).
  [[nodiscard]] bool happens_before_vc(graph::NodeId a,
                                       graph::NodeId b) const;

  /// Q2: the causal sub-graph between `a` and `b`.
  /// @param only_logs restrict the node set to LOG events (plus endpoints),
  ///        matching the getCausalGraph(start, end, onlyLogs) procedure used
  ///        in the paper's case-study query.
  [[nodiscard]] CausalGraphResult get_causal_graph(graph::NodeId a,
                                                   graph::NodeId b,
                                                   bool only_logs = false) const;

  /// Q2 computed the traversal way, but with the vector-clock prune applied
  /// per discovered edge: descendants-of-a and ancestors-of-b floods run as
  /// concurrent frontier-parallel tasks, each admitting only nodes v with
  /// VC(a) < VC(v) < VC(b). Because the causal cut is closed under path
  /// prefixes/suffixes, the pruned floods never leave the cut, and the
  /// result (nodes and edges) is identical to get_causal_graph() — the
  /// built-in second implementation backing the differential test oracle.
  [[nodiscard]] CausalGraphResult get_causal_graph_traversal(
      graph::NodeId a, graph::NodeId b, bool only_logs = false) const;

  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Shared tail of both Q2 implementations: only-logs filter, causal sort,
  /// induced edge set.
  void finalize(std::vector<graph::NodeId> kept, graph::NodeId a,
                graph::NodeId b, bool only_logs,
                CausalGraphResult& result) const;

  const ExecutionGraph& graph_;
  const ClockTable& clocks_;
  QueryOptions options_;
};

}  // namespace horus
