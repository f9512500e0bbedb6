#include "core/causal_query.h"

#include <algorithm>
#include <chrono>

#include "graph/segment.h"
#include "graph/traversal.h"
#include "obs/metrics.h"

namespace horus {

namespace {

using QueryClock = std::chrono::steady_clock;

double seconds_since(QueryClock::time_point start) {
  return std::chrono::duration<double>(QueryClock::now() - start).count();
}

/// Registry series shared by both Q2 implementations. Resolved once per
/// process; each query flushes its locally accumulated stage costs here in
/// one shot — never per candidate, so the <5% bench budget stays intact.
struct Q2Metrics {
  obs::Histogram& plan_seconds;
  obs::Histogram& prune_seconds;
  obs::Histogram& traverse_seconds;
  obs::Counter& queries;
  obs::Counter& admitted;
  obs::Counter& rejected;

  static const Q2Metrics& get() {
    static const Q2Metrics metrics = [] {
      obs::Registry& r = obs::Registry::global();
      obs::Family<obs::Histogram>& stages = r.histograms(
          "horus_query_stage_seconds", "Q2 stage latency (plan/prune/traverse)");
      return Q2Metrics{
          stages.with({{"stage", "plan"}}),
          stages.with({{"stage", "prune"}}),
          stages.with({{"stage", "traverse"}}),
          r.counter("horus_query_q2_total", "getCausalGraph queries run"),
          r.counter("horus_query_prune_admitted_total",
                    "Candidates surviving the VC prune"),
          r.counter("horus_query_prune_rejected_total",
                    "Candidates removed by the VC prune"),
      };
    }();
    return metrics;
  }
};

/// The one Q2 admit predicate shared by both engines: hb(a, v) and
/// hb(v, b). b's dense VC is reconstructed once per query, so the v->b half
/// is an O(1) component read (VC(b)[tl(v)] >= pos(v)) even when the sparse
/// backend would otherwise walk v's delta chain per candidate.
inline bool admits_between(const ClockTable& clocks, graph::NodeId a,
                           std::span<const std::int32_t> vc_b,
                           graph::NodeId v) {
  const std::int32_t tv = clocks.timeline_of(v);
  if (tv < 0) return false;
  const std::int32_t cb = static_cast<std::size_t>(tv) < vc_b.size()
                              ? vc_b[static_cast<std::size_t>(tv)]
                              : 0;
  if (cb < clocks.position(v)) return false;  // !hb(v, b)
  return clocks.happens_before(a, v);
}

}  // namespace

// No profile hook here: these are the fig7 hot primitives (~60ns), and
// even an untaken branch is measurable. The horus.happensBefore procedure
// accounts the comparison at the query layer instead. On a segmented store
// the per-segment VC summary gets first refusal: when the summary of b's
// segment proves no node there is causally after a, the clock table is
// never consulted (the monolithic path is the original single compare).
bool CausalQueryEngine::happens_before(graph::NodeId a,
                                       graph::NodeId b) const {
  if (const graph::SegmentManager* segments = graph_.store().segments()) {
    if (segments->summary_rules_out_hb(clocks_.timeline_of(a),
                                       clocks_.position(a), b)) {
      return false;
    }
  }
  return clocks_.happens_before(a, b);
}

bool CausalQueryEngine::happens_before_vc(graph::NodeId a,
                                          graph::NodeId b) const {
  return clocks_.vc_less(a, b);
}

void CausalQueryEngine::finalize(std::vector<graph::NodeId> kept,
                                 graph::NodeId a, graph::NodeId b,
                                 bool only_logs,
                                 CausalGraphResult& result) const {
  const graph::GraphStore& store = graph_.store();
  QueryGuard* guard = options_.guard;

  if (only_logs) {
    std::erase_if(kept, [&](graph::NodeId v) {
      if (v == a || v == b) return false;
      return store.node_label(v) != "LOG";
    });
  }

  // Stable causal presentation order: Lamport clock, node id as tiebreaker.
  std::sort(kept.begin(), kept.end(), [&](graph::NodeId x, graph::NodeId y) {
    const auto lx = clocks_.lamport(x);
    const auto ly = clocks_.lamport(y);
    if (lx != ly) return lx < ly;
    return x < y;
  });

  // Induced edge set. The membership bitmap is written before the fan-out
  // and only read inside it.
  std::vector<bool> in_set;
  graph::NodeId max_id = 0;
  for (const graph::NodeId v : kept) max_id = std::max(max_id, v);
  in_set.resize(static_cast<std::size_t>(max_id) + 1, false);
  for (const graph::NodeId v : kept) in_set[v] = true;

  const unsigned threads = options_.effective_threads();
  if (threads <= 1 || kept.size() < options_.min_parallel_items) {
    for (const graph::NodeId v : kept) {
      if (guard != nullptr && !guard->keep_going()) {
        result.truncated = true;
        break;
      }
      for (const graph::Edge& e : store.out_edges(v)) {
        if (e.to < in_set.size() && in_set[e.to]) {
          result.edges.emplace_back(v, e.to);
        }
      }
    }
  } else {
    // Per-chunk edge vectors over the sorted node list, concatenated in
    // chunk order — identical edge order to the sequential loop.
    ThreadPool& pool = options_.effective_pool();
    const std::size_t grain = 1024;
    const std::size_t chunks = ThreadPool::chunk_count(kept.size(), grain);
    std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> partial(
        chunks);
    pool.parallel_for(kept.size(), grain, threads,
                      [&](ThreadPool::ChunkRange chunk) {
                        if (guard != nullptr && !guard->keep_going()) return;
                        auto& local = partial[chunk.index];
                        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                          const graph::NodeId v = kept[i];
                          for (const graph::Edge& e : store.out_edges(v)) {
                            if (e.to < in_set.size() && in_set[e.to]) {
                              local.emplace_back(v, e.to);
                            }
                          }
                        }
                      });
    for (const auto& local : partial) {
      result.edges.insert(result.edges.end(), local.begin(), local.end());
    }
    if (guard != nullptr && guard->stopped()) result.truncated = true;
  }

  result.nodes = std::move(kept);
}

CausalGraphResult CausalQueryEngine::get_causal_graph(graph::NodeId a,
                                                      graph::NodeId b,
                                                      bool only_logs) const {
  CausalGraphResult result;
  const graph::GraphStore& store = graph_.store();

  const std::int64_t lc_a = clocks_.lamport(a);
  const std::int64_t lc_b = clocks_.lamport(b);
  if (lc_a == 0 || lc_b == 0 || lc_a > lc_b) return result;
  if (a != b && !clocks_.happens_before(a, b)) return result;

  // Segmented store: block eviction for the query's lifetime (spans into
  // node payloads stay valid) and build the per-segment admissibility memo.
  graph::SegmentManager* segments = store.segments();
  graph::SegmentManager::ReadHold hold;
  graph::SegmentManager::Q2Pruner pruner;
  if (segments != nullptr) {
    hold = segments->read_hold();
    std::vector<std::int32_t> vc_scratch;
    pruner = segments->q2_pruner(a, b, lc_a, lc_b, clocks_.timeline_of(a),
                                 clocks_.position(a),
                                 clocks_.vc_span(b, vc_scratch));
  }

  // Stage wall times are taken only under --profile: a steady_clock read
  // between stages is an optimizer barrier, and four of them cost ~20% on
  // the smallest fig8 case. The registry counters below stay unconditional.
  const bool timed = options_.profile != nullptr;

  // Step 1 (plan): LC-bounded over-approximation via the ordered index,
  // addressed by the pre-resolved key id (no string hashing on the query
  // path).
  const auto plan_start = timed ? QueryClock::now() : QueryClock::time_point{};
  std::vector<graph::NodeId> candidates =
      store.range_scan(graph_.keys().lamport, lc_a, lc_b);
  result.lc_candidates = candidates.size();

  // Whole-segment skip before the per-node VC prune: a candidate whose
  // segment summary proves it cannot lie between a and b never reaches the
  // clock table. Order is preserved (erase_if is stable), so downstream
  // output is byte-identical to the unpruned scan.
  if (pruner.active()) {
    std::erase_if(candidates,
                  [&](graph::NodeId v) { return !pruner.admits(v); });
  }

  // Guardrails: the candidate list *is* the visited set of this engine.
  // Charging it up front bounds the prune; a tripped budget shrinks the
  // list to the admitted prefix so the partial result honors the limit.
  QueryGuard* guard = options_.guard;
  if (guard != nullptr && !guard->admit_visited(candidates.size())) {
    result.truncated = true;
    const std::uint64_t budget = guard->limits().max_visited_nodes;
    if (budget != 0 && candidates.size() > budget) {
      candidates.resize(static_cast<std::size_t>(budget));
    } else if (guard->limit_hit() != QueryGuard::Limit::kVisited) {
      candidates.clear();  // deadline/cancel: stop doing work outright
    }
  }
  const double plan_seconds = timed ? seconds_since(plan_start) : 0.0;
  const auto prune_start = timed ? QueryClock::now() : QueryClock::time_point{};

  // Step 2: vector-clock pruning of events concurrent with a or b. The
  // prune is a pure per-candidate predicate, so it partitions into fixed
  // chunks whose kept-vectors concatenate in chunk order — identical output
  // to the sequential scan.
  std::vector<std::int32_t> vc_b_scratch;
  const auto vc_b = clocks_.vc_span(b, vc_b_scratch);
  std::vector<graph::NodeId> kept;
  const unsigned threads = options_.effective_threads();
  auto keep = [&](graph::NodeId v) {
    return v == a || v == b || admits_between(clocks_, a, vc_b, v);
  };
  if (threads <= 1 || candidates.size() < options_.min_parallel_items) {
    kept.reserve(candidates.size());
    for (const graph::NodeId v : candidates) {
      if (guard != nullptr && !guard->keep_going()) {
        result.truncated = true;
        break;
      }
      if (keep(v)) kept.push_back(v);
    }
  } else {
    ThreadPool& pool = options_.effective_pool();
    const std::size_t grain = 2048;
    const std::size_t chunks =
        ThreadPool::chunk_count(candidates.size(), grain);
    std::vector<std::vector<graph::NodeId>> partial(chunks);
    pool.parallel_for(candidates.size(), grain, threads,
                      [&](ThreadPool::ChunkRange chunk) {
                        std::vector<graph::NodeId>& local =
                            partial[chunk.index];
                        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                          if (guard != nullptr && (i - chunk.begin) % 256 == 0 &&
                              !guard->keep_going()) {
                            return;
                          }
                          if (keep(candidates[i])) {
                            local.push_back(candidates[i]);
                          }
                        }
                      });
    if (guard != nullptr && guard->stopped()) result.truncated = true;
    std::size_t total = 0;
    for (const auto& local : partial) total += local.size();
    kept.reserve(total);
    for (const auto& local : partial) {
      kept.insert(kept.end(), local.begin(), local.end());
    }
  }
  const double prune_seconds = timed ? seconds_since(prune_start) : 0.0;
  const std::uint64_t admitted = kept.size();
  const std::uint64_t rejected = candidates.size() - kept.size();

  const auto traverse_start =
      timed ? QueryClock::now() : QueryClock::time_point{};
  finalize(std::move(kept), a, b, only_logs, result);
  const double traverse_seconds = timed ? seconds_since(traverse_start) : 0.0;

  // One flush per query. Counters are unconditional; the stage histograms
  // only receive observations from profiled queries (the wall times do not
  // exist otherwise).
  const Q2Metrics& metrics = Q2Metrics::get();
  metrics.queries.inc();
  metrics.admitted.inc(admitted);
  metrics.rejected.inc(rejected);
  if (timed) {
    metrics.plan_seconds.observe(plan_seconds);
    metrics.prune_seconds.observe(prune_seconds);
    metrics.traverse_seconds.observe(traverse_seconds);
    options_.profile->add_plan(plan_seconds, result.lc_candidates);
    options_.profile->add_prune(prune_seconds, admitted, rejected);
    options_.profile->add_traverse(traverse_seconds, result.nodes.size(),
                                   result.edges.size());
  }
  return result;
}

CausalGraphResult CausalQueryEngine::get_causal_graph_traversal(
    graph::NodeId a, graph::NodeId b, bool only_logs) const {
  CausalGraphResult result;

  const std::int64_t lc_a = clocks_.lamport(a);
  const std::int64_t lc_b = clocks_.lamport(b);
  if (lc_a == 0 || lc_b == 0 || lc_a > lc_b) return result;
  if (a != b && !clocks_.happens_before(a, b)) return result;

  // Segmented store: same eviction hold + segment memo as get_causal_graph;
  // the flood's admit predicate consults the memo before the VC compares.
  graph::SegmentManager* segments = graph_.store().segments();
  graph::SegmentManager::ReadHold hold;
  graph::SegmentManager::Q2Pruner pruner;
  if (segments != nullptr) {
    hold = segments->read_hold();
    std::vector<std::int32_t> vc_scratch;
    pruner = segments->q2_pruner(a, b, lc_a, lc_b, clocks_.timeline_of(a),
                                 clocks_.position(a),
                                 clocks_.vc_span(b, vc_scratch));
  }

  // Pruned double flood: every node on a causal path from a to b satisfies
  // the admit predicate, and (prefix/suffix closure of the cut) is reachable
  // from a / reaches b through admitted nodes only, so the floods explore
  // exactly the cut.
  graph::ParallelOptions traversal_options;
  traversal_options.threads = options_.threads;
  traversal_options.pool = options_.pool;
  traversal_options.guard = options_.guard;

  // Same gating as get_causal_graph: stage clocks only under --profile.
  const bool timed = options_.profile != nullptr;
  const auto prune_start = timed ? QueryClock::now() : QueryClock::time_point{};
  // Same admit predicate and single b-side reconstruction as
  // get_causal_graph.
  std::vector<std::int32_t> vc_b_scratch;
  const auto vc_b = clocks_.vc_span(b, vc_b_scratch);
  graph::SubgraphResult between = graph::between_subgraph_parallel(
      graph_.store(), a, b, traversal_options, [&](graph::NodeId v) {
        if (v == a || v == b) return true;
        if (pruner.active() && !pruner.admits(v)) return false;
        return admits_between(clocks_, a, vc_b, v);
      });
  result.lc_candidates = between.visited;
  result.truncated = between.truncated;
  // The pruned flood fuses planning and pruning: visited nodes stand in for
  // candidates, non-admitted visits for rejections.
  const double prune_seconds = timed ? seconds_since(prune_start) : 0.0;
  const std::uint64_t admitted = between.nodes.size();
  const std::uint64_t rejected =
      between.visited >= between.nodes.size()
          ? between.visited - between.nodes.size()
          : 0;

  const auto traverse_start =
      timed ? QueryClock::now() : QueryClock::time_point{};
  finalize(std::move(between.nodes), a, b, only_logs, result);
  const double traverse_seconds = timed ? seconds_since(traverse_start) : 0.0;

  const Q2Metrics& metrics = Q2Metrics::get();
  metrics.queries.inc();
  metrics.admitted.inc(admitted);
  metrics.rejected.inc(rejected);
  if (timed) {
    metrics.prune_seconds.observe(prune_seconds);
    metrics.traverse_seconds.observe(traverse_seconds);
    options_.profile->add_plan(0.0, between.visited);
    options_.profile->add_prune(prune_seconds, admitted, rejected);
    options_.profile->add_traverse(traverse_seconds, result.nodes.size(),
                                   result.edges.size());
  }
  return result;
}

}  // namespace horus
