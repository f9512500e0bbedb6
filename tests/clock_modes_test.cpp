// Differential suite for the compressed clock backend (ClockMode::kSparse).
//
// The contract under test: flat and sparse storage produce *identical*
// logical clocks — same Lamport values, same happens-before relation, same
// vector-clock components — over every workload shape the chaos matrix can
// produce. Rows are compared value-for-value, not statistically: any
// divergence is a bug in the delta encoding or the repair rewrite path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/crc32.h"
#include "core/clock_daemon.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "gen/chaos.h"
#include "gen/synthetic.h"
#include "gen/topology.h"

namespace horus {
namespace {

std::unique_ptr<Horus> build(const std::vector<Event>& events,
                             Horus::Options options) {
  auto horus = std::make_unique<Horus>(options);
  for (const Event& e : events) horus->ingest(e);
  horus->seal();
  return horus;
}

/// Asserts the two tables carry the same assignment for every node of a
/// graph with `n` nodes: Lamport, timeline name, position, and the full
/// vector clock keyed by timeline name (raw timeline ids may differ between
/// independently built instances only if interning order diverged; over
/// identical ingest order they match, which we also pin — it is part of the
/// deterministic-pipeline contract the differential harness relies on).
void expect_same_assignment(const ClockTable& flat, const ClockTable& sparse,
                            graph::NodeId n) {
  ASSERT_EQ(flat.timeline_count(), sparse.timeline_count());
  std::vector<std::int32_t> fs, ss;
  for (graph::NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(flat.assigned(v), sparse.assigned(v)) << "v=" << v;
    if (!flat.assigned(v)) continue;
    EXPECT_EQ(flat.lamport(v), sparse.lamport(v)) << "v=" << v;
    ASSERT_EQ(flat.timeline_of(v), sparse.timeline_of(v)) << "v=" << v;
    EXPECT_EQ(flat.timeline_name(flat.timeline_of(v)),
              sparse.timeline_name(sparse.timeline_of(v)));
    EXPECT_EQ(flat.position(v), sparse.position(v)) << "v=" << v;
    const auto fv = flat.vc_span(v, fs);
    const auto sv = sparse.vc_span(v, ss);
    // Spans may differ in trailing zeros (the sparse reconstruction stops
    // at the highest timeline the walk touched); compare component-wise.
    const std::size_t lanes = flat.timeline_count();
    for (std::size_t t = 0; t < lanes; ++t) {
      const std::int32_t fc = t < fv.size() ? fv[t] : 0;
      const std::int32_t sc = t < sv.size() ? sv[t] : 0;
      EXPECT_EQ(fc, sc) << "v=" << v << " timeline=" << t;
      EXPECT_EQ(sc, sparse.vc_component(v, static_cast<std::int32_t>(t)));
    }
    EXPECT_EQ(flat.vc_string(v), sparse.vc_string(v)) << "v=" << v;
  }
}

/// Happens-before / vc_less over a sample grid (all pairs when the stride
/// is 1). Grid sampling keeps the chaos-matrix rows O(samples^2) instead of
/// O(n^2) on multi-thousand-event scenarios.
void expect_same_order(const ClockTable& flat, const ClockTable& sparse,
                       graph::NodeId n, graph::NodeId stride) {
  for (graph::NodeId a = 0; a < n; a += stride) {
    for (graph::NodeId b = 0; b < n; b += stride) {
      ASSERT_EQ(flat.happens_before(a, b), sparse.happens_before(a, b))
          << "a=" << a << " b=" << b;
      ASSERT_EQ(flat.vc_less(a, b), sparse.vc_less(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

/// Cross-build equivalence: node ids and timeline interning order depend on
/// flush boundaries, so incremental-vs-one-shot comparisons must map through
/// event ids and key clock components by timeline *name*. Happens-before is
/// compared over every mapped pair.
void expect_equivalent_by_event(const ClockTable& ta, const ExecutionGraph& ga,
                                const ClockTable& tb, const ExecutionGraph& gb,
                                const std::vector<Event>& events) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> mapped;
  for (const Event& e : events) {
    const auto na = ga.node_of(e.id);
    const auto nb = gb.node_of(e.id);
    ASSERT_TRUE(na.has_value() && nb.has_value()) << "event " << value_of(e.id);
    mapped.emplace_back(*na, *nb);
    EXPECT_EQ(ta.lamport(*na), tb.lamport(*nb)) << "event " << value_of(e.id);
    ASSERT_GE(ta.timeline_of(*na), 0);
    ASSERT_GE(tb.timeline_of(*nb), 0);
    EXPECT_EQ(ta.timeline_name(ta.timeline_of(*na)),
              tb.timeline_name(tb.timeline_of(*nb)));
    EXPECT_EQ(ta.position(*na), tb.position(*nb)) << "event " << value_of(e.id);
    for (std::size_t t = 0; t < ta.timeline_count(); ++t) {
      const std::int32_t c = ta.vc_component(*na, static_cast<std::int32_t>(t));
      if (c == 0) continue;
      // Find the same timeline by name on the other side.
      std::int32_t other = -1;
      for (std::size_t u = 0; u < tb.timeline_count(); ++u) {
        if (tb.timeline_name(static_cast<std::int32_t>(u)) ==
            ta.timeline_name(static_cast<std::int32_t>(t))) {
          other = static_cast<std::int32_t>(u);
          break;
        }
      }
      ASSERT_GE(other, 0) << "timeline " << ta.timeline_name(
          static_cast<std::int32_t>(t)) << " missing on one side";
      EXPECT_EQ(c, tb.vc_component(*nb, other)) << "event " << value_of(e.id);
    }
  }
  for (const auto& [a1, b1] : mapped) {
    for (const auto& [a2, b2] : mapped) {
      ASSERT_EQ(ta.happens_before(a1, a2), tb.happens_before(b1, b2))
          << "a=" << a1 << " b=" << a2;
    }
  }
}

/// Picks Q2 endpoint pairs with real causal cuts: for each sampled `a`,
/// the related node with the largest Lamport gap.
std::vector<std::pair<graph::NodeId, graph::NodeId>> q2_pairs(
    const ClockTable& clocks, graph::NodeId n, std::size_t want) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  const graph::NodeId stride = std::max<graph::NodeId>(1, n / 16);
  for (graph::NodeId a = 0; a < n && pairs.size() < want; a += stride) {
    graph::NodeId best = a;
    std::int64_t best_gap = -1;
    for (graph::NodeId b = 0; b < n; ++b) {
      if (!clocks.happens_before(a, b)) continue;
      const std::int64_t gap = clocks.lamport(b) - clocks.lamport(a);
      if (gap > best_gap) {
        best_gap = gap;
        best = b;
      }
    }
    if (best != a) pairs.emplace_back(a, best);
  }
  return pairs;
}

// Every field is 64-bit so the struct has no padding: gtest names each
// case after the struct's raw bytes, and uninitialised padding made the
// test names differ from one build (and run) to the next.
struct ModeCase {
  std::uint64_t seed;
  std::int64_t processes;
  std::size_t events_per_process;
  std::int64_t keyframe_interval;
};
static_assert(std::has_unique_object_representations_v<ModeCase>);

class ClockModesPropertyTest : public ::testing::TestWithParam<ModeCase> {};

// Satellite 3: sparse and flat backends produce identical happens_before()
// and Lamport values over random DAGs, across keyframe cadences (1 = every
// record a keyframe, so the delta path is off; 2 exercises the shortest
// delta chains; 64 exercises long reconstruction walks).
TEST_P(ClockModesPropertyTest, SparseMatchesFlatOnRandomDags) {
  const ModeCase c = GetParam();
  const auto events = gen::random_execution(
      {.num_processes = static_cast<int>(c.processes),
       .events_per_process = c.events_per_process,
       .seed = c.seed});
  auto flat = build(events, {.clock_mode = ClockMode::kFlat});
  auto sparse = build(
      events, {.clock_mode = ClockMode::kSparse,
               .keyframe_interval = static_cast<std::int32_t>(c.keyframe_interval)});
  const auto n =
      static_cast<graph::NodeId>(flat->graph().store().node_count());
  ASSERT_EQ(n, static_cast<graph::NodeId>(
                   sparse->graph().store().node_count()));
  ASSERT_EQ(sparse->clocks().mode(), ClockMode::kSparse);
  expect_same_assignment(flat->clocks(), sparse->clocks(), n);
  expect_same_order(flat->clocks(), sparse->clocks(), n, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClockModesPropertyTest,
    ::testing::Values(ModeCase{1, 3, 40, 1}, ModeCase{2, 3, 40, 2},
                      ModeCase{3, 5, 30, 4}, ModeCase{4, 5, 30, 16},
                      ModeCase{5, 8, 20, 64}, ModeCase{6, 12, 12, 16},
                      ModeCase{7, 2, 80, 8}, ModeCase{8, 16, 8, 3}));

// Tentpole differential: every row of the PR 6 chaos matrix, ingested into
// one flat and one sparse instance, must agree on clocks AND on Q2 results
// row-for-row at 1/2/8 threads. The scenarios cover reorder-under-
// rebalance, 10x clock drift, retry storms, long chains and cross-request
// contention — the workload shapes that stress delta windows hardest.
TEST(ClockModesChaosTest, ChaosMatrixRowForRow) {
  for (const gen::ChaosScenario& scenario : gen::builtin_chaos_scenarios(11)) {
    SCOPED_TRACE(scenario.name);
    auto events = gen::microservice_topology(scenario.topology);
    events = gen::cross_process_shuffle(events, scenario.topology.seed + 99);

    auto flat = build(events, {.clock_mode = ClockMode::kFlat});
    auto sparse = build(events, {.clock_mode = ClockMode::kSparse});
    const auto n =
        static_cast<graph::NodeId>(flat->graph().store().node_count());
    ASSERT_EQ(n, static_cast<graph::NodeId>(
                     sparse->graph().store().node_count()));

    expect_same_assignment(flat->clocks(), sparse->clocks(), n);
    const graph::NodeId stride = std::max<graph::NodeId>(
        1, n / static_cast<graph::NodeId>(scenario.hb_samples));
    expect_same_order(flat->clocks(), sparse->clocks(), n, stride);

    const auto pairs = q2_pairs(flat->clocks(), n, scenario.q2_pairs);
    ASSERT_FALSE(pairs.empty()) << "scenario produced no related pairs";
    for (const unsigned threads : {1u, 2u, 8u}) {
      QueryOptions qo;
      qo.threads = threads;
      qo.min_parallel_items = 1;  // force the parallel paths on small cuts
      const auto fq = flat->query(qo);
      const auto sq = sparse->query(qo);
      for (const auto& [a, b] : pairs) {
        const auto fr = fq.get_causal_graph(a, b);
        const auto sr = sq.get_causal_graph(a, b);
        EXPECT_EQ(fr.nodes, sr.nodes)
            << "threads=" << threads << " a=" << a << " b=" << b;
        EXPECT_EQ(fr.edges, sr.edges)
            << "threads=" << threads << " a=" << a << " b=" << b;
        // Traversal engine under the sparse table closes the 2x2 matrix.
        const auto st = sq.get_causal_graph_traversal(a, b);
        EXPECT_EQ(fr.nodes, st.nodes);
        EXPECT_EQ(fr.edges, st.edges);
      }
    }
  }
}

// -- repair / incremental paths ---------------------------------------------

// Sparse repair must rewrite delta windows in place (or spill to overflow)
// and land on exactly the clocks a from-scratch flat assignment computes.
// The daemon audit discovers the violated edges, same as production. A tiny
// keyframe interval maximizes delta records, padding rewrites and spills.
TEST(ClockModesRepairTest, SparseHealMatchesFlatReassign) {
  ExecutionGraph graph;
  IntraProcessEncoder intra(graph, {});
  InterProcessEncoder inter(graph);

  const auto events = gen::client_server_events({.num_events = 60});
  for (const Event& e : events) intra.on_event(e);
  intra.flush();

  ClockDaemon daemon(graph, {.interval_ms = 100,
                             .mode = ClockMode::kSparse,
                             .keyframe_interval = 2});
  daemon.tick();  // assigns with only intra edges — soon to be stale

  for (const Event& e : events) inter.on_event(e);
  inter.flush();
  daemon.tick();  // audit detects the late edges and repairs
  EXPECT_GE(daemon.heals(), 1u);

  LogicalClockAssigner fresh(graph, {.write_lamport_property = false});
  fresh.assign();
  const auto n = static_cast<graph::NodeId>(graph.store().node_count());
  for (graph::NodeId a = 0; a < n; ++a) {
    for (graph::NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(daemon.happens_before(a, b),
                fresh.clocks().happens_before(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(ClockModesRepairTest, SparseIncrementalMatchesOneShot) {
  const auto events = gen::random_execution(
      {.num_processes = 4, .events_per_process = 40, .seed = 17});
  Horus::Options sparse_opts{.clock_mode = ClockMode::kSparse,
                             .keyframe_interval = 3};
  auto incremental = std::make_unique<Horus>(sparse_opts);
  const std::size_t chunk = events.size() / 4;
  for (std::size_t i = 0; i < events.size(); ++i) {
    incremental->ingest(events[i]);
    if ((i + 1) % chunk == 0) incremental->seal();
  }
  incremental->seal();
  auto oneshot = build(events, sparse_opts);
  ASSERT_EQ(oneshot->graph().store().node_count(),
            incremental->graph().store().node_count());
  expect_equivalent_by_event(oneshot->clocks(), oneshot->graph(),
                             incremental->clocks(), incremental->graph(),
                             events);
}

// -- lanes whose timeline predecessor is not a graph predecessor -----------
//
// The separate ExecutionGraph::add_event / add_intra_edge calls let a
// timeline's events be assigned before the chain edge between them exists.
// Timeline A below gets x (position 1) and y (position 2) with no edge
// between them, so y's lane base x may hold components y never heard of.

graph::NodeId add_log(ExecutionGraph& graph, std::uint64_t id,
                      const std::string& timeline) {
  Event event;
  event.id = EventId{id};
  event.type = EventType::kLog;
  event.thread = ThreadRef{timeline, 1, 1};
  event.service = timeline;
  event.timestamp = static_cast<TimeNs>(id);
  event.payload = LogPayload{"m", "test"};
  return graph.add_event(event, timeline);
}

// x heard of B, y did not: a delta of y over x would read B back in.
TEST(ClockModesLaneBaseTest, BaseAboveTheNewClockBecomesKeyframe) {
  ExecutionGraph graphs[2];
  LogicalClockAssigner flat(graphs[0], {.mode = ClockMode::kFlat});
  LogicalClockAssigner sparse(graphs[1], {.mode = ClockMode::kSparse});
  graph::NodeId b1 = 0, y = 0;
  for (ExecutionGraph& graph : graphs) {
    b1 = add_log(graph, 1, "B");
    add_log(graph, 2, "C");
    add_log(graph, 3, "A");  // x
    graph.add_inter_edge(EventId{1}, EventId{3});
    graph.add_inter_edge(EventId{2}, EventId{3});
  }
  flat.assign();
  sparse.assign();
  for (ExecutionGraph& graph : graphs) {
    y = add_log(graph, 4, "A");
    graph.add_inter_edge(EventId{2}, EventId{4});
  }
  flat.assign();
  sparse.assign();
  ASSERT_EQ(sparse.clocks().position(y), 2);
  EXPECT_FALSE(sparse.clocks().happens_before(b1, y));
  expect_same_assignment(flat.clocks(), sparse.clocks(), 4);
  // From scratch, still without the chain edge.
  flat.reassign_all();
  sparse.reassign_all();
  expect_same_assignment(flat.clocks(), sparse.clocks(), 4);
  expect_same_order(flat.clocks(), sparse.clocks(), 4, 1);
}

// y dominates x, so y is stored as a delta over x. A late edge d1 -> x then
// raises x; repair() must re-encode y whether y lies outside the closure or
// inside it but recomputed before x.
TEST(ClockModesLaneBaseTest, RepairReencodesTheLaneSuccessor) {
  for (const bool y_dirty : {false, true}) {
    SCOPED_TRACE(y_dirty ? "y recomputed first" : "y outside the closure");
    ExecutionGraph graphs[2];
    LogicalClockAssigner flat(graphs[0], {.mode = ClockMode::kFlat});
    LogicalClockAssigner sparse(graphs[1], {.mode = ClockMode::kSparse});
    graph::NodeId x = 0, y = 0, d1 = 0;
    for (ExecutionGraph& graph : graphs) {
      add_log(graph, 1, "B");
      add_log(graph, 2, "C");
      x = add_log(graph, 3, "A");
      graph.add_inter_edge(EventId{2}, EventId{3});
    }
    flat.assign();
    sparse.assign();
    for (ExecutionGraph& graph : graphs) {
      y = add_log(graph, 4, "A");
      graph.add_inter_edge(EventId{1}, EventId{4});
      graph.add_inter_edge(EventId{2}, EventId{4});
    }
    flat.assign();
    sparse.assign();
    for (ExecutionGraph& graph : graphs) {
      d1 = add_log(graph, 5, "D");
      add_log(graph, 6, "E");
    }
    flat.assign();
    sparse.assign();
    std::vector<graph::NodeId> roots{x};
    for (ExecutionGraph& graph : graphs) {
      graph.add_inter_edge(EventId{5}, EventId{3});
      if (y_dirty) graph.add_inter_edge(EventId{6}, EventId{4});
    }
    // Kahn over unrelated roots recomputes the last one first.
    if (y_dirty) roots.push_back(y);
    const auto flat_repair = flat.repair(roots);
    const auto sparse_repair = sparse.repair(roots);
    ASSERT_EQ(sparse_repair.recomputed, flat_repair.recomputed);
    ASSERT_EQ(sparse.clocks().position(y), 2);
    EXPECT_FALSE(sparse.clocks().happens_before(d1, y));
    expect_same_assignment(flat.clocks(), sparse.clocks(), 6);
    expect_same_order(flat.clocks(), sparse.clocks(), 6, 1);
  }
}

// Lane A holds x, y, z: y is a delta over x (chain edge x -> y), z a delta
// over y (no edge y -> z). A late edge b1 -> x dirties x and y, and Kahn
// recomputes x first. Raising x's record must not let z's walk pick up B,
// neither before y is recomputed nor through it.
TEST(ClockModesLaneBaseTest, RepairKeepsDeltasBelowAPendingSuccessorExact) {
  ExecutionGraph graphs[2];
  LogicalClockAssigner flat(graphs[0], {.mode = ClockMode::kFlat});
  LogicalClockAssigner sparse(graphs[1], {.mode = ClockMode::kSparse});
  graph::NodeId b1 = 0, x = 0, y = 0, z = 0;
  const auto assign_both = [&] {
    flat.assign();
    sparse.assign();
  };
  for (ExecutionGraph& graph : graphs) {
    b1 = add_log(graph, 1, "B");
    add_log(graph, 2, "C");
    x = add_log(graph, 3, "A");
    graph.add_inter_edge(EventId{2}, EventId{3});
  }
  assign_both();
  for (ExecutionGraph& graph : graphs) {
    y = add_log(graph, 4, "A");
    graph.add_intra_edge(EventId{3}, EventId{4});
  }
  assign_both();
  for (ExecutionGraph& graph : graphs) {
    z = add_log(graph, 5, "A");
    graph.add_inter_edge(EventId{2}, EventId{5});
  }
  assign_both();
  ASSERT_EQ(sparse.clocks().position(z), 3);
  for (ExecutionGraph& graph : graphs) {
    graph.add_inter_edge(EventId{1}, EventId{3});
  }
  const std::vector<graph::NodeId> roots{x};
  const auto flat_repair = flat.repair(roots);
  const auto sparse_repair = sparse.repair(roots);
  ASSERT_EQ(sparse_repair.recomputed, flat_repair.recomputed);
  ASSERT_EQ(sparse_repair.recomputed, (std::vector<graph::NodeId>{x, y}));
  EXPECT_TRUE(sparse.clocks().happens_before(b1, y));
  EXPECT_FALSE(sparse.clocks().happens_before(b1, z));
  expect_same_assignment(flat.clocks(), sparse.clocks(), 5);
  expect_same_order(flat.clocks(), sparse.clocks(), 5, 1);
}

// -- HORUSVC2 serialization -------------------------------------------------

TEST(ClockFormatTest, SparseRoundTripPreservesEverything) {
  const auto events = gen::random_execution(
      {.num_processes = 5, .events_per_process = 30, .seed = 41});
  auto horus = build(events, {.clock_mode = ClockMode::kSparse,
                              .keyframe_interval = 5});
  std::stringstream buf;
  horus->clocks().save(buf);
  const ClockTable loaded = ClockTable::load(buf);
  EXPECT_EQ(loaded.mode(), ClockMode::kSparse);
  EXPECT_EQ(loaded.keyframe_interval(), 5);
  const auto n =
      static_cast<graph::NodeId>(horus->graph().store().node_count());
  expect_same_assignment(horus->clocks(), loaded, n);
  expect_same_order(horus->clocks(), loaded, n, 1);
}

// A restored table resumes incrementally: new nodes appended after
// restore() get clocks identical to an uninterrupted run, and the restored
// mode wins over the assigner's configured default.
TEST(ClockFormatTest, RestoreResumesIncrementallyAndAdoptsMode) {
  const auto events = gen::random_execution(
      {.num_processes = 3, .events_per_process = 30, .seed = 55});
  const std::size_t half = events.size() / 2;

  ExecutionGraph graph;
  InterProcessEncoder inter(graph);
  IntraProcessEncoder intra(graph,
                            [&](Event e) { inter.on_event(std::move(e)); });
  LogicalClockAssigner first(graph, {.mode = ClockMode::kSparse,
                                     .keyframe_interval = 2});
  for (std::size_t i = 0; i < half; ++i) intra.on_event(events[i]);
  intra.flush();
  inter.flush();
  first.assign();

  std::stringstream buf;
  first.clocks().save(buf);

  // Default-flat assigner adopts the sparse table on restore.
  LogicalClockAssigner resumed(graph, {.mode = ClockMode::kFlat});
  resumed.restore(ClockTable::load(buf));
  EXPECT_EQ(resumed.clocks().mode(), ClockMode::kSparse);

  for (std::size_t i = half; i < events.size(); ++i) intra.on_event(events[i]);
  intra.flush();
  inter.flush();
  EXPECT_GT(resumed.assign(), 0u);

  // Reference: one uninterrupted flat pass over an equivalent graph (node
  // ids may differ across flush boundaries; compare through event ids).
  auto reference = build(events, {.clock_mode = ClockMode::kFlat});
  ASSERT_EQ(graph.store().node_count(),
            reference->graph().store().node_count());
  ExecutionGraph& resumed_graph = graph;
  expect_equivalent_by_event(reference->clocks(), reference->graph(),
                             resumed.clocks(), resumed_graph, events);
}

// Satellite 2: a clock record from a future format version (or an unknown
// storage mode) must be rejected with the *typed* ClockFormatError — the
// restore path turns it into "upgrade the binary", not "corrupt
// checkpoint" — while genuinely mangled bytes keep the plain HorusError.
TEST(ClockFormatTest, UnknownVersionIsTypedError) {
  auto horus = build(gen::client_server_events({.num_events = 20}),
                     {.clock_mode = ClockMode::kSparse});
  std::stringstream buf;
  horus->clocks().save(buf);
  std::string frame = buf.str();
  ASSERT_EQ(frame[7], '2');
  frame[7] = '3';  // "HORUSVC3" — magic prefix intact, version unknown
  std::istringstream in(frame);
  EXPECT_THROW(
      {
        try {
          (void)ClockTable::load(in);
        } catch (const ClockFormatError& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      ClockFormatError);
}

TEST(ClockFormatTest, UnknownStorageModeIsTypedError) {
  auto horus = build(gen::client_server_events({.num_events = 20}),
                     {.clock_mode = ClockMode::kSparse});
  std::stringstream buf;
  horus->clocks().save(buf);
  std::string frame = buf.str();
  // Frame layout: magic[8] | u64 payload length | payload | u32 CRC. The
  // storage-mode byte is payload[0]; patch it and re-stamp the CRC so only
  // the mode check can fire.
  ASSERT_GT(frame.size(), 21u);
  frame[16] = 7;  // no such ClockMode
  const std::uint32_t crc =
      crc32(std::string_view(frame).substr(16, frame.size() - 20));
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  std::istringstream in(frame);
  EXPECT_THROW(
      {
        try {
          (void)ClockTable::load(in);
        } catch (const ClockFormatError& e) {
          EXPECT_NE(std::string(e.what()).find("mode"), std::string::npos);
          throw;
        }
      },
      ClockFormatError);
}

TEST(ClockFormatTest, MangledBytesAreNotFormatErrors) {
  auto horus = build(gen::client_server_events({.num_events = 20}),
                     {.clock_mode = ClockMode::kSparse});
  std::stringstream buf;
  horus->clocks().save(buf);
  const std::string frame = buf.str();

  {  // bad magic: not a clock record at all
    std::string bad = frame;
    bad[0] = 'X';
    std::istringstream in(bad);
    try {
      (void)ClockTable::load(in);
      FAIL() << "bad magic accepted";
    } catch (const ClockFormatError&) {
      FAIL() << "bad magic misreported as a format-version error";
    } catch (const HorusError&) {
    }
  }
  {  // flipped payload byte: CRC mismatch, still plain HorusError
    std::string bad = frame;
    bad[frame.size() / 2] = static_cast<char>(bad[frame.size() / 2] ^ 0x5A);
    std::istringstream in(bad);
    try {
      (void)ClockTable::load(in);
      FAIL() << "corrupt payload accepted";
    } catch (const ClockFormatError&) {
      FAIL() << "CRC corruption misreported as a format-version error";
    } catch (const HorusError&) {
    }
  }
  {  // truncation
    std::istringstream in(frame.substr(0, frame.size() / 2));
    EXPECT_THROW((void)ClockTable::load(in), HorusError);
  }
}

// -- satellite 1 regression: span lifetime across table growth --------------

// vc_span() fills the caller's scratch in sparse mode, so the returned view
// must stay valid (and keep its values) while the table grows under further
// seals — the arena-reallocation UAF the audit found cannot recur for
// scratch-backed reads. ASan runs of this label are the teeth.
TEST(ClockSpanLifetimeTest, SparseSpanSurvivesTableGrowth) {
  gen::TopologyOptions batch1;
  batch1.requests = 6;
  const auto first = gen::microservice_topology(batch1);
  gen::TopologyOptions batch2 = batch1;  // continuous-traffic second batch
  batch2.id_base = first.size();
  batch2.stream_offset_base = std::uint64_t{1} << 20;
  batch2.seed = 43;
  const auto more = gen::microservice_topology(batch2);

  Horus horus({.clock_mode = ClockMode::kSparse, .keyframe_interval = 2});
  for (const Event& e : first) horus.ingest(e);
  horus.seal();

  const graph::NodeId probe = 0;
  std::vector<std::int32_t> scratch;
  const auto span = horus.clocks().vc_span(probe, scratch);
  const std::vector<std::int32_t> before(span.begin(), span.end());

  for (const Event& e : more) horus.ingest(e);
  horus.seal();  // lanes grow; a flat arena would have reallocated

  // The old view still reads the snapshot values...
  ASSERT_EQ(span.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(span[i], before[i]);
  }
  // ...and a fresh read agrees on every component the snapshot had (an
  // assigned node's clock never changes when unrelated events append).
  std::vector<std::int32_t> scratch2;
  const auto now = horus.clocks().vc_span(probe, scratch2);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(i < now.size() ? now[i] : 0, before[i]);
  }
}

// Flat-mode reads interleaved with incremental seals must keep returning
// canonical values (each read re-derives its span; nothing may cache a
// pre-growth pointer internally). Under ASan this also proves assign() and
// repair() never hold a stale arena span across a push_back.
TEST(ClockSpanLifetimeTest, FlatReadsStableAcrossIncrementalSeals) {
  const auto events = gen::random_execution(
      {.num_processes = 4, .events_per_process = 30, .seed = 81});
  Horus horus;  // flat
  std::vector<std::string> first_seen;
  const std::size_t chunk = events.size() / 5;
  for (std::size_t i = 0; i < events.size(); ++i) {
    horus.ingest(events[i]);
    if ((i + 1) % chunk == 0 || i + 1 == events.size()) {
      horus.seal();
      const auto n = static_cast<graph::NodeId>(
          horus.graph().store().node_count());
      for (graph::NodeId v = 0; v < n; ++v) {
        const std::string s = horus.clocks().vc_string(v);
        if (static_cast<std::size_t>(v) < first_seen.size()) {
          EXPECT_EQ(first_seen[v], s) << "v=" << v;
        } else {
          first_seen.push_back(s);
        }
      }
    }
  }
}

// -- footprint sanity (the real numbers live in bench_clocks) ---------------

TEST(ClockModesFootprintTest, SparseShrinksWideTimelineWorkloads) {
  const auto events = gen::random_execution(
      {.num_processes = 200, .events_per_process = 5, .seed = 91});
  auto flat = build(events, {.clock_mode = ClockMode::kFlat});
  auto sparse = build(events, {.clock_mode = ClockMode::kSparse});
  const auto n =
      static_cast<graph::NodeId>(flat->graph().store().node_count());
  expect_same_order(flat->clocks(), sparse->clocks(), n,
                    std::max<graph::NodeId>(1, n / 64));
  // 200 timelines: a flat row is ~800 bytes/event; sparse rows carry only
  // the timelines an event has actually heard from.
  EXPECT_LT(sparse->clocks().clock_bytes() * 2, flat->clocks().clock_bytes())
      << "sparse=" << sparse->clocks().clock_bytes()
      << " flat=" << flat->clocks().clock_bytes();
}

}  // namespace
}  // namespace horus
