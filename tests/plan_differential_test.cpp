// Plan-differential oracle suite (ctest label `plan`): every corpus query
// must return row-for-row identical results from the planned batch executor
// and the legacy tuple-at-a-time pipeline — across chaos topologies, over
// monolithic, segmented and fully-evicted stores, at 1/2/8 threads, with
// segment pruning on and off. The legacy engine (use_planner=false,
// threads=1, monolithic store) is the reference; everything else must agree
// with it exactly, including column names and row order.
//
// A second set of tests pins the *plan shapes*: the planner must actually
// choose the index/range/segment-skip scans the differential rows prove
// correct, and must fall back (with a reason) on the clauses it cannot
// lower.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/horus.h"
#include "core/segment_clocks.h"
#include "gen/chaos.h"
#include "gen/topology.h"
#include "graph/segment.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/planner.h"
#include "test_dir.h"

namespace horus {
namespace {

/// One monolithic + one segmented Horus over the same event stream.
struct Pair {
  std::unique_ptr<TestDir> spill;  // outlives the segmented store
  std::unique_ptr<Horus> mono;
  std::unique_ptr<Horus> seg;
  graph::SegmentManager* segments = nullptr;
};

Pair build_pair(const gen::TopologyOptions& topology, const std::string& tag) {
  Pair p;
  p.mono = std::make_unique<Horus>();
  p.seg = std::make_unique<Horus>();
  p.spill = std::make_unique<TestDir>(tag);

  graph::SegmentOptions options;
  options.nodes_per_segment = 24;
  options.shard_count = 3;
  options.spill_dir = p.spill->str();
  options.auto_evict = false;
  p.segments = &enable_segments(p.seg->graph(), options);

  for (const Event& e : gen::microservice_topology(topology)) {
    p.mono->ingest(e);
    p.seg->ingest(e);
  }
  p.mono->seal();
  p.seg->seal();
  EXPECT_EQ(p.mono->graph().store().node_count(),
            p.seg->graph().store().node_count());
  EXPECT_GT(p.segments->sealed_count(), 0u) << tag;
  return p;
}

std::int64_t int_property(const graph::GraphStore& store, graph::NodeId node,
                          graph::PropKeyId key) {
  const auto& pv = store.property(node, key);
  if (const auto* i = std::get_if<std::int64_t>(&pv)) return *i;
  return 0;
}

std::string string_property(const graph::GraphStore& store,
                            graph::NodeId node, graph::PropKeyId key) {
  const auto& pv = store.property(node, key);
  if (const auto* s = std::get_if<std::string>(&pv)) return *s;
  return {};
}

/// Corpus parameterized with values that actually occur in the graph, so
/// the selective queries return non-trivial row sets.
std::vector<std::string> build_corpus(const ExecutionGraph& graph) {
  const auto& store = graph.store();
  const graph::NodeId probe = store.node_count() / 2;
  // The grammar has no unary minus, so negative probes (clock-drift
  // scenarios produce negative timestamps) clamp to 0 — the query is then
  // merely less selective, which the differential does not care about.
  const auto probe_int = [&](graph::PropKeyId key) {
    return std::to_string(std::max<std::int64_t>(
        0, int_property(store, probe, key)));
  };
  const std::string mid_id = probe_int(graph.keys().event_id);
  const std::string mid_lamport = probe_int(graph.keys().lamport);
  const std::string mid_ts = probe_int(graph.keys().timestamp);
  const std::string host = string_property(store, probe, graph.keys().host);
  return {
      // Scan kinds: all-nodes, label, hash-index eq (both orientations),
      // ordered-index range, timestamp window (segment-skip when
      // segmented), inline pattern props.
      "MATCH (n) RETURN n.eventId",
      "MATCH (n:SND) RETURN n.eventId",
      "MATCH (n) WHERE n.eventId = " + mid_id + " RETURN n.eventId, n.host",
      "MATCH (n) WHERE " + mid_id + " = n.eventId RETURN n.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime >= 2 AND "
      "n.lamportLogicalTime <= " + mid_lamport + " RETURN n.eventId",
      "MATCH (n) WHERE n.timestamp >= " + mid_ts + " RETURN n.eventId",
      "MATCH (n {lamportLogicalTime: " + mid_lamport +
          "}) RETURN n.eventId",
      // Residual predicates: interned equality / inequality, in-place
      // numeric compare, conjunct reordering around a pinned (arithmetic)
      // conjunct, a never-seen property key.
      "MATCH (n) WHERE n.host = \"" + host + "\" RETURN n.eventId, n.host",
      "MATCH (n:RCV) WHERE n.host <> \"" + host + "\" RETURN n.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime < " + mid_lamport +
          " AND n.host = \"" + host + "\" RETURN n.eventId",
      "MATCH (n) WHERE n.host = \"" + host +
          "\" AND n.eventId + 0 >= 0 RETURN n.eventId",
      "MATCH (n) WHERE n.neverSetKey = 5 RETURN n.eventId",
      "MATCH (n) WHERE n.neverSetKey <> 1 AND n.eventType = \"SND\" "
      "RETURN n.eventId",
      "MATCH (n) WHERE n.eventType = \"SND\" AND n.lamportLogicalTime >= 2 "
      "RETURN n.eventId",
      "MATCH (n) WHERE n.host = \"no-such-host\" RETURN n.eventId",
      // Projection/limit pushdown and the clauses that must stay in the
      // legacy tail: aggregates, DISTINCT, ORDER BY, RETURN *, WITH chains.
      "MATCH (n) RETURN n.eventId LIMIT 5",
      "MATCH (n) WHERE n.lamportLogicalTime > 3 AND n.lamportLogicalTime "
      "< 100000 AND n.host = \"" + host + "\" RETURN n.eventId LIMIT 7",
      "MATCH (n) WHERE n.lamportLogicalTime >= 2 RETURN count(*) AS c",
      "MATCH (n) WHERE n.eventId >= 0 RETURN DISTINCT n.host AS h",
      "MATCH (n) WHERE n.host = \"" + host +
          "\" RETURN n.eventId ORDER BY n.eventId DESC",
      "MATCH (n) WHERE n.eventId = " + mid_id + " RETURN *",
      "MATCH (n:SND) WITH n.host AS h, count(*) AS c RETURN h, c ORDER BY "
      "h",
      // Planner fallbacks must still answer correctly.
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.eventId, b.eventId "
      "ORDER BY a.eventId, b.eventId",
      "MATCH (n) WHERE n.lamportLogicalTime > 100000000 RETURN n.eventId",
  };
}

query::QueryResult run_with(const ExecutionGraph& graph,
                            const std::string& text, bool planner,
                            unsigned threads) {
  QueryOptions options;
  options.use_planner = planner;
  options.threads = threads;
  // The chaos graphs are small; force real fan-out at threads > 1 so the
  // parallel merge path is actually exercised.
  options.min_parallel_items = 2;
  const query::QueryEngine engine(graph, options);
  return engine.run(text);
}

void expect_identical(const query::QueryResult& want,
                      const query::QueryResult& got, const std::string& tag,
                      const std::string& q) {
  ASSERT_EQ(want.columns, got.columns) << tag << ": " << q;
  ASSERT_EQ(want.rows, got.rows) << tag << ": " << q;
  ASSERT_FALSE(got.truncated) << tag << ": " << q;
}

void expect_differential(const Pair& p, const std::string& tag,
                         bool evict_between_queries = false) {
  const std::vector<std::string> corpus = build_corpus(p.mono->graph());
  for (const std::string& q : corpus) {
    // Reference: legacy pipeline, monolithic store, sequential.
    const query::QueryResult want =
        run_with(p.mono->graph(), q, /*planner=*/false, /*threads=*/1);
    for (const unsigned threads : {1u, 2u, 8u}) {
      const std::string t = tag + "/t" + std::to_string(threads);
      expect_identical(want,
                       run_with(p.mono->graph(), q, /*planner=*/true, threads),
                       t + "/mono", q);
      if (evict_between_queries) {
        p.segments->evict_all();
        ASSERT_GT(p.segments->evicted_count(), 0u) << tag;
      }
      expect_identical(want,
                       run_with(p.seg->graph(), q, /*planner=*/true, threads),
                       t + "/seg", q);
    }
    // Legacy over the segmented store must agree too (the planner is not
    // allowed to be the only correct path).
    expect_identical(want,
                     run_with(p.seg->graph(), q, /*planner=*/false, 1),
                     tag + "/seg-legacy", q);
  }
}

TEST(PlanDifferentialTest, BaselineTopology) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  const Pair p = build_pair(topology, "baseline");
  expect_differential(p, "baseline");
}

TEST(PlanDifferentialTest, ChaosScenarioMatrix) {
  for (const gen::ChaosScenario& scenario :
       gen::builtin_chaos_scenarios(/*seed=*/23)) {
    gen::TopologyOptions topology = scenario.topology;
    topology.requests = std::min<std::size_t>(topology.requests, 6);
    const Pair p = build_pair(topology, "chaos-" + scenario.name);
    expect_differential(p, scenario.name);
  }
}

TEST(PlanDifferentialTest, IdenticalUnderEviction) {
  gen::TopologyOptions topology;
  topology.num_services = 6;
  topology.depth = 2;
  topology.requests = 8;
  topology.retry_storm_p = 0.2;
  const Pair p = build_pair(topology, "evicted");
  ASSERT_GT(p.segments->evict_all(), 0u);
  expect_differential(p, "evicted", /*evict_between_queries=*/true);
}

TEST(PlanDifferentialTest, IdenticalWithPruningToggled) {
  gen::TopologyOptions topology;
  topology.num_services = 5;
  topology.depth = 2;
  topology.requests = 8;
  topology.contention_services = 2;
  const Pair p = build_pair(topology, "pruning");
  p.segments->set_pruning(false);
  expect_differential(p, "pruning-off");
  p.segments->set_pruning(true);
  expect_differential(p, "pruning-on");
}

// ---------------------------------------------------------------------------
// Plan shapes: the differential rows above prove whatever the planner chose
// is *correct*; these pin down that it chose what it was built to choose.
// ---------------------------------------------------------------------------

class PlanShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen::TopologyOptions topology;
    topology.num_services = 5;
    topology.depth = 2;
    topology.requests = 8;
    horus_ = new Horus();
    for (const Event& e : gen::microservice_topology(topology)) {
      horus_->ingest(e);
    }
    horus_->seal();
  }
  static void TearDownTestSuite() {
    delete horus_;
    horus_ = nullptr;
  }

  static query::Plan plan_of(const std::string& text) {
    const query::Query q = query::parse_query(text);
    return query::Planner(horus_->graph(), {}).plan(q);
  }

  static Horus* horus_;
};

Horus* PlanShapeTest::horus_ = nullptr;

TEST_F(PlanShapeTest, HashIndexEqualityBecomesTheScan) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.eventId = 4 RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  EXPECT_EQ(plan.scan, query::ScanKind::kIndexEq);
  EXPECT_EQ(plan.scan_key_name, "eventId");
  EXPECT_EQ(plan.predicates_pushed, 1u);
  EXPECT_TRUE(plan.predicates.empty());  // the conjunct was consumed
  EXPECT_NE(plan.projection, nullptr);   // RETURN folded into the plan
}

TEST_F(PlanShapeTest, LamportWindowBecomesARangeScan) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.lamportLogicalTime >= 3 AND "
      "n.lamportLogicalTime < 9 RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  EXPECT_EQ(plan.scan, query::ScanKind::kRange);
  EXPECT_EQ(plan.range_lo, 3);
  EXPECT_EQ(plan.range_hi, 8);  // < 9 tightens to <= 8
  // Range conjuncts stay in the residual filter (the filter is the
  // authority; the index only sources candidates).
  EXPECT_EQ(plan.predicates.size(), 2u);
}

TEST_F(PlanShapeTest, SelectivityOrdersTheResidualFilter) {
  // The interned eventType equality (1/distinct) must run before the
  // numeric inequality (0.90) even though it comes second in the source.
  // (eventType is interned but has no hash index, so neither conjunct can
  // be consumed by the scan.)
  const auto plan = plan_of(
      "MATCH (n) WHERE n.neverSetKey <> 1 AND n.eventType = \"SND\" "
      "RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.predicates.size(), 2u);
  EXPECT_EQ(plan.predicates[0].kind,
            query::PlannedPredicate::Kind::kInternedEq);
  EXPECT_LT(plan.predicates[0].selectivity, plan.predicates[1].selectivity);
}

TEST_F(PlanShapeTest, UnsafeConjunctsStayPinnedInSourceOrder) {
  const auto plan = plan_of(
      "MATCH (n) WHERE n.eventId + 0 >= 0 AND n.host = \"svc-host0\" "
      "RETURN n.eventId");
  ASSERT_TRUE(plan.planned);
  ASSERT_EQ(plan.predicates.size(), 2u);
  // Arithmetic is unsafe: it and everything after it keep source order, so
  // the cheap host predicate may NOT jump ahead of it.
  EXPECT_FALSE(plan.predicates[0].reorderable);
  EXPECT_EQ(plan.predicates[0].source_order, 0u);
}

TEST_F(PlanShapeTest, FallbacksNameTheirReason) {
  EXPECT_FALSE(plan_of("RETURN 1 AS one").planned);
  const auto rel = plan_of(
      "MATCH (a:SND)-[:HB]->(b:RCV) RETURN a.eventId, b.eventId");
  EXPECT_FALSE(rel.planned);
  EXPECT_NE(rel.fallback_reason.find("relationship"), std::string::npos);
}

TEST_F(PlanShapeTest, AggregatesAndOrderByStayInTheLegacyTail) {
  const auto agg = plan_of("MATCH (n) RETURN count(*) AS c");
  ASSERT_TRUE(agg.planned);
  EXPECT_EQ(agg.projection, nullptr);
  const auto ordered =
      plan_of("MATCH (n) RETURN n.eventId ORDER BY n.eventId");
  ASSERT_TRUE(ordered.planned);
  EXPECT_EQ(ordered.projection, nullptr);
}

TEST_F(PlanShapeTest, ExplainReportsActualRowCounts) {
  QueryOptions options;
  const query::QueryEngine engine(horus_->graph(), options);
  const auto explained =
      engine.explain("MATCH (n:SND) RETURN n.eventId LIMIT 3");
  ASSERT_TRUE(explained.report.planned);
  ASSERT_FALSE(explained.report.ops.empty());
  EXPECT_GE(explained.report.ops.front().actual_rows, 3);
  EXPECT_EQ(explained.result.rows.size(), 3u);
  const std::string text = explained.plan_text();
  EXPECT_NE(text.find("scan[label SND"), std::string::npos) << text;
  EXPECT_NE(text.find("act="), std::string::npos) << text;
}

TEST_F(PlanShapeTest, DisabledPlannerStillExplainsButRunsLegacy) {
  QueryOptions options;
  options.use_planner = false;
  const query::QueryEngine engine(horus_->graph(), options);
  const auto explained = engine.explain("MATCH (n:SND) RETURN n.eventId");
  ASSERT_TRUE(explained.report.planned);
  // Planned but not executed: actuals stay unfilled.
  EXPECT_LT(explained.report.ops.front().actual_rows, 0);
  EXPECT_FALSE(explained.result.rows.empty());
}

}  // namespace
}  // namespace horus
