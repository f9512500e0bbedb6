// SegmentManager unit suite: sealing boundaries, carving, the residency
// state machine (evict / reload / pin / LRU budget), CRC-checked spill
// files with typed corruption failures, summary-driven equality-scan
// pruning, and transparent fault-in on every store access path.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_store.h"
#include "graph/segment.h"
#include "test_dir.h"

namespace horus::graph {
namespace {

namespace fs = std::filesystem;

/// Clock lookup that knows nothing — summaries still freshen (lamport /
/// timestamp ranges come from stored properties, timelines stay empty).
ClockLookup no_clocks() {
  return [](NodeId, std::int32_t&, std::int32_t&,
            std::span<const std::int32_t>&) { return false; };
}

/// Adds `n` nodes with a lamport-ish int property that grows with the id so
/// sealed segments get disjoint value ranges, plus chain edges.
void fill(GraphStore& store, std::size_t n, bool edges = true) {
  const NodeId base = static_cast<NodeId>(store.node_count());
  for (std::size_t i = 0; i < n; ++i) {
    PropertyMap props;
    props["lamportLogicalTime"] =
        static_cast<std::int64_t>(base) + static_cast<std::int64_t>(i);
    props["host"] = std::string(i % 2 == 0 ? "alpha" : "beta");
    store.add_node(i % 3 == 0 ? "SND" : "LOG", std::move(props));
  }
  if (edges) {
    for (std::size_t i = 1; i < n; ++i) {
      store.add_edge(base + static_cast<NodeId>(i) - 1,
                     base + static_cast<NodeId>(i), "HB");
    }
  }
}

SegmentOptions small_segments(const std::string& spill_dir = "",
                              std::size_t per_segment = 8) {
  SegmentOptions options;
  options.nodes_per_segment = per_segment;
  options.shard_count = 3;
  options.spill_dir = spill_dir;
  options.auto_evict = false;
  return options;
}

TEST(SegmentStoreTest, SealsOnSizeBoundary) {
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 20);

  // 20 nodes at 8/segment: two sealed segments plus a 4-node active tail.
  EXPECT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  const std::vector<SegmentInfo> list = segments.list();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].first, 0u);
  EXPECT_EQ(list[0].count, 8u);
  EXPECT_TRUE(list[0].sealed);
  EXPECT_EQ(list[1].first, 8u);
  EXPECT_TRUE(list[1].sealed);
  EXPECT_EQ(list[2].first, 16u);
  EXPECT_EQ(list[2].count, 4u);
  EXPECT_FALSE(list[2].sealed);

  EXPECT_EQ(segments.segment_of(0), 0u);
  EXPECT_EQ(segments.segment_of(7), 0u);
  EXPECT_EQ(segments.segment_of(8), 1u);
  EXPECT_EQ(segments.segment_of(19), 2u);

  // Shards are attributed round-robin over segment ids.
  for (const SegmentInfo& info : list) {
    EXPECT_EQ(info.shard, info.id % 3u);
  }
  EXPECT_EQ(segments.shard_counts().size(), 3u);
  EXPECT_NE(segments.shard_report().find("shard 0"), std::string::npos);
}

TEST(SegmentStoreTest, SealActiveIsEpochBoundary) {
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 3);
  EXPECT_EQ(segments.sealed_count(), 0u);
  segments.seal_active();
  EXPECT_EQ(segments.sealed_count(), 1u);
  // Sealing an empty tail is a no-op.
  segments.seal_active();
  EXPECT_EQ(segments.segment_count(), 2u);
  EXPECT_EQ(segments.sealed_count(), 1u);
  // The next write lands in the fresh active segment.
  fill(store, 1, /*edges=*/false);
  EXPECT_EQ(segments.segment_of(3), 1u);
}

TEST(SegmentStoreTest, CarvesExistingNodesOnEnable) {
  GraphStore store;
  fill(store, 20);
  SegmentManager& segments = store.enable_segments(small_segments());
  EXPECT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  EXPECT_EQ(segments.info(2).count, 4u);
  EXPECT_FALSE(segments.info(2).sealed);
}

TEST(SegmentStoreTest, CarveExistingFalseKeepsOneActiveSegment) {
  GraphStore store;
  fill(store, 20);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  EXPECT_EQ(segments.segment_count(), 1u);
  EXPECT_EQ(segments.sealed_count(), 0u);
  EXPECT_EQ(segments.info(0).count, 20u);
}

TEST(SegmentStoreTest, AdoptSealedImposesCheckpointBoundaries) {
  GraphStore store;
  fill(store, 20);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  segments.adopt_sealed({{0, 8}, {8, 5}});
  ASSERT_EQ(segments.segment_count(), 3u);
  EXPECT_EQ(segments.sealed_count(), 2u);
  EXPECT_EQ(segments.info(1).first, 8u);
  EXPECT_EQ(segments.info(1).count, 5u);
  EXPECT_EQ(segments.info(2).first, 13u);
  EXPECT_EQ(segments.info(2).count, 7u);
  EXPECT_FALSE(segments.info(2).sealed);
  EXPECT_EQ(segments.segment_of(12), 1u);
  EXPECT_EQ(segments.segment_of(13), 2u);
}

TEST(SegmentStoreTest, AdoptSealedRejectsBadTilings) {
  GraphStore store;
  fill(store, 10);
  SegmentOptions options = small_segments();
  options.carve_existing = false;
  SegmentManager& segments = store.enable_segments(options);
  // Gap, overlap, and overflow tilings all throw without mutating layout.
  EXPECT_THROW(segments.adopt_sealed({{1, 4}}), std::logic_error);
  EXPECT_THROW(segments.adopt_sealed({{0, 4}, {3, 4}}), std::logic_error);
  EXPECT_THROW(segments.adopt_sealed({{0, 11}}), std::logic_error);
  EXPECT_EQ(segments.segment_count(), 1u);
}

/// Full payload snapshot through the public accessors.
struct NodeSnapshot {
  std::string label;
  PropertyMap props;
  std::vector<Edge> out;
  std::vector<Edge> in;

  bool operator==(const NodeSnapshot&) const = default;
};

std::vector<NodeSnapshot> snapshot(const GraphStore& store) {
  std::vector<NodeSnapshot> all;
  for (NodeId n = 0; n < store.node_count(); ++n) {
    NodeSnapshot s;
    s.label = store.node_label(n);
    s.props = store.node_properties(n);
    const auto out = store.out_edges(n);
    const auto in = store.in_edges(n);
    s.out.assign(out.begin(), out.end());
    s.in.assign(in.begin(), in.end());
    all.push_back(std::move(s));
  }
  return all;
}

TEST(SegmentStoreTest, EvictReloadRoundTripsPayload) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  const std::vector<NodeSnapshot> before = snapshot(store);

  const std::size_t released = segments.evict(0);
  EXPECT_GT(released, 0u);
  EXPECT_FALSE(segments.is_resident(0));
  EXPECT_EQ(segments.evicted_count(), 1u);
  EXPECT_TRUE(fs::exists(dir.path() / "seg-0.hseg"));

  // Explicit reload restores the payload bit-for-bit.
  segments.reload(0);
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_EQ(snapshot(store), before);

  // Transparent fault-in: evict again, then read through the accessors
  // without an explicit reload.
  ASSERT_GT(segments.evict(0), 0u);
  EXPECT_EQ(snapshot(store), before);
  EXPECT_TRUE(segments.is_resident(0));
}

TEST(SegmentStoreTest, EvictRefusesUnsealedPinnedAndSpilllessSegments) {
  GraphStore no_spill_store;
  SegmentManager& no_spill =
      no_spill_store.enable_segments(small_segments(/*spill_dir=*/""));
  fill(no_spill_store, 20);
  EXPECT_EQ(no_spill.evict(0), 0u);  // no spill_dir configured
  EXPECT_TRUE(no_spill.is_resident(0));

  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  EXPECT_EQ(segments.evict(2), 0u);  // active tail is never evictable

  segments.pin(0);
  EXPECT_EQ(segments.evict(0), 0u);  // pinned
  segments.unpin(0);
  EXPECT_GT(segments.evict(0), 0u);
  EXPECT_EQ(segments.evict(0), 0u);  // already evicted
}

TEST(SegmentStoreTest, PinFaultsInAndBlocksEviction) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  segments.pin(0);
  EXPECT_TRUE(segments.is_resident(0));  // pin faulted it back in
  EXPECT_EQ(segments.evict_all(), segments.info(1).payload_bytes);
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_FALSE(segments.is_resident(1));
  segments.unpin(0);
}

TEST(SegmentStoreTest, EvictToBudgetIsLru) {
  TestDir dir;
  GraphStore store;
  SegmentOptions options = small_segments(dir.str());
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 36);  // segments 0..3 sealed, active tail of 4
  ASSERT_EQ(segments.sealed_count(), 4u);

  // Touch segment 0 (reload stamps LRU) so 1 becomes the coldest.
  ASSERT_GT(segments.evict(0), 0u);
  segments.reload(0);

  // Budget that forces exactly two evictions: the two coldest sealed
  // segments (1, then 2) go; 0 (just touched) and 3 (sealed last) stay.
  const std::size_t keep = segments.info(0).payload_bytes +
                           segments.info(3).payload_bytes;
  GraphStore budgeted;  // fresh store: budget must be set at enable time
  SegmentOptions bopts = small_segments(dir.str() + "/b");
  bopts.resident_budget_bytes = keep;
  SegmentManager& bsegs = budgeted.enable_segments(bopts);
  fill(budgeted, 36);
  ASSERT_GT(bsegs.evict(0), 0u);
  bsegs.reload(0);
  EXPECT_GT(bsegs.evict_to_budget(), 0u);
  EXPECT_LE(bsegs.resident_bytes(), keep);
  EXPECT_TRUE(bsegs.is_resident(0));
  EXPECT_FALSE(bsegs.is_resident(1));
  EXPECT_FALSE(bsegs.is_resident(2));
  EXPECT_TRUE(bsegs.is_resident(3));
}

TEST(SegmentStoreTest, AutoEvictOnSealHoldsBudget) {
  TestDir dir;
  GraphStore store;
  SegmentOptions options = small_segments(dir.str());
  options.auto_evict = true;
  options.resident_budget_bytes = 1;  // evict everything evictable on seal
  SegmentManager& segments = store.enable_segments(options);
  // Nodes only: chain edges into sealed segments would fault them back in
  // (the write path keeps the budget only at seal boundaries).
  fill(store, 36, /*edges=*/false);
  EXPECT_EQ(segments.sealed_count(), 4u);
  EXPECT_GE(segments.evicted_count(), 3u);
  EXPECT_LE(segments.resident_bytes(), segments.info(3).payload_bytes);
  // The graph still reads back whole (fault-in path under budget pressure).
  EXPECT_EQ(snapshot(store).size(), 36u);
}

TEST(SegmentStoreTest, CorruptSpillFailsTypedAndStoreStaysUsable) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);

  const fs::path spill = dir.path() / "seg-0.hseg";
  ASSERT_TRUE(fs::exists(spill));

  // Bit-flip a byte mid-file: CRC mismatch.
  {
    std::fstream f(spill, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.get(c);
    f.seekp(40);
    f.put(c == 'x' ? 'y' : 'x');
  }
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);
  EXPECT_FALSE(segments.is_resident(0));

  // Truncation: structural failure, still the typed error.
  {
    const auto size = fs::file_size(spill);
    fs::resize_file(spill, size / 2);
  }
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);

  // Missing file.
  fs::remove(spill);
  EXPECT_THROW(segments.reload(0), SegmentCorruptError);

  // The rest of the store still serves reads and writes.
  EXPECT_EQ(store.node_label(12), store.node_label(12));
  store.set_property(15, "post", std::int64_t{1});
  EXPECT_TRUE(property_equals(store.property(15, "post"), std::int64_t{1}));
}

TEST(SegmentStoreTest, SegmentFileRoundTripAndTamperDetection) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments());
  fill(store, 20);

  const std::string path = (dir.path() / "seg.hseg").string();
  segments.write_segment_file(1, path);
  const ParsedSegmentFile parsed = read_segment_file(path);
  EXPECT_EQ(parsed.segment, 1u);
  EXPECT_EQ(parsed.first, 8u);
  EXPECT_EQ(parsed.count, 8u);
  ASSERT_EQ(parsed.nodes.size(), 8u);
  EXPECT_EQ(parsed.nodes.front().id, 8u);
  EXPECT_EQ(parsed.nodes.front().label, store.node_label(8));
  // Every out-edge of nodes 8..15 appears in the file.
  std::size_t expect_edges = 0;
  for (NodeId n = 8; n < 16; ++n) expect_edges += store.out_edges(n).size();
  EXPECT_EQ(parsed.edges, expect_edges);

  // Tampering with the payload flips the CRC.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto pos = text.find("\"LOG\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "\"BAD\"");
  std::ofstream(path) << text;
  EXPECT_THROW(read_segment_file(path), SegmentCorruptError);
  try {
    (void)read_segment_file(path);
    FAIL() << "expected SegmentCorruptError";
  } catch (const SegmentCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SegmentStoreTest, WriteSegmentFileCopiesCleanSpill) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  // Evicted segment: write_segment_file must not need the payload resident.
  const std::string out = (dir.path() / "copy.hseg").string();
  segments.write_segment_file(0, out);
  EXPECT_FALSE(segments.is_resident(0));
  const ParsedSegmentFile parsed = read_segment_file(out);
  EXPECT_EQ(parsed.count, 8u);
}

TEST(SegmentStoreTest, EqualityScanRangesPruneBySummary) {
  GraphStore store;
  SegmentOptions options = small_segments();
  options.lamport_key = store.intern_prop_key("lamportLogicalTime");
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 40);  // lamport value == node id, so ranges are disjoint

  // Before summaries: everything must be scanned (conservative).
  const auto unpruned =
      segments.equality_scan_ranges(options.lamport_key, 12);
  ASSERT_EQ(unpruned.size(), 1u);
  EXPECT_EQ(unpruned[0], (std::pair<NodeId, NodeId>{0u, 40u}));

  EXPECT_GT(segments.update_summaries(no_clocks()), 0u);

  // Value 12 lives in segment 1 ([8, 16)); sealed segments 0, 2, 3 are
  // skipped, the active tail ([32, 40)) is always scanned.
  const auto ranges = segments.equality_scan_ranges(options.lamport_key, 12);
  std::vector<NodeId> visited;
  for (const auto& [begin, end] : ranges) {
    for (NodeId n = begin; n < end; ++n) visited.push_back(n);
  }
  for (NodeId n = 8; n < 16; ++n) {
    EXPECT_NE(std::find(visited.begin(), visited.end(), n), visited.end());
  }
  EXPECT_LT(visited.size(), 40u);
  EXPECT_EQ(std::find(visited.begin(), visited.end(), NodeId{20}),
            visited.end());

  // Ground truth: the pruned scan finds exactly the full-scan matches.
  std::vector<NodeId> full;
  for (NodeId n = 0; n < store.node_count(); ++n) {
    if (property_equals(store.property(n, options.lamport_key),
                        std::int64_t{12})) {
      full.push_back(n);
    }
  }
  std::vector<NodeId> pruned;
  for (NodeId n : visited) {
    if (property_equals(store.property(n, options.lamport_key),
                        std::int64_t{12})) {
      pruned.push_back(n);
    }
  }
  EXPECT_EQ(pruned, full);

  // Pruning master switch: off restores the full range.
  segments.set_pruning(false);
  const auto off = segments.equality_scan_ranges(options.lamport_key, 12);
  ASSERT_EQ(off.size(), 1u);
  EXPECT_EQ(off[0], (std::pair<NodeId, NodeId>{0u, 40u}));
  segments.set_pruning(true);

  // Unsummarised keys never prune.
  const PropKeyId host = store.prop_key_id("host");
  const auto other = segments.equality_scan_ranges(host, 12);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], (std::pair<NodeId, NodeId>{0u, 40u}));
}

TEST(SegmentStoreTest, SummaryRangeAndStalenessProtocol) {
  GraphStore store;
  SegmentOptions options = small_segments();
  options.lamport_key = store.intern_prop_key("lamportLogicalTime");
  SegmentManager& segments = store.enable_segments(options);
  fill(store, 16);
  EXPECT_FALSE(segments.summary_range(0, options.lamport_key).has_value());

  segments.update_summaries(no_clocks());
  const auto range = segments.summary_range(0, options.lamport_key);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 0);
  EXPECT_EQ(range->second, 7);

  // A property write into the sealed segment stales its summary...
  store.set_property(3, options.lamport_key, std::int64_t{100});
  EXPECT_FALSE(segments.summary_range(0, options.lamport_key).has_value());
  EXPECT_FALSE(segments.info(0).summary_fresh);

  // ...and the next update pass rebuilds only the stale one.
  EXPECT_EQ(segments.update_summaries(no_clocks()), 1u);
  const auto rebuilt = segments.summary_range(0, options.lamport_key);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->second, 100);

  // The active tail never reports a range.
  EXPECT_FALSE(
      segments.summary_range(segments.segment_count() - 1, options.lamport_key)
          .has_value());
}

TEST(SegmentStoreTest, WritesToEvictedNodesFaultIn) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);

  store.set_property(3, "note", std::string("late"));
  EXPECT_TRUE(segments.is_resident(0));
  EXPECT_TRUE(property_equals(store.property(3, "note"),
                              std::string("late")));

  ASSERT_GT(segments.evict(0), 0u);
  store.add_edge(17, 3, "XHB");  // edge into an evicted segment
  EXPECT_TRUE(segments.is_resident(0));
  const auto in = store.in_edges(3);
  EXPECT_TRUE(std::any_of(in.begin(), in.end(), [&](const Edge& e) {
    return store.edge_type_name(e.type) == "XHB";
  }));
}

TEST(SegmentStoreTest, IndexBuildsAndLookupsSurviveEviction) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);

  // find_nodes without an index: full scan over evicted segments works.
  segments.evict_all();
  const auto alphas = store.find_nodes("host", std::string("alpha"));
  EXPECT_EQ(alphas.size(), 10u);

  // create_index reloads everything it needs and back-fills.
  segments.evict_all();
  store.create_index("host");
  const auto indexed = store.find_nodes("host", std::string("alpha"));
  EXPECT_EQ(indexed, alphas);

  // Index lookups after a fresh eviction stay correct (index is resident).
  segments.evict_all();
  EXPECT_EQ(store.find_nodes("host", std::string("alpha")), alphas);
}

TEST(SegmentStoreTest, ReadHoldBlocksEvictionNotFaultIn) {
  TestDir dir;
  GraphStore store;
  SegmentManager& segments = store.enable_segments(small_segments(dir.str()));
  fill(store, 20);
  ASSERT_GT(segments.evict(0), 0u);
  {
    const SegmentManager::ReadHold hold = segments.read_hold();
    EXPECT_EQ(segments.evict(1), 0u);      // eviction refused under hold
    segments.reload(0);                    // fault-in still allowed
    EXPECT_TRUE(segments.is_resident(0));
  }
  EXPECT_GT(segments.evict(1), 0u);  // hold released
}

}  // namespace
}  // namespace horus::graph
