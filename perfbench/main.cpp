// Horus benchmark: one process runs one workload through the deployed
// ingest stages and both query engines, checks every answer against the
// benchmark's own happens-before model, and prints one JSON line.
//
//   horus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --data-root <dir> [--perturb q1|q2|restore-edge]
//
// A run is set-up followed by whole rounds until --seconds have passed.
// A round ingests the workload live (chunk by chunk: decode, publish,
// Pipeline::drain, ClockDaemon::tick, a few live queries), then queries the
// finished graph (Q1 blocks, Q2 pairs, both Cypher mixes), then checkpoints
// and restores it. --trace 1 records spans around each call into the
// program and replays the events through the single-threaded layers; it
// prints the per-layer metrics instead of the end-to-end ones. README.md
// lists every metric and the layer each one belongs to.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "core/clock_daemon.h"
#include "core/execution_graph.h"
#include "core/inter_encoder.h"
#include "core/intra_encoder.h"
#include "core/logical_clocks.h"
#include "core/pipeline.h"
#include "measure.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/procedures.h"
#include "queue/broker.h"
#include "service/checkpoint.h"
#include "workload.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

// Captured before main(): set-up is timed from here.
const Clock::time_point g_process_start = Clock::now();

constexpr double kTail = 0.90;  // visible_tail_ms and q2_tail_ms percentile

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root;
  std::string perturb;  // "", "q1", "q2" or "restore-edge"
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--data-root") {
      a.data_root = value;
    } else if (key == "--perturb") {
      a.perturb = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.data_root.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: horus_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --data-root <dir> [--perturb q1|q2|restore-edge]");
  }
  if (!a.perturb.empty() && a.perturb != "q1" && a.perturb != "q2" &&
      a.perturb != "restore-edge") {
    throw std::invalid_argument("unknown --perturb " + a.perturb);
  }
  return a;
}

/// A private directory under the data root, removed when the run ends.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    path_ = fs::absolute(root) /
            ("run-" + std::to_string(::getpid()) + "-" +
             std::to_string(Clock::now().time_since_epoch().count()));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

std::uintmax_t directory_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Rows canonical(const horus::query::QueryResult& result, bool ordered) {
  Rows rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += '|';
      line += row[i].to_display_string();
    }
    rows.push_back(std::move(line));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  return rows;
}

/// The deployed ingest stages for one round: broker -> intra worker ->
/// inter worker into the graph, and the clock daemon ticked by the caller.
struct Live {
  explicit Live(const horus::PipelineOptions& options)
      : pipeline(broker, graph, options) {
    pipeline.start();
  }
  horus::queue::Broker broker;
  horus::ExecutionGraph graph;
  horus::Pipeline pipeline;
  horus::ClockDaemon daemon{graph};
};

/// A graph and clock daemon rebuilt from a checkpoint.
struct Restored {
  horus::ExecutionGraph graph;
  horus::ClockDaemon daemon{graph};
};

/// Event index -> node id; kNoNode where an event has no node. Node ids
/// depend on flush order, so on the round.
std::vector<horus::graph::NodeId> map_nodes(const horus::ExecutionGraph& graph,
                                            std::size_t events) {
  std::vector<horus::graph::NodeId> nodes(events, horus::graph::kNoNode);
  for (std::size_t i = 0; i < events; ++i) {
    if (const auto v = graph.node_of(horus::EventId{i})) nodes[i] = *v;
  }
  return nodes;
}

/// Runs `fn(engine)` with a QueryEngine over `graph` that has the horus.*
/// procedures registered against the daemon's clocks, under its read lock.
template <typename Fn>
void with_engine(const horus::ExecutionGraph& graph,
                 const horus::ClockDaemon& daemon, Fn&& fn) {
  daemon.with_clocks([&](const horus::ClockTable& clocks) {
    horus::query::QueryEngine engine(graph);
    horus::query::register_horus_procedures(engine, graph, clocks);
    fn(engine);
    return 0;
  });
}

/// A round's graph once its ingest has finished, with the event -> node map
/// the queries need.
struct Finished {
  Finished(std::unique_ptr<Live> l, const Inputs& in)
      : live(std::move(l)), nodes(map_nodes(live->graph, in.events.size())) {
    if (std::count(nodes.begin(), nodes.end(), horus::graph::kNoNode) > 0) {
      throw std::runtime_error("an ingested event has no node");
    }
    q1.reserve(in.q1.size());
    for (const Inputs::Q1Pair& p : in.q1) {
      q1.emplace_back(nodes[in.sources[p.slot]], nodes[p.target]);
    }
  }
  std::unique_ptr<Live> live;
  std::vector<horus::graph::NodeId> nodes;
  std::vector<std::pair<horus::graph::NodeId, horus::graph::NodeId>> q1;
};

// Checkpoint + restore repetitions per round.
constexpr std::size_t kPersistReps = 3;

horus::PipelineOptions pipeline_options() {
  horus::PipelineOptions o;
  // One worker per stage: with the main thread, at most three busy threads
  // on a four-core host. Flush intervals are short, so that a chunk becomes
  // visible when the stages have done its work rather than when a flush
  // timer fires.
  o.intra_workers = 1;
  o.inter_workers = 1;
  o.event_flush_interval_ms = 1;
  o.relationship_flush_interval_ms = 1;
  return o;
}

class Bench {
 public:
  Bench(const Args& args, const Inputs& in, const TempDir& dir)
      : args_(args), in_(in), dir_(dir) {}

  void setup() { setup_live_ = std::make_unique<Live>(pipeline_options()); }

  /// One round: ingest the workload live into fresh objects (the first
  /// round uses those set-up made). After each chunk, a share of the
  /// finished-graph work runs against the previous round's graph, so every
  /// query and persistence metric samples the whole run rather than one
  /// stretch of it; the host's speed drifts over seconds (README.md). The
  /// first round has no finished graph yet and only warms up.
  void round(bool traced) {
    SpanLog* log = traced ? &spans_ : nullptr;
    std::unique_ptr<Live> live = setup_live_ != nullptr
                                     ? std::move(setup_live_)
                                     : std::make_unique<Live>(pipeline_options());
    const double ingest_s = ingest(*live, log);
    if (finished_ != nullptr) {
      (traced ? traced_ingest_s_ : untraced_ingest_s_).push_back(ingest_s);
    }
    if (traced) {
      record_q2_layer();
      snapshot(live->graph);
      replay_layers();
    }
    finished_.reset();
    // Hand the freed graph back to the system, so that peak_rss_mb measures
    // what a round holds rather than what the allocator kept from earlier
    // rounds.
    ::malloc_trim(0);
    finished_ = std::make_unique<Finished>(std::move(live), in_);
    if (traced) cypher_layer(*finished_);
    ++rounds_;
    report_round(traced);
  }

  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  [[nodiscard]] std::size_t visible_samples() const {
    return visible_ms_.size();
  }
  [[nodiscard]] std::size_t q2_samples() const { return q2_ms_.size(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  void print_spans() const { spans_.print_summary(stderr); }

  /// Every independent check; returns the number of failures, each reported
  /// on stderr.
  std::size_t check() {
    std::size_t before = failures_;
    check_recorded();
    check_graph("finished", finished_->live->graph, finished_->live->daemon,
                args_.perturb == "q1", args_.perturb == "q2", false);
    // The restored graph checked is the last finished graph's, through the
    // same checkpoint and restore path the timed repetitions use.
    fs::remove_all(dir_.sub("checkpoint"));
    checkpoint(*finished_);
    const std::unique_ptr<Restored> restored = restore();
    check_graph("restored", restored->graph, restored->daemon, false, false,
                args_.perturb == "restore-edge");
    return failures_ - before;
  }

  void end_to_end_metrics(double setup_s, double rss_mib,
                        std::map<std::string, std::pair<double, std::string>>&
                            out) const {
    out["setup_s"] = {setup_s, "s"};
    out["ingest_events_per_s"] = {median(ingest_rate_), "events/s"};
    out["visible_p50_ms"] = {median(visible_ms_), "ms"};
    out["visible_tail_ms"] = {percentile(visible_ms_, kTail), "ms"};
    out["q1_ns"] = {median(q1_ns_), "ns"};
    out["q2_p50_ms"] = {median(q2_ms_), "ms"};
    out["q2_tail_ms"] = {percentile(q2_ms_, kTail), "ms"};
    out["cypher_scan_ms"] = {median(mix_ms_.at("scan")), "ms"};
    out["cypher_join_ms"] = {median(mix_ms_.at("join")), "ms"};
    out["checkpoint_s"] = {median(checkpoint_s_), "s"};
    out["restore_s"] = {median(restore_s_), "s"};
    out["checkpoint_bytes_per_event"] = {median(checkpoint_bpe_), "B"};
    out["peak_rss_mb"] = {rss_mib, "MiB"};
  }

  void per_layer_metrics(
      std::map<std::string, std::pair<double, std::string>>& out) const {
    auto per_round = [&](const std::string& name, const std::string& unit) {
      const auto it = layer_.find(name);
      out[name] = {it == layer_.end() ? 0.0 : median(it->second), unit};
    };
    per_round("event.decode_ns", "ns");
    per_round("queue.publish_ns", "ns");
    per_round("event.encode_ns", "ns");
    out["core.pipeline.drain_ms"] = {
        median(spans_.durations("core.pipeline.drain")) * 1e3, "ms"};
    per_round("core.intra_encoder.ns_per_event", "ns");
    per_round("core.inter_encoder.ns_per_event", "ns");
    per_round("core.inter_encoder.pending_peak", "count");
    out["core.clock_daemon.tick_ms"] = {
        median(spans_.durations("core.clock_daemon.tick")) * 1e3, "ms"};
    per_round("core.clock_daemon.tick_growth", "ratio");
    per_round("core.clock_daemon.heals", "count");
    per_round("core.clock_daemon.audited_edges_per_new_edge", "ratio");
    per_round("core.logical_clocks.assign_ns_per_event", "ns");
    per_round("core.logical_clocks.bytes_per_event", "B");
    per_round("core.logical_clocks.save_s", "s");
    per_round("core.logical_clocks.load_s", "s");
    per_round("core.logical_clocks.table_bytes", "B");
    per_round("core.causal_query.q2_lc_candidates", "count");
    per_round("core.causal_query.q2_result_nodes", "count");
    per_round("core.causal_query.q2_kept_ratio", "ratio");
    per_round("query.parse_us", "us");
    for (const CypherMix& mix : in_.mixes) {
      for (const CypherShape& shape : mix.shapes) {
        const std::string span = "query." + mix.name + "." + shape.name;
        out[span + "_ms"] = {median(spans_.durations(span)) * 1e3, "ms"};
      }
      per_round("query." + mix.name + ".planned_share", "ratio");
    }
    per_round("graph.snapshot_save_s", "s");
    per_round("graph.snapshot_load_s", "s");
    per_round("graph.snapshot_bytes", "B");
    out["trace.overhead_ratio"] = {
        median(traced_ingest_s_) / median(untraced_ingest_s_), "ratio"};
  }

 private:
  /// One progress line per round on stderr: medians of the samples so far.
  void report_round(bool traced) const {
    if (checkpoint_s_.empty()) {
      std::fprintf(stderr, "round %zu: warm-up ingest\n", rounds_);
      return;
    }
    std::fprintf(
        stderr,
        "round %zu%s: ingest %.0f ev/s, visible p50 %.2f ms, q1 %.1f ns, "
        "q2 p50 %.3f ms, cypher scan %.2f / join %.2f ms, checkpoint %.3f s, "
        "restore %.3f s\n",
        rounds_, traced ? " (traced)" : "", median(ingest_rate_),
        median(visible_ms_), median(q1_ns_), median(q2_ms_),
        median(mix_ms_.at("scan")), median(mix_ms_.at("join")),
        median(checkpoint_s_), median(restore_s_));
  }

  void fail(const std::string& what) {
    ++failures_;
    if (failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }

  void record_layer(const std::string& name, double value) {
    layer_[name].push_back(value);
  }

  // -- live ingest -----------------------------------------------------------

  /// Publishes the workload chunk by chunk in a closed loop; returns the
  /// time the chunks took from their first decode until queryable, summed
  /// (the loop's query work between chunks is not ingest time).
  double ingest(Live& live, SpanLog* log) {
    const std::size_t n = in_.events.size();
    std::vector<horus::Event> batch;
    std::vector<double> ticks;
    double decode_s = 0;
    double publish_s = 0;
    double audited = 0;
    double busy_s = 0;
    std::size_t begin = 0;
    for (std::size_t c = 0; c < in_.chunk_end.size(); ++c) {
      const std::size_t end = in_.chunk_end[c];
      const auto t0 = Clock::now();
      batch.clear();
      for (std::size_t k = begin; k < end; ++k) {
        batch.push_back(
            horus::Event::from_json(horus::Json::parse(in_.wire[k])));
      }
      const auto t1 = Clock::now();
      for (const horus::Event& e : batch) live.pipeline.publish(e);
      const auto t2 = Clock::now();
      if (!live.pipeline.drain()) throw std::runtime_error("drain timed out");
      const auto t3 = Clock::now();
      live.daemon.tick();
      const auto t4 = Clock::now();
      if (finished_ != nullptr) {
        visible_ms_.push_back(seconds_between(t0, t4) * 1e3);
      }
      busy_s += seconds_between(t0, t4);
      attempted_ += (end - begin) + 2;
      if (log != nullptr) {
        const std::int32_t chunk = log->add("ingest.chunk", -1, t0, t4);
        log->add("event.decode", chunk, t0, t1);
        log->add("queue.publish", chunk, t1, t2);
        log->add("core.pipeline.drain", chunk, t2, t3);
        log->add("core.clock_daemon.tick", chunk, t3, t4);
        decode_s += seconds_between(t0, t1);
        publish_s += seconds_between(t1, t2);
        ticks.push_back(seconds_between(t3, t4));
        // The tick's audit re-checks every edge between assigned nodes;
        // after a drain, that is every edge stored so far.
        audited += static_cast<double>(live.graph.store().edge_count());
      }
      live_queries(live, c);
      if (finished_ != nullptr) slot(c, in_.chunk_end.size(), log);
      begin = end;
    }
    if (finished_ != nullptr) {
      ingest_rate_.push_back(static_cast<double>(n) / busy_s);
    }
    if (log != nullptr) {
      const double events = static_cast<double>(n);
      record_layer("event.decode_ns", decode_s * 1e9 / events);
      record_layer("queue.publish_ns", publish_s * 1e9 / events);
      record_layer("core.clock_daemon.tick_growth", ticks.back() / ticks.front());
      record_layer("core.clock_daemon.heals",
                   static_cast<double>(live.daemon.heals()));
      record_layer("core.clock_daemon.audited_edges_per_new_edge",
                   audited / static_cast<double>(live.graph.store().edge_count()));
    }
    return busy_s;
  }

  /// A few Q1/Q2 queries against the live daemon after each chunk. Their
  /// answers may only be weaker than the final ones (an edge can still be
  /// missing), so a true Q1 must stay true and a Q2 may only grow.
  void live_queries(Live& live, std::size_t chunk) {
    auto node = [&](std::uint32_t event) {
      const auto v = live.graph.node_of(horus::EventId{event});
      if (!v) throw std::runtime_error("a drained event has no node");
      return *v;
    };
    int asked = 0;
    for (int tries = 0; tries < 256 && asked < 8; ++tries) {
      const Inputs::Q1Pair& p = in_.q1[live_cursor_++ % in_.q1.size()];
      const std::uint32_t a = in_.sources[p.slot];
      if (in_.chunk_of[a] > chunk || in_.chunk_of[p.target] > chunk) continue;
      const bool hb = live.daemon.happens_before(node(a), node(p.target));
      if (hb && !in_.q1_expected(p)) {
        fail("live Q1 answered true for a pair that is not causally related");
      }
      ++asked;
      ++attempted_;
    }
    const std::size_t i = chunk % kPairs;
    if (in_.chunk_of[in_.sources[i]] <= chunk &&
        in_.chunk_of[in_.targets[i]] <= chunk) {
      const auto r = live.daemon.get_causal_graph(node(in_.sources[i]),
                                                  node(in_.targets[i]));
      live_q2_.push_back({i, r.nodes.size()});
      ++attempted_;
    }
  }

  // -- work on the finished graph ----------------------------------------------

  /// The finished-graph work that follows chunk k of `chunks`: an even share
  /// of the round's Q1 blocks, Q2 queries, Cypher passes and checkpoint/
  /// restore repetitions.
  void slot(std::size_t k, std::size_t chunks, SpanLog* log) {
    Finished& f = *finished_;
    auto share = [&](std::size_t total, auto&& fn) {
      for (std::size_t j = total * k / chunks; j < total * (k + 1) / chunks;
           ++j) {
        fn(j);
      }
    };
    const auto& spec = *in_.spec;
    share(static_cast<std::size_t>(spec.q1_blocks),
          [&](std::size_t j) { q1_block(f, j % in_.q1_block_true.size(), log); });
    share(static_cast<std::size_t>(spec.q2_passes) * kPairs,
          [&](std::size_t j) { q2_query(f, j % kPairs, log); });
    share(static_cast<std::size_t>(spec.cypher_passes),
          [&](std::size_t) { cypher_pass(f, log); });
    share(kPersistReps, [&](std::size_t) { persist(f, log); });
  }

  void q1_block(const Finished& f, std::size_t block, SpanLog* log) {
    const ScopedSpan span(log, "core.causal_query.q1_block");
    std::size_t trues = 0;
    const auto t0 = Clock::now();
    for (std::size_t k = block * kQ1Block; k < (block + 1) * kQ1Block; ++k) {
      trues += f.live->daemon.happens_before(f.q1[k].first, f.q1[k].second);
    }
    q1_ns_.push_back(seconds_between(t0, Clock::now()) * 1e9 / kQ1Block);
    if (trues != in_.q1_block_true[block]) {
      fail("Q1 block " + std::to_string(block) + ": " + std::to_string(trues) +
           " true answers, expected " +
           std::to_string(in_.q1_block_true[block]));
    }
    attempted_ += kQ1Block;
  }

  void q2_query(const Finished& f, std::size_t i, SpanLog* log) {
    horus::CausalGraphResult r;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span(log, "core.causal_query.q2");
      r = f.live->daemon.get_causal_graph(f.nodes[in_.sources[i]],
                                          f.nodes[in_.targets[i]]);
    }
    q2_ms_.push_back(seconds_between(t0, Clock::now()) * 1e3);
    q2_sizes_.push_back({i, r.nodes.size(), r.edges.size()});
    if (log != nullptr) {
      q2_candidates_ += static_cast<double>(r.lc_candidates);
      q2_kept_ += static_cast<double>(r.nodes.size());
      ++q2_traced_;
    }
    ++attempted_;
  }

  void record_q2_layer() {
    if (q2_traced_ == 0) return;  // the first round queries no graph yet
    const auto queries = static_cast<double>(q2_traced_);
    record_layer("core.causal_query.q2_lc_candidates", q2_candidates_ / queries);
    record_layer("core.causal_query.q2_result_nodes", q2_kept_ / queries);
    record_layer("core.causal_query.q2_kept_ratio", q2_kept_ / q2_candidates_);
    q2_candidates_ = q2_kept_ = 0;
    q2_traced_ = 0;
  }

  /// One pass over both Cypher mixes through QueryEngine with the horus.*
  /// procedures, each shape with the pass's parameter set. Rows are kept
  /// per (mix, shape, parameter set) for the checks.
  void cypher_pass(const Finished& f, SpanLog* log) {
    with_engine(f.live->graph, f.live->daemon, [&](const auto& engine) {
      const std::size_t k = cypher_cursor_++;
      for (std::size_t m = 0; m < in_.mixes.size(); ++m) {
        const CypherMix& mix = in_.mixes[m];
        double mix_s = 0;
        for (std::size_t s = 0; s < mix.shapes.size(); ++s) {
          const CypherShape& shape = mix.shapes[s];
          const std::size_t p = k % shape.params.size();
          horus::query::QueryResult result;
          const auto t0 = Clock::now();
          {
            const ScopedSpan span(
                log, span_names_.intern("query." + mix.name + "." + shape.name));
            result = engine.run(shape.params[p].text);
          }
          mix_s += seconds_between(t0, Clock::now());
          observe(m, s, p, canonical(result, shape.ordered));
          ++attempted_;
        }
        mix_ms_[mix.name].push_back(mix_s * 1e3);
      }
    });
  }

  /// Parse time of every query text, and the share of each mix's shapes
  /// that EXPLAIN reports as planned.
  void cypher_layer(const Finished& f) {
    with_engine(f.live->graph, f.live->daemon, [&](const auto& engine) {
      std::vector<double> parse_us;
      for (const CypherMix& mix : in_.mixes) {
        std::size_t planned = 0;
        for (const CypherShape& shape : mix.shapes) {
          for (const CypherQuery& q : shape.params) {
            const auto t0 = Clock::now();
            const horus::query::Query parsed = horus::query::parse_query(q.text);
            parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
            if (parsed.clauses.empty()) fail("a mix query parsed to nothing");
          }
          planned += engine.explain(shape.params.front().text).report.planned;
        }
        record_layer("query." + mix.name + ".planned_share",
                     static_cast<double>(planned) /
                         static_cast<double>(mix.shapes.size()));
      }
      record_layer("query.parse_us", median(parse_us));
    });
  }

  void observe(std::size_t m, std::size_t s, std::size_t p, Rows rows) {
    auto& slot = observed_[{m, s, p}];
    if (!slot.has_value()) {
      slot = std::move(rows);
    } else if (*slot != rows) {
      fail("Cypher " + in_.mixes[m].name + "." + in_.mixes[m].shapes[s].name +
           " gave different rows on a repeated run");
    }
  }

  /// Checkpoints the finished graph, then restores it into an empty graph.
  void persist(const Finished& f, SpanLog* log) {
    fs::remove_all(dir_.sub("checkpoint"));  // the previous repetition's
    horus::service::CheckpointInfo info;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span(log, "service.checkpoint.write");
      info = checkpoint(f);
    }
    checkpoint_s_.push_back(seconds_between(t0, Clock::now()));
    checkpoint_bpe_.push_back(static_cast<double>(directory_bytes(info.path)) /
                              static_cast<double>(in_.events.size()));
    std::unique_ptr<Restored> restored;
    const auto t1 = Clock::now();
    {
      const ScopedSpan span(log, "service.checkpoint.restore");
      restored = restore();
    }
    restore_s_.push_back(seconds_between(t1, Clock::now()));
    restored.reset();  // freeing the copy is not part of the restore
    attempted_ += 2;
  }

  /// Writes a checkpoint as horusd does: under the pipeline's commit gate,
  /// the committed offsets, the clock table and the graph.
  horus::service::CheckpointInfo checkpoint(const Finished& f) {
    horus::service::CheckpointStore store({dir_.sub("checkpoint"), 1});
    Live& live = *f.live;
    const auto gate = live.pipeline.quiesce_commits();
    const auto offsets = live.broker.offsets_snapshot();
    const std::string clock_record =
        live.daemon.with_clocks([](const horus::ClockTable& t) {
          std::ostringstream out;
          t.save(out);
          return std::move(out).str();
        });
    return store.write(live.graph, clock_record, offsets, "");
  }

  /// Restores the latest checkpoint into an empty graph and answers the
  /// first Q1 there.
  std::unique_ptr<Restored> restore() {
    const horus::service::CheckpointStore store({dir_.sub("checkpoint"), 1});
    auto restored = std::make_unique<Restored>();
    auto r = store.restore(restored->graph, dir_.sub("wal"));
    restored->daemon.restore_clocks(std::move(r.clocks));
    const Inputs::Q1Pair& probe = in_.q1.front();
    const auto a =
        restored->graph.node_of(horus::EventId{in_.sources[probe.slot]});
    const auto b = restored->graph.node_of(horus::EventId{probe.target});
    if (!a || !b) throw std::runtime_error("restored graph lacks an event");
    if (restored->daemon.happens_before(*a, *b) != in_.q1_expected(probe)) {
      fail("first Q1 after restore gave the wrong answer");
    }
    return restored;
  }

  // -- traced-only layer measurements ------------------------------------------

  void snapshot(const horus::ExecutionGraph& graph) {
    const std::string path = dir_.sub("graph.hgraph");
    auto t0 = Clock::now();
    graph.save(path);
    record_layer("graph.snapshot_save_s", seconds_between(t0, Clock::now()));
    record_layer("graph.snapshot_bytes",
                 static_cast<double>(fs::file_size(path)));
    horus::ExecutionGraph loaded;
    t0 = Clock::now();
    loaded.load(path);
    record_layer("graph.snapshot_load_s", seconds_between(t0, Clock::now()));
    if (loaded.store().node_count() != in_.events.size()) {
      fail("graph snapshot reloaded with the wrong node count");
    }
    fs::remove(path);
  }

  /// Replays the round's events, chunk by chunk in delivery order, through
  /// the single-threaded layers: wire encode, intra encoder, inter encoder
  /// (fed in the order the intra encoder forwards), clock assignment.
  void replay_layers() {
    const std::size_t n = in_.events.size();
    std::vector<horus::Event> chunk;
    double encode_s = 0;
    std::size_t encoded_bytes = 0;
    for (const std::uint32_t i : in_.delivery) {
      const auto t0 = Clock::now();
      encoded_bytes += in_.events[i].to_json().dump().size();
      encode_s += seconds_between(t0, Clock::now());
    }
    if (encoded_bytes == 0) fail("empty wire encoding");
    record_layer("event.encode_ns", encode_s * 1e9 / static_cast<double>(n));

    horus::ExecutionGraph graph;
    std::vector<horus::Event> forwarded;
    horus::IntraProcessEncoder intra(
        graph, [&](horus::Event e) { forwarded.push_back(std::move(e)); });
    horus::InterProcessEncoder inter(graph);
    horus::LogicalClockAssigner assigner(graph);
    double intra_s = 0;
    double inter_s = 0;
    double assign_s = 0;
    std::size_t pending_peak = 0;
    std::size_t begin = 0;
    for (const std::size_t end : in_.chunk_end) {
      chunk.clear();
      for (std::size_t k = begin; k < end; ++k) {
        chunk.push_back(in_.events[in_.delivery[k]]);
      }
      auto t0 = Clock::now();
      for (horus::Event& e : chunk) intra.on_event(std::move(e));
      intra.flush();
      intra_s += seconds_between(t0, Clock::now());
      t0 = Clock::now();
      for (const horus::Event& e : forwarded) inter.on_event(e);
      pending_peak = std::max(pending_peak, inter.pending());
      inter.flush();
      inter_s += seconds_between(t0, Clock::now());
      forwarded.clear();
      t0 = Clock::now();
      assigner.assign();
      assign_s += seconds_between(t0, Clock::now());
      begin = end;
    }
    const double events = static_cast<double>(n);
    record_layer("core.intra_encoder.ns_per_event", intra_s * 1e9 / events);
    record_layer("core.inter_encoder.ns_per_event", inter_s * 1e9 / events);
    record_layer("core.inter_encoder.pending_peak",
                 static_cast<double>(pending_peak));
    record_layer("core.logical_clocks.assign_ns_per_event",
                 assign_s * 1e9 / events);
    const horus::ClockTable& table = assigner.clocks();
    record_layer("core.logical_clocks.bytes_per_event",
                 static_cast<double>(table.clock_bytes()) / events);
    std::ostringstream out;
    auto t0 = Clock::now();
    table.save(out);
    record_layer("core.logical_clocks.save_s",
                 seconds_between(t0, Clock::now()));
    const std::string bytes = std::move(out).str();
    record_layer("core.logical_clocks.table_bytes",
                 static_cast<double>(bytes.size()));
    std::istringstream back(bytes);
    t0 = Clock::now();
    const horus::ClockTable loaded = horus::ClockTable::load(back);
    record_layer("core.logical_clocks.load_s",
                 seconds_between(t0, Clock::now()));
    if (graph.store().edge_count() != in_.ref->edges().size() ||
        loaded.timeline_count() != table.timeline_count()) {
      fail("single-threaded replay built a different graph or clock table");
    }
  }

  // -- checks ------------------------------------------------------------------

  /// Outputs recorded during the timed phases, against the model.
  void check_recorded() {
    std::vector<std::uint64_t> reach_b = in_.ref->ancestors(in_.targets);
    expected_q2_.assign(kPairs, {0, 0});
    for (std::size_t i = 0; i < kPairs; ++i) {
      auto in_cut = [&](std::uint32_t v) {
        return ((in_.reach[v] >> i) & 1) && ((reach_b[v] >> i) & 1);
      };
      for (std::uint32_t v = 0; v < in_.events.size(); ++v) {
        if (!in_cut(v)) continue;
        ++expected_q2_[i].first;
        for (const std::uint32_t w : in_.ref->successors(v)) {
          expected_q2_[i].second += in_cut(w);
        }
      }
    }
    reach_b_ = std::move(reach_b);
    for (const auto& [i, nodes, edges] : q2_sizes_) {
      if (nodes != expected_q2_[i].first || edges != expected_q2_[i].second) {
        fail("timed Q2 pair " + std::to_string(i) + ": " +
             std::to_string(nodes) + " nodes/" + std::to_string(edges) +
             " edges, expected " + std::to_string(expected_q2_[i].first) +
             "/" + std::to_string(expected_q2_[i].second));
      }
    }
    for (const auto& [i, nodes] : live_q2_) {
      if (nodes > expected_q2_[i].first) {
        fail("live Q2 returned more nodes than the final causal graph holds");
      }
    }
    expected_rows_.clear();
    for (std::size_t m = 0; m < in_.mixes.size(); ++m) {
      for (std::size_t s = 0; s < in_.mixes[m].shapes.size(); ++s) {
        const CypherShape& shape = in_.mixes[m].shapes[s];
        for (std::size_t p = 0; p < shape.params.size(); ++p) {
          Rows rows = shape.params[p].expected();
          if (!shape.ordered) std::sort(rows.begin(), rows.end());
          expected_rows_[{m, s, p}] = std::move(rows);
        }
      }
    }
    for (const auto& [key, rows] : observed_) {
      if (rows.has_value() && *rows != expected_rows_.at(key)) {
        const auto [m, s, p] = key;
        fail("Cypher " + in_.mixes[m].name + "." +
             in_.mixes[m].shapes[s].name + " parameter set " +
             std::to_string(p) + ": " + std::to_string(rows->size()) +
             " rows differ from the nested-loop answer (" +
             std::to_string(expected_rows_.at(key).size()) + " rows)");
      }
    }
  }

  /// Structure, clocks, Q1, Q2 and Cypher of one graph, against the model.
  void check_graph(const std::string& label, const horus::ExecutionGraph& graph,
                   const horus::ClockDaemon& daemon, bool flip_q1,
                   bool drop_q2_node, bool drop_edge) {
    const horus::graph::GraphStore& store = graph.store();
    const std::size_t n = in_.events.size();
    if (store.node_count() != n) {
      fail(label + ": " + std::to_string(store.node_count()) +
           " nodes, generated " + std::to_string(n) + " events");
      return;
    }
    const std::vector<horus::graph::NodeId> nodes = map_nodes(graph, n);
    std::vector<std::uint32_t> event_of(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (nodes[i] == horus::graph::kNoNode) {
        fail(label + ": event " + std::to_string(i) + " has no node");
        return;
      }
      event_of[nodes[i]] = i;
    }

    // Edges: the stored set equals the model's, and Lamport clocks equal the
    // model's and strictly increase along every stored edge.
    std::vector<RefEdge> edges;
    std::size_t lamport_bad = 0;
    auto lamport = [&](horus::graph::NodeId v) {
      const auto& p = store.property(v, graph.keys().lamport);
      const auto* l = std::get_if<std::int64_t>(&p);
      return l != nullptr ? *l : std::int64_t{0};
    };
    for (horus::graph::NodeId v = 0; v < n; ++v) {
      if (lamport(v) != in_.ref->lamport(event_of[v])) ++lamport_bad;
      for (const horus::graph::Edge& e : store.out_edges(v)) {
        if (lamport(v) >= lamport(e.to)) ++lamport_bad;
        edges.push_back(RefEdge{event_of[v], event_of[e.to],
                                store.edge_type_name(e.type) ==
                                    horus::kInterEdgeType});
      }
    }
    if (drop_edge && !edges.empty()) edges.pop_back();
    std::sort(edges.begin(), edges.end());
    if (edges != in_.ref->edges()) {
      fail(label + ": " + std::to_string(edges.size()) +
           " stored edges differ from the " +
           std::to_string(in_.ref->edges().size()) + " happens-before edges");
    }
    if (lamport_bad > 0) {
      fail(label + ": " + std::to_string(lamport_bad) +
           " Lamport clocks or edges disagree with the model");
    }

    // Q1 on the whole pool, true and false answers alike.
    std::size_t q1_bad = 0;
    std::size_t trues = 0;
    for (std::size_t k = 0; k < in_.q1.size(); ++k) {
      const Inputs::Q1Pair& p = in_.q1[k];
      bool hb = daemon.happens_before(nodes[in_.sources[p.slot]],
                                      nodes[p.target]);
      if (flip_q1 && k == 0) hb = !hb;
      trues += hb;
      if (hb != in_.q1_expected(p)) ++q1_bad;
    }
    if (q1_bad > 0) {
      fail(label + ": " + std::to_string(q1_bad) + " Q1 answers disagree with "
           "reachability in the model");
    }
    if (trues == 0 || trues == in_.q1.size()) {
      fail(label + ": Q1 sample lacks true or false answers");
    }

    // Q2: node set desc(a) ∩ anc(b), edge set the induced edges.
    for (std::size_t i = 0; i < kPairs; ++i) {
      const horus::CausalGraphResult r = daemon.get_causal_graph(
          nodes[in_.sources[i]], nodes[in_.targets[i]]);
      std::vector<std::uint32_t> got;
      for (const auto v : r.nodes) got.push_back(event_of[v]);
      if (drop_q2_node && i == 0 && !got.empty()) got.pop_back();
      std::sort(got.begin(), got.end());
      std::vector<std::uint32_t> want;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (((in_.reach[v] >> i) & 1) && ((reach_b_[v] >> i) & 1)) {
          want.push_back(v);
        }
      }
      std::vector<std::pair<std::uint32_t, std::uint32_t>> got_edges;
      for (const auto& [x, y] : r.edges) {
        got_edges.emplace_back(event_of[x], event_of[y]);
      }
      std::sort(got_edges.begin(), got_edges.end());
      std::vector<std::pair<std::uint32_t, std::uint32_t>> want_edges;
      for (const std::uint32_t v : want) {
        for (const std::uint32_t w : in_.ref->successors(v)) {
          if (std::binary_search(want.begin(), want.end(), w)) {
            want_edges.emplace_back(v, w);
          }
        }
      }
      std::sort(want_edges.begin(), want_edges.end());
      if (got != want || got_edges != want_edges) {
        fail(label + ": Q2 pair " + std::to_string(i) + " returned " +
             std::to_string(got.size()) + " nodes/" +
             std::to_string(got_edges.size()) + " edges, the model has " +
             std::to_string(want.size()) + "/" +
             std::to_string(want_edges.size()));
      }
    }

    // Cypher: every parameter set of every shape.
    with_engine(graph, daemon, [&](const auto& engine) {
      for (std::size_t m = 0; m < in_.mixes.size(); ++m) {
        for (std::size_t s = 0; s < in_.mixes[m].shapes.size(); ++s) {
          const CypherShape& shape = in_.mixes[m].shapes[s];
          for (std::size_t p = 0; p < shape.params.size(); ++p) {
            const Rows rows =
                canonical(engine.run(shape.params[p].text), shape.ordered);
            if (rows != expected_rows_.at({m, s, p})) {
              fail(label + ": Cypher " + in_.mixes[m].name + "." +
                   shape.name + " parameter set " + std::to_string(p) +
                   " differs from the nested-loop answer");
            }
          }
        }
      }
    });
  }

  /// Span names must outlive the log; Cypher shape names are built at run
  /// time, so they are interned here.
  struct Interner {
    const char* intern(const std::string& s) {
      return names.emplace(s, s).first->second.c_str();
    }
    std::map<std::string, std::string> names;
  };

  const Args& args_;
  const Inputs& in_;
  const TempDir& dir_;
  std::unique_ptr<Live> setup_live_;
  std::unique_ptr<Finished> finished_;
  SpanLog spans_;
  Interner span_names_;
  std::size_t rounds_ = 0;
  std::size_t live_cursor_ = 0;
  std::size_t cypher_cursor_ = 0;
  std::uint64_t attempted_ = 0;
  std::size_t failures_ = 0;
  double q2_candidates_ = 0;
  double q2_kept_ = 0;
  std::size_t q2_traced_ = 0;

  std::vector<double> ingest_rate_, visible_ms_, q1_ns_, q2_ms_;
  std::map<std::string, std::vector<double>> mix_ms_;
  std::vector<double> checkpoint_s_, restore_s_, checkpoint_bpe_;
  std::vector<double> traced_ingest_s_, untraced_ingest_s_;
  std::map<std::string, std::vector<double>> layer_;

  struct Q2Size {
    std::size_t pair, nodes, edges;
  };
  std::vector<Q2Size> q2_sizes_;
  struct LiveQ2 {
    std::size_t pair, nodes;
  };
  std::vector<LiveQ2> live_q2_;
  std::vector<std::pair<std::size_t, std::size_t>> expected_q2_;
  std::vector<std::uint64_t> reach_b_;
  using Key = std::tuple<std::size_t, std::size_t, std::size_t>;
  std::map<Key, std::optional<Rows>> observed_;
  std::map<Key, Rows> expected_rows_;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (known: " + workload_names() + ")");
  }
  const TempDir dir(args.data_root);

  // Set-up: inputs from the seed (generation, wire encoding, the model and
  // the query parameters) and the program's objects, pipeline started.
  const std::unique_ptr<Inputs> in = make_inputs(*spec, args.seed);
  Bench bench(args, *in, dir);
  bench.setup();
  const double setup_s = seconds_between(g_process_start, Clock::now());
  std::fprintf(stderr,
               "%s seed %llu: %zu events, %zu edges, %zu chunks, max Lamport "
               "%lld, set-up %.3f s\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               in->events.size(), in->ref->edges().size(), in->chunk_end.size(),
               static_cast<long long>(in->ref->max_lamport()), setup_s);

  // Whole rounds until the time is up, with enough chunks and Q2 queries
  // for the tail percentile to have ten samples beyond it. After the
  // warm-up round, a traced run alternates traced and untraced rounds for
  // the overhead ratio.
  const auto start = Clock::now();
  const std::size_t min_samples = 100;
  const std::size_t min_rounds = args.trace ? 3 : 2;
  do {
    bench.round(args.trace && bench.rounds() % 2 == 1);
  } while (seconds_between(start, Clock::now()) < args.seconds ||
           bench.visible_samples() < min_samples ||
           bench.q2_samples() < min_samples ||
           bench.rounds() < min_rounds);
  const double measured_s = seconds_between(start, Clock::now());
  const double rss = peak_rss_mib();
  std::fprintf(stderr, "%zu rounds in %.1f s\n", bench.rounds(), measured_s);

  const std::size_t failures = bench.check();
  std::fprintf(stderr, "checks: %s\n", failures == 0 ? "all passed" : "FAILED");

  std::map<std::string, std::pair<double, std::string>> metrics;
  if (args.trace) {
    bench.print_spans();
    bench.per_layer_metrics(metrics);
  } else {
    bench.end_to_end_metrics(setup_s, rss, metrics);
  }
  std::string line = "{\"correct\": ";
  line += failures == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(bench.attempted());
  line += ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(value.first) +
            ", \"unit\": \"" + value.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "horus_perfbench: %s\n", e.what());
    return 2;
  }
}
