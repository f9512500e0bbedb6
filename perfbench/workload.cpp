#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>

#include "gen/synthetic.h"
#include "gen/topology.h"

namespace perfbench {

namespace {

// Why these three: mesh-ingest loads the ingest path (decode, broker, both
// encoders, a clock tick whose audit grows with history); wide-mesh makes
// vector-clock width dominate (about 512 timelines); paper-query is the
// paper's two-process execution (Figs. 7/8), where query work dominates.
constexpr WorkloadSpec kWorkloads[] = {
    {"mesh-ingest", true, 16, 24'000, 256, 0.02, 256, 8, 16},
    {"wide-mesh", true, 512, 8'000, 128, 0.05, 256, 8, 16},
    {"paper-query", false, 0, 40'000, 2'000, 0.10, 512, 8, 32},
};

constexpr int kParams = 16;  // parameter sets per Cypher shape

std::string join(std::initializer_list<std::string> cols) {
  std::string out;
  for (const std::string& c : cols) {
    if (!out.empty()) out += '|';
    out += c;
  }
  return out;
}

std::string quoted(const std::string& s) { return "'" + s + "'"; }

/// Generates the events (generation order) and their delivery order.
/// client-server arrives as generated, already interleaved by the network.
/// A mesh arrives through gen::cross_process_shuffle, applied to each
/// traffic batch (about 1,700 events for 24 requests): every batch is
/// reordered adversarially across processes, but no event is held back
/// behind later batches, as on a live mesh whose logs ship continuously.
void generate(Inputs& in, std::uint64_t seed) {
  const WorkloadSpec& spec = *in.spec;
  if (!spec.mesh) {
    horus::gen::ClientServerOptions options;
    options.num_events = spec.events;
    options.seed = seed;
    in.events = horus::gen::client_server_events(options);
    for (std::uint32_t i = 0; i < in.events.size(); ++i) {
      in.delivery.push_back(i);
    }
    return;
  }
  horus::gen::TopologyOptions topo;
  topo.num_services = spec.services;
  topo.fanout = 2;
  topo.depth = 3;
  topo.requests = 24;
  topo.retry_storm_p = 0.05;
  topo.seed = seed;
  horus::gen::ContinuousTraffic traffic(topo);
  while (in.events.size() < spec.events) {
    std::vector<horus::Event> batch = traffic.next_batch();
    for (const horus::Event& e : horus::gen::cross_process_shuffle(
             batch, seed ^ (0x5EEDULL + traffic.batches()))) {
      in.delivery.push_back(static_cast<std::uint32_t>(horus::value_of(e.id)));
    }
    in.events.insert(in.events.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
}

/// Picks the Q1/Q2 endpoints: sources spread over the execution, each with
/// a Q2 target reachable from it at about `q2_span` of the Lamport range.
void pick_pairs(Inputs& in, SplitMix& rng) {
  const Reference& ref = *in.ref;
  const auto n = static_cast<std::uint32_t>(ref.size());
  const std::int64_t span = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(in.spec->q2_span *
                                   static_cast<double>(ref.max_lamport())));
  const std::int64_t last_start = ref.max_lamport() - span;

  // One source per stratum of the Lamport range [1, last_start], so the
  // pairs' cost does not depend on where the seed's draws happen to fall.
  std::vector<std::vector<std::uint32_t>> strata(kPairs);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::int64_t l = ref.lamport(v);
    if (l > last_start || ref.successors(v).empty()) continue;  // no target
    strata[static_cast<std::size_t>((l - 1) * static_cast<std::int64_t>(kPairs) /
                                    last_start)]
        .push_back(v);
  }
  in.sources.clear();
  for (const auto& stratum : strata) {
    if (stratum.empty()) throw std::runtime_error("empty Q1/Q2 stratum");
    in.sources.push_back(stratum[rng.below(stratum.size())]);
  }
  in.reach = ref.descendants(in.sources);
  in.targets.assign(kPairs, 0);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::int64_t want = ref.lamport(in.sources[i]) + span;
    std::int64_t best = -1;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (v == in.sources[i] || ((in.reach[v] >> i) & 1) == 0) continue;
      const std::int64_t d = std::abs(ref.lamport(v) - want);
      if (best < 0 || d < best) {
        best = d;
        in.targets[i] = v;
      }
    }
  }

  // Q1 pool: uniformly random targets per source, shuffled into one order.
  const std::size_t per_source = 256;
  in.q1.clear();
  for (std::uint32_t slot = 0; slot < kPairs; ++slot) {
    for (std::size_t k = 0; k < per_source; ++k) {
      in.q1.push_back({slot, static_cast<std::uint32_t>(rng.below(n))});
    }
  }
  for (std::size_t i = in.q1.size(); i > 1; --i) {
    std::swap(in.q1[i - 1], in.q1[rng.below(i)]);
  }
  in.q1_block_true.assign(in.q1.size() / kQ1Block, 0);
  for (std::size_t i = 0; i < in.q1.size(); ++i) {
    if (in.q1_expected(in.q1[i])) ++in.q1_block_true[i / kQ1Block];
  }
}

/// Both Cypher mixes with kParams parameter sets per shape, each with its
/// expected answer computed from the generated events and the model.
void make_mixes(Inputs& in, SplitMix& rng) {
  const Inputs* inp = &in;
  const Reference& ref = *in.ref;
  const auto n = static_cast<std::uint32_t>(ref.size());
  const std::int64_t max_l = ref.max_lamport();
  const std::vector<horus::Event>& ev = in.events;
  auto type_is = [inp](std::uint32_t v, horus::EventType t) {
    return inp->events[v].type == t;
  };

  std::set<std::string> host_set;
  for (const horus::Event& e : ev) host_set.insert(e.service);
  const std::vector<std::string> hosts(host_set.begin(), host_set.end());
  std::vector<std::uint32_t> sends;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (type_is(v, horus::EventType::kSnd)) sends.push_back(v);
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return ref.lamport(x) < ref.lamport(y);
                   });

  CypherMix scan{"scan", {}};
  CypherShape probe{"index_probe", false, {}};
  CypherShape range{"lamport_range", false, {}};
  CypherShape count{"unselective_count", false, {}};
  const std::int64_t width = std::max<std::int64_t>(2, max_l / 100);
  for (int k = 0; k < kParams; ++k) {
    const auto p = static_cast<std::uint32_t>(rng.below(n));
    probe.params.push_back(
        {"MATCH (e) WHERE e.eventId = " + std::to_string(p) +
             " RETURN e.host AS h, e.lamportLogicalTime AS l",
         [inp, p] {
           return Rows{join({inp->events[p].service,
                             std::to_string(inp->ref->lamport(p))})};
         }});

    const std::int64_t lo =
        1 + static_cast<std::int64_t>(rng.below(
                static_cast<std::uint64_t>(std::max<std::int64_t>(1, max_l - width))));
    const std::int64_t hi = lo + width;
    range.params.push_back(
        {"MATCH (e) WHERE e.lamportLogicalTime >= " + std::to_string(lo) +
             " AND e.lamportLogicalTime < " + std::to_string(hi) +
             " RETURN count(*) AS c",
         [inp, lo, hi] {
           std::size_t c = 0;
           for (std::uint32_t v = 0; v < inp->ref->size(); ++v) {
             const std::int64_t l = inp->ref->lamport(v);
             if (l >= lo && l < hi) ++c;
           }
           return Rows{std::to_string(c)};
         }});

    const std::string host = hosts[rng.below(hosts.size())];
    count.params.push_back(
        {"MATCH (e) WHERE e.host <> " + quoted(host) +
             " RETURN count(*) AS c",
         [inp, host] {
           std::size_t c = 0;
           for (const horus::Event& e : inp->events) c += e.service != host;
           return Rows{std::to_string(c)};
         }});
  }
  scan.shapes = {probe, range, count};

  CypherMix joins{"join", {}};
  CypherShape two{"two_pattern", false, {}};
  CypherShape grouped{"with_order_by", true, {}};
  CypherShape study{"case_study", false, {}};
  const std::int64_t window = std::max<std::int64_t>(4, max_l / 50);
  for (int k = 0; k < kParams; ++k) {
    // Two patterns, a filter on each: a's inline (an index candidate), b's
    // in WHERE. The legacy evaluator forms the full cross product before
    // WHERE, so b's pattern is kept to one host's receives.
    // a from stratum k of the sends (in Lamport order), like the Q2 pairs.
    const std::size_t stratum = sends.size() / kParams;
    const std::uint32_t a =
        sends[static_cast<std::size_t>(k) * stratum + rng.below(stratum)];
    const std::string h1 = ev[a].service;
    // b's host: the receiver of a's message, so the window holds receives;
    // a retry that was never received falls back to a random other host.
    std::string h2 = hosts[rng.below(hosts.size())];
    for (const std::uint32_t w : ref.successors(a)) {
      if (type_is(w, horus::EventType::kRcv) && ev[w].service != h1) {
        h2 = ev[w].service;
      }
    }
    if (h2 == h1) h2 = hosts[(std::find(hosts.begin(), hosts.end(), h2) -
                              hosts.begin() + 1) % hosts.size()];
    const std::int64_t la = ref.lamport(a);
    two.params.push_back(
        {"MATCH (a:SND {host: " + quoted(h1) + ", lamportLogicalTime: " +
             std::to_string(la) + "}), (b:RCV {host: " + quoted(h2) +
             "}) WHERE b.lamportLogicalTime >= " + std::to_string(la) +
             " AND b.lamportLogicalTime < " + std::to_string(la + window) +
             " RETURN a.eventId AS x, b.eventId AS y",
         [inp, h1, h2, la, window] {
           Rows rows;
           const auto& evs = inp->events;
           for (std::uint32_t x = 0; x < evs.size(); ++x) {
             if (evs[x].type != horus::EventType::kSnd ||
                 evs[x].service != h1 || inp->ref->lamport(x) != la) {
               continue;
             }
             for (std::uint32_t y = 0; y < evs.size(); ++y) {
               const std::int64_t ly = inp->ref->lamport(y);
               if (evs[y].type == horus::EventType::kRcv &&
                   evs[y].service == h2 && ly >= la && ly < la + window) {
                 rows.push_back(join({std::to_string(x), std::to_string(y)}));
               }
             }
           }
           return rows;
         }});

    // Cuts evenly spaced over the second half of the Lamport range, so the
    // mix's cost does not depend on the seed's draws.
    const std::int64_t cut = max_l / 2 + max_l * (2 * k + 1) / (4 * kParams);
    grouped.params.push_back(
        {"MATCH (e:SND) WHERE e.lamportLogicalTime < " + std::to_string(cut) +
             " WITH e.host AS h, count(*) AS c RETURN h, c "
             "ORDER BY c DESC, h ASC",
         [inp, cut] {
           std::map<std::string, std::size_t> by_host;
           for (std::uint32_t v = 0; v < inp->events.size(); ++v) {
             if (inp->events[v].type == horus::EventType::kSnd &&
                 inp->ref->lamport(v) < cut) {
               ++by_host[inp->events[v].service];
             }
           }
           std::vector<std::pair<std::string, std::size_t>> sorted(
               by_host.begin(), by_host.end());
           std::stable_sort(sorted.begin(), sorted.end(),
                            [](const auto& x, const auto& y) {
                              return x.second > y.second;
                            });
           Rows rows;
           for (const auto& [h, c] : sorted) {
             rows.push_back(join({h, std::to_string(c)}));
           }
           return rows;
         }});
  }

  // The Fig. 4a case-study shape: the first request from X to Y, a later
  // event at X, and the causal graph between them. X is the host of the
  // first send; Y its most frequent receiver.
  std::uint32_t first_send = sends.front();
  const std::string x_host = ev[first_send].service;
  std::map<std::string, std::size_t> receivers;
  for (const RefEdge& e : ref.edges()) {
    if (e.inter && ev[e.from].service == x_host) ++receivers[ev[e.to].service];
  }
  std::string y_host;
  std::size_t best = 0;
  for (const auto& [h, c] : receivers) {
    if (c > best) {
      best = c;
      y_host = h;
    }
  }
  const bool has_logs = in.spec->mesh;  // client-server has no LOG events
  const horus::EventType end_type =
      has_logs ? horus::EventType::kLog : horus::EventType::kRcv;
  const std::string end_label(horus::to_string(end_type));
  std::int64_t a_min = -1;  // Lamport of the first X -> Y request
  for (const RefEdge& e : ref.edges()) {
    if (e.inter && ev[e.from].service == x_host &&
        ev[e.to].service == y_host &&
        (a_min < 0 || ref.lamport(e.from) < a_min)) {
      a_min = ref.lamport(e.from);
    }
  }
  const double span = in.spec->q2_span * static_cast<double>(max_l);
  for (int k = 0; k < kParams; ++k) {
    const double want = static_cast<double>(a_min) + span * (k + 1) / kParams;
    std::uint32_t end_event = 0;
    double best_d = -1;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::int64_t l = ref.lamport(v);
      if (ev[v].type != end_type || ev[v].service != x_host || l <= a_min) {
        continue;
      }
      const double d = std::abs(static_cast<double>(l) - want);
      if (best_d < 0 || d < best_d) {
        best_d = d;
        end_event = v;
      }
    }
    // e is named by eventId, listed first: the legacy evaluator looks up a
    // pattern's candidates through its first inline property, once per
    // incoming row, so an unselective first key (host) would cost a scan
    // of the host's events per row.
    const std::string only = has_logs ? "TRUE" : "FALSE";
    study.params.push_back(
        {"MATCH (a:SND {host: " + quoted(x_host) + "})-->(:RCV {host: " +
             quoted(y_host) + "}), (e:" + end_label + " {eventId: " +
             std::to_string(end_event) + ", host: " + quoted(x_host) +
             "}) WHERE e.lamportLogicalTime > a.lamportLogicalTime "
             "WITH min(a.lamportLogicalTime) AS lo, "
             "min(e.lamportLogicalTime) AS hi "
             "MATCH (a:EVENT {host: " + quoted(x_host) +
             ", lamportLogicalTime: lo}), (b:EVENT {host: " + quoted(x_host) +
             ", lamportLogicalTime: hi}) "
             "CALL horus.getCausalGraph(a, b, " + only + ") YIELD node "
             "RETURN count(*) AS n",
         [inp, x_host, y_host, end_event, has_logs] {
           const auto& evs = inp->events;
           const Reference& r = *inp->ref;
           // Nested loop over the two patterns, then the WHERE.
           const std::uint32_t ends[] = {end_event};
           std::int64_t lo = -1;
           std::int64_t hi = -1;
           for (const RefEdge& e : r.edges()) {
             if (evs[e.from].type != horus::EventType::kSnd ||
                 evs[e.from].service != x_host ||
                 evs[e.to].type != horus::EventType::kRcv ||
                 evs[e.to].service != y_host) {
               continue;
             }
             for (const std::uint32_t v : ends) {
               if (r.lamport(v) <= r.lamport(e.from)) continue;
               if (lo < 0 || r.lamport(e.from) < lo) lo = r.lamport(e.from);
               if (hi < 0 || r.lamport(v) < hi) hi = r.lamport(v);
             }
           }
           std::size_t total = 0;
           for (std::uint32_t a2 = 0; a2 < evs.size(); ++a2) {
             if (evs[a2].service != x_host || r.lamport(a2) != lo) continue;
             for (std::uint32_t b2 = 0; b2 < evs.size(); ++b2) {
               if (evs[b2].service != x_host || r.lamport(b2) != hi) continue;
               const std::uint32_t src[] = {a2};
               const std::uint32_t dst[] = {b2};
               const auto down = r.descendants(src);
               if (down[b2] == 0) continue;  // not causally related: empty
               const auto up = r.ancestors(dst);
               for (std::uint32_t v = 0; v < evs.size(); ++v) {
                 if (down[v] == 0 || up[v] == 0) continue;
                 if (has_logs && v != a2 && v != b2 &&
                     evs[v].type != horus::EventType::kLog) {
                   continue;
                 }
                 ++total;
               }
             }
           }
           return Rows{std::to_string(total)};
         }});
  }
  joins.shapes = {two, grouped, study};
  in.mixes = {scan, joins};
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->spec = &spec;
  generate(*in, seed);
  const auto n = static_cast<std::uint32_t>(in->events.size());
  in->wire.reserve(n);
  for (const std::uint32_t i : in->delivery) {
    in->wire.push_back(in->events[i].to_json().dump());
  }
  in->chunk_of.assign(n, 0);
  for (std::size_t begin = 0; begin < n; begin += spec.chunk) {
    const std::size_t end = std::min<std::size_t>(n, begin + spec.chunk);
    for (std::size_t k = begin; k < end; ++k) {
      in->chunk_of[in->delivery[k]] =
          static_cast<std::uint32_t>(in->chunk_end.size());
    }
    in->chunk_end.push_back(end);
  }

  in->ref = std::make_unique<Reference>(in->events);
  SplitMix rng(seed * 0x2545F4914F6CDD1DULL + 1);
  pick_pairs(*in, rng);
  make_mixes(*in, rng);
  return in;
}

}  // namespace perfbench
