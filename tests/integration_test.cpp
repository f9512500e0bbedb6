// Cross-module integration tests: the full deployment path (simulated
// kernel -> log files -> file shipper -> queue-less embedded pipeline), a
// Figure-3-style pruning fixture, and baseline-vs-Horus ordering agreement.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "adapters/file_source.h"
#include "adapters/tracer_adapter.h"
#include "baselines/falcon_solver.h"
#include "core/horus.h"
#include "core/validator.h"
#include "gen/synthetic.h"
#include "graph/traversal.h"
#include "test_dir.h"
#include "tracer/message_io.h"
#include "tracer/sim_kernel.h"

namespace horus {
namespace {

TEST(DeploymentIntegrationTest, KernelProbesPlusShippedLogFiles) {
  // A Filebeat-style deployment: the application writes Log4j JSON lines to
  // per-host files; kernel probes stream directly. Both sources converge in
  // one Horus instance and form a consistent causal graph.
  const TestDir scratch;
  const std::filesystem::path& dir = scratch.path();

  Horus horus;
  TracerAdapter tracer_adapter(0, horus.sink());

  sim::SimKernelOptions kernel_options;
  kernel_options.seed = 11;
  sim::SimKernel kernel(kernel_options);
  kernel.add_host({.name = "alpha", .ip = "10.0.0.1"});
  kernel.add_host({.name = "beta", .ip = "10.0.0.2"});
  kernel.set_probe_sink([&tracer_adapter](const sim::ProbeRecord& record) {
    tracer_adapter.on_probe(record);
  });
  // Application logs go to per-host files, like container stdout logs.
  kernel.set_log_sink([&dir](const sim::LogRecord& record) {
    std::ofstream out(dir / (record.thread.host + ".log"),
                      std::ios::app | std::ios::binary);
    out << record.to_json_line() << '\n';
  });

  kernel.spawn_process("alpha", "server", [](sim::ThreadCtx& ctx) {
    ctx.listen(9000, [](sim::ThreadCtx& hctx, int fd) {
      auto reader = sim::MessageReader::create(fd);
      reader->read(hctx, [fd](sim::ThreadCtx& c, std::string msg) {
        c.log("served request: " + msg);
        sim::send_message(c, fd, "ok:" + msg);
      });
    });
  });
  kernel.spawn_process(
      "beta", "client",
      [](sim::ThreadCtx& ctx) {
        ctx.log("sending request");
        ctx.connect("alpha", 9000, [](sim::ThreadCtx& c, int fd) {
          sim::send_message(c, fd, "hello");
          auto reader = sim::MessageReader::create(fd);
          reader->read(c, [](sim::ThreadCtx& c2, std::string msg) {
            c2.log("got reply: " + msg);
          });
        });
      },
      1'000'000);
  kernel.run();

  // Ship the log files (id range disjoint from the tracer's).
  FileTailSource shipper(1ULL << 40, horus.sink());
  shipper.add_file((dir / "alpha.log").string(), LogFormat::kLog4j);
  shipper.add_file((dir / "beta.log").string(), LogFormat::kLog4j);
  EXPECT_EQ(shipper.poll(), 3u);

  horus.seal();
  EXPECT_TRUE(validate_graph(horus.graph(), horus.clocks()).ok());

  // Cross-source causality: the client's "sending request" LOG (shipped
  // from a file) happens-before the server's "served request" LOG.
  const auto q = horus.query();
  graph::NodeId sending = graph::kNoNode;
  graph::NodeId served = graph::kNoNode;
  graph::NodeId reply = graph::kNoNode;
  for (const auto v : horus.graph().store().nodes_with_label("LOG")) {
    const auto msg = horus.graph().store().property(v, kPropMessage);
    const auto& text = std::get<std::string>(msg);
    if (text == "sending request") sending = v;
    if (text.rfind("served request", 0) == 0) served = v;
    if (text.rfind("got reply", 0) == 0) reply = v;
  }
  ASSERT_NE(sending, graph::kNoNode);
  ASSERT_NE(served, graph::kNoNode);
  ASSERT_NE(reply, graph::kNoNode);
  EXPECT_TRUE(q.happens_before(sending, served));
  EXPECT_TRUE(q.happens_before(served, reply));
  EXPECT_FALSE(q.happens_before(reply, sending));
}

/// A Figure-3-style fixture: three process timelines with cross edges, used
/// to check that the logical-time query visits strictly less of the graph
/// than the built-in traversal.
class Figure3StyleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three timelines of 8 events each; messages P1->P2 and P2->P3 early,
    // P3->P2 and P2->P1 late — plenty of events concurrent to any query.
    gen::RandomExecutionOptions options;
    options.num_processes = 3;
    options.events_per_process = 24;
    options.send_probability = 0.4;
    options.seed = 23;
    for (Event& e : gen::random_execution(options)) {
      horus_.ingest(std::move(e));
    }
    horus_.seal();
  }

  Horus horus_;
};

TEST_F(Figure3StyleTest, HorusExploresFewerNodesThanTraversal) {
  const auto q = horus_.query();
  const auto& store = horus_.graph().store();
  const auto n = static_cast<graph::NodeId>(store.node_count());

  std::size_t checked = 0;
  std::size_t horus_never_larger = 0;
  for (graph::NodeId a = 0; a < n && checked < 30; ++a) {
    for (graph::NodeId b = a + 1; b < n && checked < 30; ++b) {
      if (!q.happens_before(a, b)) continue;
      const auto result = q.get_causal_graph(a, b);
      const auto baseline = graph::between_subgraph(store, a, b);
      ++checked;
      // The LC-bounded candidate set must not exceed the traversal's
      // visited frontier... both are upper bounds on the result; Horus'
      // bound is the one that stays proportional to the answer.
      if (result.lc_candidates <= baseline.visited) ++horus_never_larger;
      // And the answers agree.
      auto got = result.nodes;
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, baseline.nodes);
    }
  }
  ASSERT_GT(checked, 10u);
  // On the vast majority of pairs the logical-time bound inspects fewer
  // nodes than the bidirectional flood.
  EXPECT_GT(horus_never_larger * 10, checked * 7);
}

TEST(BaselineAgreementTest, FalconAndHorusProduceValidLinearExtensions) {
  // Both systems order the same unordered trace; both must produce valid
  // linear extensions of the same partial order (they may differ in the
  // order of concurrent events — that is allowed).
  gen::ClientServerOptions options;
  options.num_events = 400;
  const auto shuffled = gen::shuffled(gen::client_server_events(options), 9);

  // Falcon.
  const auto constraints = gen::to_constraints(shuffled);
  baselines::FalconSolver solver(static_cast<std::uint32_t>(shuffled.size()));
  solver.add_constraints(constraints);
  const auto falcon = solver.solve();
  ASSERT_TRUE(falcon.satisfiable);

  // Horus.
  Horus horus;
  for (const Event& e : shuffled) horus.ingest(e);
  horus.seal();

  // Both respect every constraint (Falcon by construction over variable
  // indexes, Horus over the graph nodes of the same events).
  for (const auto& c : constraints) {
    EXPECT_LT(falcon.clocks[c.before], falcon.clocks[c.after]);
    const auto a = *horus.node_of(shuffled[c.before].id);
    const auto b = *horus.node_of(shuffled[c.after].id);
    EXPECT_LT(horus.clocks().lamport(a), horus.clocks().lamport(b));
  }
}

}  // namespace
}  // namespace horus
