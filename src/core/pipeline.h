// The distributed deployment of the Horus event-processing pipeline
// (Figure 2 of the paper): adapters publish normalized events into a
// partitioned *sources* topic; intra-process encoder workers consume it,
// persist timelines and forward into a *timeline* topic; inter-process
// encoder workers consume that and persist the HB edges.
//
// Scale-out correctness (Section VII-A) is enforced by partition routing:
//   (i)   all events of one process hash (by thread key) onto one sources
//         partition, so exactly one intra worker sees them, in order;
//   (ii)  both halves of every causal pair hash (by the pair's rule key:
//         channel for SND/RCV/CONNECT/ACCEPT, child thread for lifecycle
//         events) onto one timeline partition, so exactly one inter worker
//         matches them;
//   (iii) each intra worker preserves per-timeline order when producing
//         into the timeline topic (single-threaded stage, FIFO partitions).
//
// Encoders therefore need no cross-worker synchronization.
//
// Crash recovery: consumers resume from committed offsets (at-least-once;
// the intra stage suppresses replayed duplicates and the graph stores edges
// idempotently) and a restarted intra worker recovers each timeline's chain
// tail from the store, so program order survives restarts. The
// inter-process encoder's *pending* pairs are durable through a write-ahead
// spill: with PipelineOptions::wal_dir set, each inter worker rewrites
// <wal_dir>/inter-<index>.wal with the events backing its unmatched pending
// state immediately before every offset commit, and a restarted worker
// re-feeds that file before consuming. A half of a causal pair consumed and
// committed before a crash therefore still pairs with a counterpart that
// arrives only after the restart — the lost-edge window a purely in-memory
// inter stage would have is closed. Without wal_dir the old in-memory
// behaviour (and its window) remains.
//
// Fault model (see queue/fault.h for the injectable faults): the pipeline
// tolerates transient produce/poll failures (retried with capped
// exponential backoff), duplicated and redelivered messages (id-based dedup
// plus idempotent edges), bounded partition stalls (drain() tracks broker
// offsets, not wall clock), and scheduled consumer-worker crashes — the
// worker thread counts a recovery, rebuilds its consumer and encoder, and
// resumes from the committed offsets / the WAL. Messages that fail JSON
// decoding, and events rejected by the ingress validator, are diverted to
// the dead-letter topic (PipelineOptions::dlq_topic) instead of poisoning
// the graph; drain() does not wait for them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "core/execution_graph.h"
#include "core/inter_encoder.h"
#include "core/intra_encoder.h"
#include "event/event.h"
#include "queue/broker.h"
#include "queue/consumer.h"

namespace horus {

struct PipelineOptions {
  /// Timeline granularity handed to the intra-process encoders; also
  /// controls the sources-topic routing key (point i above).
  TimelineGranularity granularity = TimelineGranularity::kProcess;
  int partitions = 4;         ///< partitions per topic
  int intra_workers = 1;
  int inter_workers = 1;
  /// Flush cadence of the intra stage (events), per the paper's tunable.
  int event_flush_interval_ms = 100;
  /// Flush cadence of the inter stage (causal relationships).
  int relationship_flush_interval_ms = 200;
  std::size_t poll_batch = 512;
  std::string sources_topic = "horus.events";
  std::string timeline_topic = "horus.timeline";
  /// Dead-letter topic for undecodable or invalid events (one partition).
  std::string dlq_topic = "horus.dlq";
  /// Directory for the inter stage's pending-pair write-ahead spill.
  /// Empty disables the spill (pending pairs die with a crashed worker).
  std::string wal_dir;
  /// Upper bound on drain(); expired drains report stuck-stage counters
  /// via diag(kError) and return false.
  int drain_timeout_ms = 30'000;
  /// Backoff for transient broker faults: base doubles per attempt up to
  /// the cap.
  int retry_backoff_base_ms = 1;
  int retry_backoff_cap_ms = 16;
};

/// Routing key under rule-based pair affinity (see file comment, point ii).
[[nodiscard]] std::string inter_routing_key(const Event& event);

/// Replaces the pending-pair spill at `path` with `events`, one JSON line
/// each, through write_file_atomic (common/atomic_file.h): on a failed
/// write it throws HorusError and the previous spill stays intact.
void write_pending_wal(const std::string& path,
                       const std::vector<Event>& events);

/// Loads a pending-pair spill; a missing file is an empty spill (first
/// start), a corrupt line is skipped with a warning (it only widens the
/// lost-edge window back to the in-memory behaviour for that one event).
[[nodiscard]] std::vector<Event> read_pending_wal(const std::string& path);

class Pipeline {
 public:
  Pipeline(queue::Broker& broker, ExecutionGraph& graph,
           PipelineOptions options = {});
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Starts the worker threads.
  void start();

  /// Publishes one event into the sources topic (thread-safe; this is the
  /// producer API adapters use). Transient produce faults are retried with
  /// backoff — by the time this returns the event is in the queue.
  void publish(const Event& event);

  /// Sink adapter for EventSinkFn-based producers.
  [[nodiscard]] EventSinkFn sink();

  /// Sink for raw inputs an adapter could not decode: the payload goes to
  /// the dead-letter topic, tagged with the given error. Wire this into
  /// e.g. adapters::FileTailSource::set_dead_letter.
  [[nodiscard]] std::function<void(const std::string& raw,
                                   const std::string& error)>
  dead_letter_sink();

  /// Blocks until every published event has fully exited the pipeline
  /// (both stages consumed *and committed* everything the broker holds —
  /// robust against injected duplicates and crash replays) or the drain
  /// timeout expires. Sleeps on a condition variable the workers signal
  /// after every offset commit (no busy-polling). Returns false on timeout,
  /// after reporting the stage counters AND the committed-vs-end offsets of
  /// every stuck partition via diag(kError).
  bool drain();

  /// Stops all workers (flushing and committing what they consumed).
  /// Safe against concurrent stop() calls and the destructor: exactly one
  /// caller joins the workers; the others wait for it to finish.
  void stop();

  /// Hard-drops all workers WITHOUT a final flush or offset commit — the
  /// in-process equivalent of SIGKILL. Anything consumed since the last
  /// commit is lost from memory but not from the broker (offsets were never
  /// advanced), so a restarted pipeline replays it. The service recovery
  /// tests use this to crash the daemon at arbitrary points.
  void kill();

  /// Uncommitted broker backlog across both stages: sum over every
  /// (group, partition) of end-of-log minus committed offset. The service
  /// overload controller reads this as its ingest-pressure signal.
  [[nodiscard]] std::uint64_t backlog() const;

  /// Blocks every worker at its flush+commit boundary and returns the lock.
  /// While held, the graph, the inter-stage WAL files, and the committed
  /// broker offsets are mutually consistent (workers only mutate all three
  /// inside the gated section) — the window in which the service checkpoint
  /// serializes its bundle. Workers keep polling/buffering; they just
  /// cannot flush or commit until the lock is released.
  [[nodiscard]] std::unique_lock<std::shared_mutex> quiesce_commits() {
    return std::unique_lock(flush_gate_);
  }

  // -- statistics ------------------------------------------------------------
  // Counters live in the process-wide obs::Registry, labeled with this
  // instance's id (pipeline="<n>"), so per-instance accessors and the
  // registry exposition read the same memory.
  [[nodiscard]] std::uint64_t events_published() const noexcept {
    return published_->value();
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return inter_processed_->value();
  }
  [[nodiscard]] std::uint64_t intra_processed() const noexcept {
    return intra_processed_->value();
  }
  /// Retry attempts against transient broker faults (produce and poll).
  [[nodiscard]] std::uint64_t events_retried() const noexcept {
    return retried_->value();
  }
  /// Messages diverted to the dead-letter topic.
  [[nodiscard]] std::uint64_t events_dead_lettered() const noexcept {
    return dead_lettered_->value();
  }
  /// Worker crash-recovery cycles (injected crashes survived).
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_->value();
  }
  /// Replayed/duplicated deliveries dropped by the intra stage.
  [[nodiscard]] std::uint64_t events_deduplicated() const noexcept {
    return intra_duplicates_->value();
  }

 private:
  void intra_worker(int index, std::vector<int> partitions);
  void inter_worker(int index, std::vector<int> partitions);
  void run_intra(int index, const std::vector<int>& partitions);
  void run_inter(int index, const std::vector<int>& partitions);
  void dead_letter(const std::string& stage, const std::string& payload,
                   const std::string& error);
  [[nodiscard]] bool committed_through(const std::string& topic,
                                       const std::string& group_prefix,
                                       int workers) const;
  [[nodiscard]] bool all_committed() const;
  /// "topic[p] group=g committed=x end=y" for every partition whose group
  /// offset trails the log end (the drain-timeout diagnostic).
  [[nodiscard]] std::string stuck_partition_report() const;
  /// Per-shard segment rollup for the same diagnostic; empty when the
  /// store is monolithic.
  [[nodiscard]] std::string segment_report() const;
  /// Wakes drain() after a worker commits offsets.
  void notify_commit_progress();
  [[nodiscard]] std::string wal_path(int index) const;

  queue::Broker& broker_;
  ExecutionGraph& graph_;
  PipelineOptions options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> kill_requested_{false};

  /// Checkpoint gate: workers hold it shared across each flush+commit
  /// section; quiesce_commits() holds it unique (see its comment).
  std::shared_mutex flush_gate_;

  /// Serializes start()/stop()/destructor so only one caller ever joins and
  /// clears workers_ (a second concurrent stop() waits, then no-ops).
  std::mutex lifecycle_mutex_;
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::string instance_;  ///< process-unique id, the `pipeline` label value
  obs::Counter* published_;
  obs::Counter* intra_processed_;
  obs::Counter* intra_forwarded_;
  obs::Counter* inter_processed_;
  obs::Counter* inter_edges_;
  obs::Counter* retried_;
  obs::Counter* dead_lettered_;
  obs::Counter* recoveries_;
  obs::Counter* intra_duplicates_;
  obs::Counter* wal_spills_;
  obs::Counter* wal_recovered_;
  obs::Gauge* intra_pending_;
  obs::Gauge* inter_pending_;
  /// Matched pairs the inter stage could not flush yet because their nodes
  /// are still being replayed (post-restore only); drain() waits on zero.
  obs::Gauge* inter_deferred_;
  obs::Histogram* intra_flush_seconds_;
  obs::Histogram* inter_flush_seconds_;

  /// Long-running stage workers, spawned through the shared ThreadPool's
  /// service facility (dedicated threads; centralized join/lifecycle).
  std::vector<ThreadPool::ServiceThread> workers_;

  template <typename Fn>
  auto backoff_retry(const char* what, Fn&& op) -> decltype(op());
};

}  // namespace horus
