// Hot-swappable holder of the served road network — the graph-side
// analogue of ServingEngine's snapshot slot, generalising the model
// hot-swap pattern to the graph itself. The store owns a
// shared_ptr<const graph::GraphSnapshot>; readers (RoutePlanner::Plan,
// the /v1/traffic handler's validation) capture the pointer once per
// operation, so every response is attributable to exactly one epoch and
// the old graph is freed only after the last in-flight query releases
// its reference.
//
// Writers — ApplyTraffic (copy-on-write rebuild of the CSR off the
// query path) and SwapNetwork (the --watch-graph full reload) — are
// serialised by rebuild_mu_, so each batch rebuilds on top of the batch
// before it and epochs advance by exactly one per publish. Queries never
// wait on a rebuild: they only ever contend on mu_ for the duration of
// one refcounted pointer copy.
// The store can also own the routing-preprocessing lifecycle
// (EnablePreprocessing): a background worker rebuilds the ALT landmark
// tables whenever a publish advances the epoch, and publishes the new
// (snapshot, tables) pair only when it is complete. Queries capture the
// snapshot and the artifact pairwise (CaptureForQuery) and fall back to
// plain Dijkstra whenever the artifact's epoch trails the snapshot's —
// stale lower bounds are never consulted, so mid-rebuild queries stay
// exact at the cost of speed, never the reverse.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "graph/graph_snapshot.h"

namespace pathrank::routing {
class PreprocessedGraph;
}  // namespace pathrank::routing

namespace pathrank::serving {

/// Outcome taxonomy for one traffic batch. Everything except kOk is a
/// client-input condition and maps to 400 over HTTP with the stable slug
/// below — the same error-body convention as the /v1/route taxonomy
/// (RouteStatusSlug).
enum class TrafficStatus {
  kOk,
  kEmptyBatch,      ///< the batch carries no updates
  kUnknownEdge,     ///< an update names an edge the network does not have
  kDuplicateEdge,   ///< two updates in one batch name the same edge
  kBadUpdate,       ///< non-positive/non-finite cost, or a no-effect update
};

/// Stable lower_snake_case slug ("unknown_edge", ...) used in HTTP error
/// bodies and logs. kBadUpdate reuses "bad_request" so clients branch on
/// one malformed-input slug across /v1/route and /v1/traffic.
const char* TrafficStatusSlug(TrafficStatus status);

/// One answered traffic batch.
struct TrafficResult {
  TrafficStatus status = TrafficStatus::kOk;
  /// Human-readable detail when status != kOk.
  std::string message;
  /// The epoch serving AFTER this call: the new epoch on kOk, the
  /// unchanged current epoch on a rejected batch (rejections never
  /// publish).
  uint64_t epoch = 0;
  size_t cost_updates = 0;  ///< updates that changed an edge travel time
  size_t closures = 0;      ///< updates that set closed = true
  size_t reopenings = 0;    ///< updates that set closed = false
};

/// Routing-preprocessing configuration for EnablePreprocessing.
struct PreprocessOptions {
  /// ALT landmarks per artifact: num_landmarks Dijkstra sweeps of
  /// rebuild cost and two doubles per (landmark, vertex) of memory.
  /// AltRouter's queries no longer read the tables (routing/alt.h).
  int num_landmarks = 8;
  /// Test seam: runs on the worker thread before each BACKGROUND rebuild
  /// starts building tables (never for the synchronous boot-time build).
  /// May block — the rebuild, and artifact publication, stall with it.
  std::function<void(uint64_t epoch)> rebuild_hook;
};

/// One immutable (snapshot, ALT tables) pair. The snapshot handle keeps
/// the network the tables were computed over alive, so holders can always
/// run an ALT query against a consistent graph/table pair.
struct GraphArtifact {
  uint64_t epoch = 0;
  std::shared_ptr<const graph::GraphSnapshot> snapshot;
  std::shared_ptr<const routing::PreprocessedGraph> tables;
};

/// Preprocessing counters for /statsz.
struct PreprocessingStats {
  bool enabled = false;
  int landmarks = 0;
  /// Background rebuilds completed (the synchronous boot build excluded).
  uint64_t rebuilds = 0;
  /// Percentiles over recent background-rebuild wall times (0 until the
  /// first rebuild completes).
  double rebuild_p50_s = 0.0;
  double rebuild_p99_s = 0.0;
  /// Served epoch minus artifact epoch: 0 when ALT is fully caught up,
  /// >0 while a rebuild is in flight (queries fall back to Dijkstra).
  uint64_t epochs_behind = 0;
};

/// A pairwise-consistent read of the store: the served snapshot and the
/// artifact slot captured under one lock hold. `artifact` is null when
/// preprocessing is disabled and may trail `snapshot` by one or more
/// epochs mid-rebuild — callers must use the tables only when
/// `artifact->epoch == snapshot->epoch()`.
struct GraphQueryView {
  std::shared_ptr<const graph::GraphSnapshot> snapshot;
  std::shared_ptr<const GraphArtifact> artifact;
};

/// Thread-safe epoch-versioned graph slot. Construct with the boot-time
/// network (epoch 0); swap via ApplyTraffic or SwapNetwork.
class GraphStore {
 public:
  explicit GraphStore(graph::RoadNetwork network);
  ~GraphStore();
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// The currently served snapshot (a swap may supersede it at any time;
  /// the returned handle stays valid regardless). Thread-safe.
  std::shared_ptr<const graph::GraphSnapshot> Current() const EXCLUDES(mu_);

  /// Epoch of the currently served snapshot. Thread-safe.
  uint64_t epoch() const { return Current()->epoch(); }

  /// Validates and applies one batch of edge cost/closure updates:
  /// rebuilds a fresh snapshot at epoch + 1 (copy-on-write, outside the
  /// swap lock) and publishes it with one pointer swap. A rejected batch
  /// (status != kOk) publishes nothing — traffic ingestion is
  /// all-or-nothing per batch. Thread-safe; concurrent batches are
  /// serialised. Never throws on bad input (that is what
  /// TrafficResult::status is for).
  TrafficResult ApplyTraffic(const std::vector<graph::TrafficUpdate>& updates)
      EXCLUDES(rebuild_mu_, mu_);

  /// Replaces the whole network (the --watch-graph reload path): a new
  /// snapshot at epoch + 1 with the closed set reset. Returns the
  /// superseded snapshot so the caller can observe its lifetime.
  /// Thread-safe; callable under full query load.
  std::shared_ptr<const graph::GraphSnapshot> SwapNetwork(
      graph::RoadNetwork network) EXCLUDES(rebuild_mu_, mu_);

  /// Starts the ALT preprocessing lifecycle: builds the artifact for the
  /// current snapshot synchronously (so the first query after boot already
  /// has tables) and spawns the background worker that rebuilds it after
  /// every publish. Call at most once, before serving traffic. Tables
  /// are built under the free-flow travel-time metric — the one metric
  /// candidate generation enumerates with.
  void EnablePreprocessing(const PreprocessOptions& options = {})
      EXCLUDES(mu_);

  /// The newest completed artifact, or null when preprocessing is off.
  /// Mid-rebuild this is the PREVIOUS epoch's artifact — still internally
  /// consistent (it owns its snapshot) but not valid for queries against
  /// the current graph. Thread-safe.
  std::shared_ptr<const GraphArtifact> CurrentArtifact() const EXCLUDES(mu_);

  /// Captures the served snapshot and the artifact slot under one lock
  /// hold, so the pair is consistent-in-time. Thread-safe; this is what
  /// RoutePlanner calls once per query. Guarantee: if the returned
  /// artifact's epoch equals the returned snapshot's epoch, the tables
  /// were built from exactly that snapshot's network.
  GraphQueryView CaptureForQuery() const EXCLUDES(mu_);

  /// Preprocessing counters for /statsz (all zero / disabled when
  /// EnablePreprocessing was never called). Thread-safe.
  PreprocessingStats preprocessing_stats() const EXCLUDES(mu_);

  /// Traffic batches applied (kOk only) since construction.
  uint64_t traffic_batches() const {
    return traffic_batches_.load(std::memory_order_relaxed);
  }
  /// Snapshot publishes (ApplyTraffic + SwapNetwork) since construction.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

 private:
  /// Publishes `next` as the served snapshot and returns the old one.
  /// Every publish happens inside a writer's rebuild_mu_ critical
  /// section — REQUIRES makes a lock-free publish path a compile error.
  std::shared_ptr<const graph::GraphSnapshot> Publish(
      std::shared_ptr<const graph::GraphSnapshot> next)
      REQUIRES(rebuild_mu_) EXCLUDES(mu_);

  /// Builds the (snapshot, tables) artifact for `snap`. Runs unlocked —
  /// this is the expensive part (num_landmarks full Dijkstra sweeps).
  std::shared_ptr<const GraphArtifact> BuildArtifact(
      std::shared_ptr<const graph::GraphSnapshot> snap) const EXCLUDES(mu_);

  /// Background worker: waits for the artifact to fall behind the served
  /// epoch, rebuilds, publishes if still newest, repeats until shutdown.
  void PreprocessLoop() EXCLUDES(mu_);

  /// Installs `artifact` unless the slot already holds a newer epoch.
  void PublishArtifactIfNewest(std::shared_ptr<const GraphArtifact> artifact)
      EXCLUDES(mu_);

  /// Serialises writers: held across read-current + validate + rebuild +
  /// publish so concurrent batches stack instead of clobbering each
  /// other. Always acquired BEFORE mu_ (Publish); readers take mu_ only.
  common::Mutex rebuild_mu_ ACQUIRED_BEFORE(mu_){
      common::LockRank::kGraphRebuild, "graph.rebuild"};
  /// Guarded by a mutex rather than std::atomic<shared_ptr> for the same
  /// reason as ServingEngine::snapshot_: the critical section is one
  /// refcounted copy, and libstdc++'s lock-bit _Sp_atomic protocol is
  /// opaque to TSan, which the CI thread-sanitizer gate runs against.
  mutable common::Mutex mu_{common::LockRank::kGraphStore, "graph.store"};
  std::shared_ptr<const graph::GraphSnapshot> current_ GUARDED_BY(mu_);
  std::atomic<uint64_t> traffic_batches_{0};
  std::atomic<uint64_t> swap_count_{0};

  // --- preprocessing lifecycle (all inert until EnablePreprocessing) ---
  /// Newest completed artifact; trails current_ while a rebuild runs.
  std::shared_ptr<const GraphArtifact> artifact_ GUARDED_BY(mu_);
  bool pre_enabled_ GUARDED_BY(mu_) = false;
  bool pre_stop_ GUARDED_BY(mu_) = false;
  PreprocessOptions pre_options_ GUARDED_BY(mu_);
  /// Completed background rebuilds; their wall times feed the p50/p99.
  uint64_t pre_rebuilds_ GUARDED_BY(mu_) = 0;
  /// Bounded ring of recent rebuild wall times (seconds).
  std::vector<double> pre_durations_ GUARDED_BY(mu_);
  size_t pre_durations_next_ GUARDED_BY(mu_) = 0;
  /// Wakes the worker after every Publish and at shutdown.
  mutable common::CondVar pre_cv_;
  std::thread pre_worker_;
};

}  // namespace pathrank::serving
