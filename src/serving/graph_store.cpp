#include "serving/graph_store.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "routing/cost_model.h"
#include "routing/preprocessed_graph.h"

namespace pathrank::serving {

namespace {
/// Ring size for rebuild wall times: enough samples for a stable p99
/// without unbounded growth on long-lived servers.
constexpr size_t kRebuildDurationWindow = 128;
}  // namespace

const char* TrafficStatusSlug(TrafficStatus status) {
  switch (status) {
    case TrafficStatus::kOk:
      return "ok";
    case TrafficStatus::kEmptyBatch:
      return "empty_batch";
    case TrafficStatus::kUnknownEdge:
      return "unknown_edge";
    case TrafficStatus::kDuplicateEdge:
      return "duplicate_edge";
    case TrafficStatus::kBadUpdate:
      return "bad_request";
  }
  return "unknown";
}

GraphStore::GraphStore(graph::RoadNetwork network)
    : current_(graph::GraphSnapshot::Wrap(std::move(network))) {}

GraphStore::~GraphStore() {
  {
    common::MutexLock lock(mu_);
    pre_stop_ = true;
  }
  pre_cv_.NotifyAll();
  if (pre_worker_.joinable()) pre_worker_.join();
}

std::shared_ptr<const graph::GraphSnapshot> GraphStore::Current() const {
  common::MutexLock lock(mu_);
  return current_;
}

std::shared_ptr<const graph::GraphSnapshot> GraphStore::Publish(
    std::shared_ptr<const graph::GraphSnapshot> next) {
  std::shared_ptr<const graph::GraphSnapshot> old;
  {
    common::MutexLock lock(mu_);
    old = std::move(current_);
    current_ = std::move(next);
  }
  // The artifact (if any) now trails the served epoch; wake the worker.
  // Harmless when preprocessing is off — nobody is waiting.
  pre_cv_.NotifyAll();
  return old;
}

std::shared_ptr<const GraphArtifact> GraphStore::BuildArtifact(
    std::shared_ptr<const graph::GraphSnapshot> snap) const {
  int landmarks;
  {
    common::MutexLock lock(mu_);
    landmarks = pre_options_.num_landmarks;
  }
  // Free-flow travel time: the single metric candidate generation
  // enumerates under (see data::GenerateCandidatePaths), so the tables
  // are valid lower bounds for every spur search the planner issues.
  const auto cost = routing::EdgeCostFn::TravelTime(snap->network());
  auto artifact = std::make_shared<GraphArtifact>();
  artifact->epoch = snap->epoch();
  artifact->tables = std::make_shared<const routing::PreprocessedGraph>(
      snap->network(), cost, landmarks);
  artifact->snapshot = std::move(snap);
  return artifact;
}

void GraphStore::EnablePreprocessing(const PreprocessOptions& options) {
  {
    common::MutexLock lock(mu_);
    PR_CHECK(!pre_enabled_) << "EnablePreprocessing called twice";
    PR_CHECK(options.num_landmarks >= 1);
    pre_enabled_ = true;
    pre_options_ = options;
  }
  // Boot-time build runs synchronously on the caller's thread: servers
  // come up with ALT ready instead of racing the first queries.
  PublishArtifactIfNewest(BuildArtifact(Current()));
  pre_worker_ = std::thread([this] { PreprocessLoop(); });
}

void GraphStore::PreprocessLoop() {
  for (;;) {
    std::shared_ptr<const graph::GraphSnapshot> snap;
    std::function<void(uint64_t)> hook;
    {
      common::MutexLock lock(mu_);
      while (!pre_stop_ && artifact_ != nullptr &&
             artifact_->epoch == current_->epoch()) {
        pre_cv_.Wait(mu_);
      }
      if (pre_stop_) return;
      snap = current_;
      hook = pre_options_.rebuild_hook;
    }
    if (hook) hook(snap->epoch());
    Stopwatch timer;
    auto artifact = BuildArtifact(std::move(snap));
    const double elapsed_s = timer.ElapsedSeconds();
    {
      common::MutexLock lock(mu_);
      ++pre_rebuilds_;
      if (pre_durations_.size() < kRebuildDurationWindow) {
        pre_durations_.push_back(elapsed_s);
      } else {
        pre_durations_[pre_durations_next_] = elapsed_s;
      }
      pre_durations_next_ =
          (pre_durations_next_ + 1) % kRebuildDurationWindow;
    }
    PublishArtifactIfNewest(std::move(artifact));
  }
}

void GraphStore::PublishArtifactIfNewest(
    std::shared_ptr<const GraphArtifact> artifact) {
  common::MutexLock lock(mu_);
  // A rebuild can race a faster later rebuild (epochs advanced while we
  // were building); never let an older artifact clobber a newer one.
  if (artifact_ == nullptr || artifact->epoch > artifact_->epoch) {
    artifact_ = std::move(artifact);
  }
}

std::shared_ptr<const GraphArtifact> GraphStore::CurrentArtifact() const {
  common::MutexLock lock(mu_);
  return artifact_;
}

GraphQueryView GraphStore::CaptureForQuery() const {
  common::MutexLock lock(mu_);
  return GraphQueryView{current_, artifact_};
}

PreprocessingStats GraphStore::preprocessing_stats() const {
  PreprocessingStats stats;
  std::vector<double> durations;
  {
    common::MutexLock lock(mu_);
    stats.enabled = pre_enabled_;
    if (!pre_enabled_) return stats;
    stats.landmarks = pre_options_.num_landmarks;
    stats.rebuilds = pre_rebuilds_;
    const uint64_t served = current_->epoch();
    const uint64_t built = artifact_ != nullptr ? artifact_->epoch : 0;
    stats.epochs_behind = served > built ? served - built : 0;
    durations = pre_durations_;
  }
  if (!durations.empty()) {
    std::sort(durations.begin(), durations.end());
    stats.rebuild_p50_s = PercentileSorted(durations, 0.50);
    stats.rebuild_p99_s = PercentileSorted(durations, 0.99);
  }
  return stats;
}

TrafficResult GraphStore::ApplyTraffic(
    const std::vector<graph::TrafficUpdate>& updates) {
  // One writer at a time: validation must run against the snapshot the
  // rebuild will stack on, so read-current + validate + rebuild + publish
  // form one critical section. Readers are untouched — they contend only
  // on mu_ inside Current()/Publish.
  common::MutexLock rebuild_lock(rebuild_mu_);
  const std::shared_ptr<const graph::GraphSnapshot> base = Current();

  TrafficResult result;
  result.epoch = base->epoch();
  if (updates.empty()) {
    result.status = TrafficStatus::kEmptyBatch;
    result.message = "traffic batch carries no updates";
    return result;
  }

  const size_t num_edges = base->network().num_edges();
  std::unordered_set<graph::EdgeId> seen;
  seen.reserve(updates.size());
  for (const graph::TrafficUpdate& update : updates) {
    if (update.edge >= num_edges) {
      result.status = TrafficStatus::kUnknownEdge;
      result.message =
          StrFormat("unknown edge %u (network has %zu edges)", update.edge,
                    num_edges);
      return result;
    }
    if (!seen.insert(update.edge).second) {
      result.status = TrafficStatus::kDuplicateEdge;
      result.message =
          StrFormat("edge %u appears more than once in the batch",
                    update.edge);
      return result;
    }
    if (!update.has_travel_time && !update.has_closed) {
      result.status = TrafficStatus::kBadUpdate;
      result.message = StrFormat(
          "update for edge %u changes nothing (needs travel_time_s and/or "
          "closed)",
          update.edge);
      return result;
    }
    if (update.has_travel_time &&
        (!std::isfinite(update.travel_time_s) ||
         update.travel_time_s <= 0.0)) {
      result.status = TrafficStatus::kBadUpdate;
      result.message = StrFormat(
          "travel_time_s for edge %u must be positive and finite",
          update.edge);
      return result;
    }
    if (update.has_travel_time) ++result.cost_updates;
    if (update.has_closed) {
      if (update.closed) {
        ++result.closures;
      } else {
        ++result.reopenings;
      }
    }
  }

  // Copy-on-write rebuild off the reader lock, then one pointer swap.
  Publish(base->WithTraffic(updates));
  result.epoch = base->epoch() + 1;
  traffic_batches_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::shared_ptr<const graph::GraphSnapshot> GraphStore::SwapNetwork(
    graph::RoadNetwork network) {
  common::MutexLock rebuild_lock(rebuild_mu_);
  const std::shared_ptr<const graph::GraphSnapshot> base = Current();
  return Publish(base->WithNetwork(std::move(network)));
}

}  // namespace pathrank::serving
