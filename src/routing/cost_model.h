// Edge-cost abstraction: routing algorithms are generic over the metric
// (physical length, free-flow travel time, or an externally supplied
// per-edge weight vector such as a simulated driver's personalised costs).
#pragma once

#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/road_network.h"

namespace pathrank::routing {

/// Cheap, copyable view of an edge-cost function. The referenced network
/// (and custom weight array, if any) must outlive the view.
class EdgeCostFn {
 public:
  /// Physical length in metres.
  static EdgeCostFn Length(const graph::RoadNetwork& network) {
    return EdgeCostFn(&network, Mode::kLength, {});
  }

  /// Free-flow travel time in seconds.
  static EdgeCostFn TravelTime(const graph::RoadNetwork& network) {
    return EdgeCostFn(&network, Mode::kTravelTime, {});
  }

  /// Arbitrary positive per-edge weights (size must equal num_edges()).
  static EdgeCostFn Custom(const graph::RoadNetwork& network,
                           std::span<const double> weights) {
    PR_CHECK(weights.size() == network.num_edges())
        << "custom weights size mismatch";
    return EdgeCostFn(&network, Mode::kCustom, weights);
  }

  double operator()(graph::EdgeId e) const {
    switch (mode_) {
      case Mode::kLength:
        return network_->edge(e).length_m;
      case Mode::kTravelTime:
        return network_->edge(e).travel_time_s;
      case Mode::kCustom:
        return custom_[e];
    }
    return 0.0;
  }

  const graph::RoadNetwork& network() const { return *network_; }

  /// True when this is the physical-length metric.
  bool is_length() const { return mode_ == Mode::kLength; }

  /// True when this is the travel-time metric.
  bool is_travel_time() const { return mode_ == Mode::kTravelTime; }

 private:
  enum class Mode { kLength, kTravelTime, kCustom };

  EdgeCostFn(const graph::RoadNetwork* network, Mode mode,
             std::span<const double> custom)
      : network_(network), mode_(mode), custom_(custom) {}

  const graph::RoadNetwork* network_;
  Mode mode_;
  std::span<const double> custom_;
};

}  // namespace pathrank::routing
