// Fundamental identifier and geometry types for spatial road networks.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace pathrank::graph {

using VertexId = uint32_t;
using EdgeId = uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Functional road classes, ordered from highest to lowest capacity.
/// Mirrors the OSM highway hierarchy the paper's North Jutland network uses.
enum class RoadCategory : uint8_t {
  kMotorway = 0,
  kTrunk = 1,
  kPrimary = 2,
  kSecondary = 3,
  kTertiary = 4,
  kResidential = 5,
  kService = 6,
};

inline constexpr int kNumRoadCategories = 7;

/// Default free-flow speed (km/h) per category, used to derive travel times
/// when a speed is not given explicitly.
double DefaultSpeedKmh(RoadCategory category);

/// Human-readable category name ("motorway", ...).
std::string RoadCategoryName(RoadCategory category);

/// Parses a category name; throws std::invalid_argument on unknown names.
RoadCategory ParseRoadCategory(const std::string& name);

/// WGS84 geographic coordinate.
struct Coordinate {
  double lat = 0.0;
  double lon = 0.0;

  bool operator==(const Coordinate& other) const {
    return lat == other.lat && lon == other.lon;
  }
};

/// Great-circle distance in metres (haversine formula).
double HaversineMeters(const Coordinate& a, const Coordinate& b);

/// Equirectangular approximation of distance in metres; accurate to <0.5%
/// at regional scale and several times faster than haversine. Used by
/// network construction and trip generation.
double FastDistanceMeters(const Coordinate& a, const Coordinate& b);

}  // namespace pathrank::graph
