#include "traj/driver_model.h"

#include <algorithm>
#include <cmath>

namespace pathrank::traj {
namespace {

/// SplitMix64-style hash for (seed, edge) -> uniform double in [0,1).
double HashUniform(uint64_t seed, uint64_t edge) {
  uint64_t z = seed ^ (edge * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// Approximate inverse normal CDF (Acklam) — good to ~1e-9, plenty for
/// noise generation without carrying RNG state per edge.
double InverseNormalCdf(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  const double q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

}  // namespace

PopulationPreferences SamplePopulationPreferences(pathrank::Rng& rng) {
  PopulationPreferences p;
  auto idx = [](graph::RoadCategory c) { return static_cast<size_t>(c); };
  // Locals favour the high-capacity hierarchy beyond free-flow time (it is
  // predictable, has fewer junctions) and avoid residential cut-throughs.
  p[idx(graph::RoadCategory::kMotorway)] = rng.NextUniform(0.78, 0.88);
  p[idx(graph::RoadCategory::kTrunk)] = rng.NextUniform(0.84, 0.92);
  p[idx(graph::RoadCategory::kPrimary)] = rng.NextUniform(0.84, 0.94);
  p[idx(graph::RoadCategory::kSecondary)] = rng.NextUniform(0.9, 1.0);
  p[idx(graph::RoadCategory::kTertiary)] = rng.NextUniform(1.0, 1.1);
  p[idx(graph::RoadCategory::kResidential)] = rng.NextUniform(1.1, 1.25);
  p[idx(graph::RoadCategory::kService)] = rng.NextUniform(1.25, 1.45);
  return p;
}

DriverPreferences SampleDriver(int driver_id, pathrank::Rng& rng,
                               const PopulationPreferences& population) {
  DriverPreferences d;
  d.driver_id = driver_id;
  d.noise_seed = rng.NextU64();
  // Calibrated so the population's trips deviate from shortest/fastest
  // paths (the paper's premise) while remaining predictable from the path
  // itself — the label regime of the paper's GPS corpus.
  d.familiarity_sigma = rng.NextUniform(0.04, 0.1);

  auto& m = d.category_multiplier;
  auto idx = [](graph::RoadCategory c) { return static_cast<size_t>(c); };
  for (int i = 0; i < graph::kNumRoadCategories; ++i) {
    // Mild idiosyncratic jitter around the regional consensus.
    m[static_cast<size_t>(i)] =
        population[static_cast<size_t>(i)] *
        std::exp(rng.NextGaussian(0.0, 0.04));
  }
  // A minority of stronger archetypes keeps the population heterogeneous.
  const double archetype = rng.NextDouble();
  if (archetype < 0.08) {
    // Highway avoider.
    m[idx(graph::RoadCategory::kMotorway)] *= rng.NextUniform(1.3, 1.6);
    m[idx(graph::RoadCategory::kTrunk)] *= rng.NextUniform(1.15, 1.35);
  } else if (archetype < 0.16) {
    // Back-street connoisseur: does not mind residential shortcuts.
    m[idx(graph::RoadCategory::kResidential)] *= rng.NextUniform(0.75, 0.9);
    m[idx(graph::RoadCategory::kTertiary)] *= rng.NextUniform(0.85, 0.95);
  }
  return d;
}

std::vector<double> PersonalizedEdgeCosts(const graph::RoadNetwork& network,
                                          const DriverPreferences& driver) {
  std::vector<double> costs(network.num_edges());
  for (graph::EdgeId e = 0; e < network.num_edges(); ++e) {
    const auto& rec = network.edge(e);
    const double pref =
        driver.category_multiplier[static_cast<size_t>(rec.category)];
    // Deterministic log-normal familiarity noise per (driver, edge).
    const double u =
        std::clamp(HashUniform(driver.noise_seed, e), 1e-12, 1.0 - 1e-12);
    const double noise =
        std::exp(driver.familiarity_sigma * InverseNormalCdf(u));
    costs[e] = rec.travel_time_s * pref * noise;
  }
  return costs;
}

}  // namespace pathrank::traj
