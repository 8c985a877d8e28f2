// Statistical differential suite for the disturbance sampler.
// fault::DisturbanceModel draws a window's flips by skipping along the
// cumulative cell hazard; fault::ReferenceDisturbanceModel is the per-row
// binomial sampler it replaced.  The two draw different streams from the
// same model, so they are pinned to each other in distribution, at fixed
// seeds: per-row flip counts (a two-sample chi-square plus each sampler
// against the exact expectation), and the scenario engine's frontier MTTF
// on each sampler.  The oracle engine itself is pinned bit for bit to the
// results the engine gave before the sparse sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/disturbance.hpp"
#include "fault/reference_disturbance.hpp"
#include "reliability/reference_reliability.hpp"
#include "reliability/scenario.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

// A skewed victim profile: geometrically decaying activations, one hot
// aggressor, and a cold tail whose rows carry no pressure at all.
std::vector<double> skewed_activations() {
  std::vector<double> acts(48, 0.0);
  for (std::size_t r = 0; r < 40; ++r) {
    acts[r] = 2000.0 * std::pow(0.8, static_cast<double>(r));
  }
  acts[30] += 5000.0;
  return acts;
}

TEST(DisturbanceOracle, PerRowFlipCountsMatchThePerRowBinomialSampler) {
  constexpr std::size_t kCols = 64;
  constexpr int kWindows = 3000;
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 2e-5;
  params.neighbor_radius = 2;
  const fault::DisturbanceModel sparse(48, kCols, params);
  const fault::ReferenceDisturbanceModel oracle(48, kCols, params);
  const std::vector<double> acts = skewed_activations();

  std::vector<double> sparse_counts(48, 0.0), oracle_counts(48, 0.0);
  util::Rng rng_sparse(0xD157), rng_oracle(0x0AC1E);
  std::vector<fault::DataFlip> out;
  for (int w = 0; w < kWindows; ++w) {
    out.clear();
    sparse.sample(rng_sparse, acts, out);
    for (const fault::DataFlip& f : out) sparse_counts[f.r] += 1.0;
    out.clear();
    oracle.sample(rng_oracle, acts, out);
    for (const fault::DataFlip& f : out) oracle_counts[f.r] += 1.0;
  }

  // Two-sample homogeneity: with equal exposure, (a - b)^2 / (a + b) is
  // about chi-square(1) per row (conservative: a binomial count's variance
  // is below its mean).  Bound at the mean + 4 standard deviations.
  double chi2 = 0.0;
  std::size_t dof = 0;
  double expected_total = 0.0, variance_total = 0.0;
  double sparse_total = 0.0, oracle_total = 0.0;
  for (std::size_t v = 0; v < 48; ++v) {
    const double p =
        sparse.row_flip_probability(sparse.victim_pressure(acts, v));
    if (p == 0.0) {
      EXPECT_EQ(sparse_counts[v], 0.0) << "zero-pressure row " << v;
      EXPECT_EQ(oracle_counts[v], 0.0) << "zero-pressure row " << v;
      continue;
    }
    const double a = sparse_counts[v];
    const double b = oracle_counts[v];
    if (a + b > 0.0) {
      chi2 += (a - b) * (a - b) / (a + b);
      ++dof;
    }
    expected_total += kWindows * kCols * p;
    variance_total += kWindows * kCols * p * (1.0 - p);
    sparse_total += a;
    oracle_total += b;
  }
  ASSERT_GT(dof, 30u);
  const double k = static_cast<double>(dof);
  EXPECT_LT(chi2, k + 4.0 * std::sqrt(2.0 * k)) << "dof " << dof;
  const double sigma = std::sqrt(variance_total);
  EXPECT_NEAR(sparse_total, expected_total, 5.0 * sigma);
  EXPECT_NEAR(oracle_total, expected_total, 5.0 * sigma);
}

// The bench_scenarios frontier shape (n = 60, fit 2000, 480 h, 400 trials)
// under the periodic policy: the MTTF on the sparse sampler must lie in the
// 99.9% confidence interval of the MTTF on the oracle.  With f failures the
// censored-exponential estimate's log has standard error about 1/sqrt(f).
TEST(DisturbanceOracle, FrontierMttfLiesInTheOracleConfidenceInterval) {
  constexpr double kHorizon = 480.0;
  for (const std::string_view preset : {"disturb", "mixed"}) {
    SCOPED_TRACE(std::string(preset));
    rel::ScenarioConfig config;
    config.n = 60;
    config.m = 15;
    config.trials = 400;
    config.max_hours = kHorizon;
    config.threads = 0;
    ASSERT_TRUE(rel::apply_fault_preset(preset, 2000.0, config.faults));
    ASSERT_TRUE(rel::apply_policy_preset("periodic", config.policy));
    util::Rng rng_sparse(0xF407), rng_oracle(0xF408);
    const rel::ScenarioResult sparse = rel::run_scenario(config, rng_sparse);
    const rel::ScenarioResult oracle =
        rel::reference_run_scenario(config, rng_oracle);
    ASSERT_GE(oracle.failures, 30u);
    const double mttf_oracle = oracle.empirical_mttf_hours(kHorizon);
    const double half_width =
        3.29 / std::sqrt(static_cast<double>(oracle.failures));
    const double mttf_sparse = sparse.empirical_mttf_hours(kHorizon);
    EXPECT_GT(mttf_sparse, mttf_oracle * std::exp(-half_width));
    EXPECT_LT(mttf_sparse, mttf_oracle * std::exp(half_width));
  }
}

struct Pinned {
  std::size_t failures;
  std::uint64_t scrub_events;
  std::uint64_t faults_injected;
  std::uint64_t errors_corrected;
  std::uint64_t stuck_repairs;
  double ttf_mean;
};

void expect_pinned(const rel::ScenarioResult& r, const Pinned& p) {
  EXPECT_EQ(r.failures, p.failures);
  EXPECT_EQ(r.scrub_events, p.scrub_events);
  EXPECT_EQ(r.faults_injected, p.faults_injected);
  EXPECT_EQ(r.errors_corrected, p.errors_corrected);
  EXPECT_EQ(r.stuck_repairs, p.stuck_repairs);
  EXPECT_EQ(r.time_to_failure_hours.mean(), p.ttf_mean);
}

// The oracle engine is the engine as it ran on the per-row binomial
// sampler: it reproduces the `disturb` and `mixed` golden rows that
// test_scenarios pinned before the sparse sampler (periodic policy at
// n = 60, and the served shape at the default SER).
TEST(DisturbanceOracle, OracleEngineReproducesThePerRowBinomialPins) {
  const Pinned grid[] = {
      {10, 185, 385, 344, 0, 0x1.08p+7},                // disturb ck
      {15, 160, 318, 262, 0, 0x1.0ffffffffffffp+7},     // disturb nock
      {18, 150, 295, 221, 35, 0x1.2p+7},                // mixed ck
      {14, 154, 273, 213, 48, 0x1.d249249249249p+6},    // mixed nock
  };
  std::size_t row = 0;
  for (const std::string_view preset : {"disturb", "mixed"}) {
    for (const bool check_bits : {true, false}) {
      SCOPED_TRACE(std::string(preset) + (check_bits ? " ck" : " nock"));
      rel::ScenarioConfig config;
      config.n = 60;
      config.m = 15;
      config.trials = 24;
      config.max_hours = 240.0;
      config.include_check_bits = check_bits;
      ASSERT_TRUE(rel::apply_fault_preset(preset, 1.5e4, config.faults));
      ASSERT_TRUE(rel::apply_policy_preset("periodic", config.policy));
      util::Rng rng(20211205);
      expect_pinned(rel::reference_run_scenario(config, rng), grid[row++]);
    }
  }

  const Pinned served[] = {
      {16, 0, 2755, 0, 0, 0x1.8p+4},     // disturb
      {16, 3, 1635, 238, 0, 0x1.c8p+4},  // mixed
  };
  row = 0;
  for (const std::string_view preset : {"disturb", "mixed"}) {
    SCOPED_TRACE(std::string(preset) + " served shape");
    rel::ScenarioConfig config;
    config.n = 1020;
    config.m = 15;
    config.trials = 16;
    config.max_hours = 240.0;
    ASSERT_TRUE(rel::apply_fault_preset(preset, 1e-3, config.faults));
    ASSERT_TRUE(rel::apply_policy_preset("periodic", config.policy));
    util::Rng rng(7);
    expect_pinned(rel::reference_run_scenario(config, rng), served[row++]);
  }
}

}  // namespace
}  // namespace pimecc
