// Unit tests for the scenario-diversity subsystem: the activation-induced
// disturbance model, per-row activation accounting in the crossbars and the
// PIM machine, stuck-at cell semantics, the pluggable scrub policies'
// deterministic schedules, and the scenario lifetime engine (zero-rate
// exact cross-check against simulate_lifetime, iid statistical band, stuck
// re-flip semantics, thread-count determinism, a golden pin of its results,
// and the edge cases of its dirty-block bookkeeping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "arch/pim_machine.hpp"
#include "fault/disturbance.hpp"
#include "fault/models.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/scenario.hpp"
#include "reliability/scrub_policy.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/reference_crossbar.hpp"

namespace pimecc {
namespace {

// --------------------------------------------------------- DisturbanceModel

TEST(Disturbance, ValidatesConstruction) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-6;
  EXPECT_NO_THROW(fault::DisturbanceModel(8, 8, params));
  EXPECT_THROW(fault::DisturbanceModel(0, 8, params), std::invalid_argument);
  EXPECT_THROW(fault::DisturbanceModel(8, 0, params), std::invalid_argument);
  params.neighbor_radius = 0;
  EXPECT_THROW(fault::DisturbanceModel(8, 8, params), std::invalid_argument);
  params.neighbor_radius = 1;
  params.flip_probability_per_activation = -1e-6;
  EXPECT_THROW(fault::DisturbanceModel(8, 8, params), std::invalid_argument);
}

TEST(Disturbance, PressureSumsNeighborsAboveTheFloor) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-6;
  params.neighbor_radius = 2;
  params.activation_floor = 10;
  const fault::DisturbanceModel model(6, 6, params);
  const std::vector<double> acts = {100.0, 5.0, 40.0, 0.0, 25.0, 100.0};
  // Victim 2 sees rows {0, 1, 3, 4}: (100-10) + 0 + 0 + (25-10) = 105.
  EXPECT_DOUBLE_EQ(model.victim_pressure(acts, 2), 105.0);
  // Victim 0 sees rows {1, 2}: 0 + 30.  Its own 100 never self-disturbs.
  EXPECT_DOUBLE_EQ(model.victim_pressure(acts, 0), 30.0);
  EXPECT_THROW((void)model.victim_pressure(acts, 6), std::out_of_range);
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW((void)model.victim_pressure(wrong, 0), std::invalid_argument);
}

TEST(Disturbance, ZeroPressureRowsConsumeNoRandomness) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-3;
  const fault::DisturbanceModel model(8, 8, params);
  util::Rng rng(3);
  const util::Rng::State before = rng.state();
  const std::vector<std::uint64_t> idle(8, 0);
  EXPECT_TRUE(model.sample(rng, idle).empty());
  EXPECT_EQ(rng.state(), before);
}

TEST(Disturbance, FlipsLandOnlyOnVictimRows) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 0.5;  // hot, for coverage
  params.neighbor_radius = 1;
  const fault::DisturbanceModel model(8, 16, params);
  std::vector<double> acts(8, 0.0);
  acts[4] = 50.0;  // single aggressor: victims are rows 3 and 5 only
  util::Rng rng(11);
  std::vector<fault::DataFlip> out;
  for (int draw = 0; draw < 50; ++draw) {
    out.clear();
    model.sample(rng, acts, out);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const fault::DataFlip& f : out) {
      EXPECT_TRUE(f.r == 3 || f.r == 5) << "non-victim row " << f.r;
      EXPECT_LT(f.c, 16u);
      EXPECT_TRUE(seen.insert({f.r, f.c}).second) << "duplicate flip";
    }
  }
}

TEST(Disturbance, SampleIsDeterministicPerRngStream) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-2;
  const fault::DisturbanceModel model(16, 16, params);
  std::vector<std::uint64_t> acts(16, 0);
  acts[2] = 100;
  acts[9] = 400;
  util::Rng a(77), b(77);
  for (int draw = 0; draw < 10; ++draw) {
    const auto fa = model.sample(a, acts);
    const auto fb = model.sample(b, acts);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].r, fb[i].r);
      EXPECT_EQ(fa[i].c, fb[i].c);
    }
  }
}

// The hazard is additive in aggressor activations, so one window of 2A
// activations and two windows of A each yield the same flip distribution
// (chunk invariance).  Compare empirical per-victim flip rates.
TEST(Disturbance, HazardIsChunkInvariantInDistribution) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 2e-3;
  const fault::DisturbanceModel model(4, 64, params);
  std::vector<double> full(4, 0.0), half(4, 0.0);
  full[1] = 800.0;  // p(victim cell) = 1 - exp(-1.6) = 0.798
  half[1] = 400.0;
  util::Rng rng_one(5), rng_two(6);
  const int kDraws = 400;
  std::size_t flips_one = 0, flips_two = 0;
  std::vector<fault::DataFlip> out;
  for (int draw = 0; draw < kDraws; ++draw) {
    out.clear();
    model.sample(rng_one, full, out);
    flips_one += std::count_if(out.begin(), out.end(),
                               [](const fault::DataFlip& f) { return f.r == 0; });
    // Two half-windows: a cell flips in the window iff it flips an odd
    // number of times; with independent per-window Bernoulli hazards the
    // *expected flip count* is what adds, so compare total flips.
    out.clear();
    model.sample(rng_two, half, out);
    model.sample(rng_two, half, out);
    flips_two += std::count_if(out.begin(), out.end(),
                               [](const fault::DataFlip& f) { return f.r == 0; });
  }
  const double kCells = 64.0 * kDraws;
  const double rate_one = static_cast<double>(flips_one) / kCells;
  // Per half-window p_h = 1 - exp(-0.8); two windows flip 2*p_h cells in
  // expectation vs 1 - exp(-1.6) for the single window -- the *event*
  // counts differ (XOR-cancellation is the injector's job), but the
  // underlying hazard matches: 1-(1-p_h)^2 == 1-exp(-1.6).
  const double p_two_union =
      1.0 - std::pow(1.0 - (static_cast<double>(flips_two) / (2.0 * kCells)), 2.0);
  EXPECT_NEAR(rate_one, 1.0 - std::exp(-1.6), 0.02);
  EXPECT_NEAR(p_two_union, 1.0 - std::exp(-1.6), 0.02);
}

// A saturating hazard (k = 0.5 against one aggressor of 10^6 activations)
// flips every victim cell, each exactly once: every gap restarts at the end
// of the hit cell.  The stream advances by exactly flips + 1 uniform draws.
TEST(Disturbance, SaturatingHazardFlipsEveryVictimCellOnceInFlipsPlusOneDraws) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 0.5;
  const fault::DisturbanceModel model(8, 16, params);
  std::vector<double> acts(8, 0.0);
  acts[4] = 1e6;
  util::Rng rng(21), twin(21);
  std::vector<fault::DataFlip> out;
  model.sample(rng, acts, out);
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].r, i < 16 ? 3u : 5u);
    EXPECT_EQ(out[i].c, i % 16);
  }
  for (std::size_t draw = 0; draw < out.size() + 1; ++draw) {
    (void)twin.uniform01();
  }
  EXPECT_EQ(rng.state(), twin.state());
}

// Aggressors at rows 1 and 5 press rows {0, 2} and {4, 6}; rows 1, 3, 5
// and 7 carry no pressure -- row 3 sits between two victims -- and are
// never hit.
TEST(Disturbance, ZeroHazardRowsBetweenVictimsAreNeverHit) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 0.05;
  const fault::DisturbanceModel model(8, 16, params);
  std::vector<double> acts(8, 0.0);
  acts[1] = 20.0;  // per-cell hazard 1 on each victim
  acts[5] = 20.0;
  util::Rng rng(4);
  std::vector<std::size_t> hits(8, 0);
  std::vector<fault::DataFlip> out;
  for (int draw = 0; draw < 200; ++draw) {
    out.clear();
    model.sample(rng, acts, out);
    for (const fault::DataFlip& f : out) ++hits[f.r];
  }
  for (const std::size_t r : {1u, 3u, 5u, 7u}) EXPECT_EQ(hits[r], 0u) << r;
  for (const std::size_t r : {0u, 2u, 4u, 6u}) EXPECT_GT(hits[r], 0u) << r;
}

// A long prefix sum rounds, so a row's segment can end a hair past
// cols x its pressure, and a target there divides out to column cols.
// Exaggerate that surplus in a hand-built profile: row 0's four cells of
// length 0.25 sit in a segment of length 4, so most targets landing in row
// 0 fall past its last cell.  Columns must stay below cols, flips distinct
// and in (row, column) order.
TEST(Disturbance, ColumnIndexStaysBelowColsAtASegmentBoundary) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1.0;
  const fault::DisturbanceModel model(2, 4, params);
  const fault::DisturbanceProfile profile{{0.25, 1.0}, {0.0, 4.0, 8.0}};
  util::Rng rng(12);
  std::size_t last_cell_hits = 0;
  std::vector<fault::DataFlip> out;
  for (int draw = 0; draw < 500; ++draw) {
    out.clear();
    model.sample(rng, profile, 1.0, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_LT(out[i].r, 2u);
      ASSERT_LT(out[i].c, 4u);
      if (out[i].r == 0 && out[i].c == 3) ++last_cell_hits;
      if (i > 0) {
        EXPECT_TRUE(out[i - 1].r < out[i].r ||
                    (out[i - 1].r == out[i].r && out[i - 1].c < out[i].c));
      }
    }
  }
  EXPECT_GT(last_cell_hits, 0u);
}

// With one column every hit ends its row, so each gap restarts exactly at
// the next row's start.  Two rows of per-cell hazard 1 must then flip
// independently: both with probability (1 - e^-1)^2.
TEST(Disturbance, CellsFlipIndependentlyAcrossRowEnds) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 0.01;
  const fault::DisturbanceModel model(2, 1, params);
  const std::vector<double> acts = {100.0, 100.0};  // each presses the other
  util::Rng rng(17);
  constexpr int kDraws = 4000;
  int first = 0, second = 0, both = 0;
  std::vector<fault::DataFlip> out;
  for (int draw = 0; draw < kDraws; ++draw) {
    out.clear();
    model.sample(rng, acts, out);
    const bool r0 = !out.empty() && out.front().r == 0;
    const bool r1 = !out.empty() && out.back().r == 1;
    first += r0;
    second += r1;
    both += r0 && r1;
  }
  const double p = 1.0 - std::exp(-1.0);
  const auto near = [&](int count, double q) {
    EXPECT_NEAR(count / double{kDraws}, q,
                5.0 * std::sqrt(q * (1.0 - q) / kDraws));
  };
  near(first, p);
  near(second, p);
  near(both, p * p);
}

// A row whose cells are finer than the prefix sum's resolution near its
// start (cells of 0.1 at offset 10^15, where doubles step by 0.125, in a
// segment that ends at 10^15 + 1): the restart point and the hit cell
// round, yet every cell of a saturated row is hit exactly once, in order.
TEST(Disturbance, CellsBelowThePrefixResolutionAreHitOnceEach) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1.0;
  const fault::DisturbanceModel model(2, 8, params);
  const fault::DisturbanceProfile profile{{1.25e14, 0.1},
                                          {0.0, 1e15, 1e15 + 1.0}};
  util::Rng rng(3);
  std::vector<fault::DataFlip> out;
  model.sample(rng, profile, 1e3, out);
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].r, i / 8);
    EXPECT_EQ(out[i].c, i % 8);
  }
}

// The floor only shifts what counts as pressure: a model with floor F on
// activations a draws the same stream as a floor-0 model on max(0, a - F).
TEST(Disturbance, FloorMatchesPreShiftedActivationsExactly) {
  fault::DisturbanceParams floored;
  floored.flip_probability_per_activation = 4e-3;
  floored.neighbor_radius = 2;
  floored.activation_floor = 10;
  fault::DisturbanceParams plain = floored;
  plain.activation_floor = 0;
  const fault::DisturbanceModel with_floor(12, 20, floored);
  const fault::DisturbanceModel without_floor(12, 20, plain);
  util::Rng fill(8);
  std::vector<double> acts(12), shifted(12);
  for (std::size_t r = 0; r < acts.size(); ++r) {
    acts[r] = 100.0 * fill.uniform01();
    shifted[r] = std::max(0.0, acts[r] - 10.0);
  }
  util::Rng a(9), b(9);
  std::vector<fault::DataFlip> fa, fb;
  for (int draw = 0; draw < 20; ++draw) {
    with_floor.sample(a, acts, fa);
    without_floor.sample(b, shifted, fb);
  }
  ASSERT_FALSE(fa.empty());
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].r, fb[i].r);
    EXPECT_EQ(fa[i].c, fb[i].c);
  }
  EXPECT_EQ(a.state(), b.state());
}

// ------------------------------------------------------- activation counters

TEST(ActivationCounters, RowOpsCountPerRowAndColumnOpsBroadcast) {
  xbar::Crossbar xb(8, 8);
  const util::BitVector row_image(8, true);
  xb.write_row(3, row_image);
  xb.write_row(3, row_image);
  (void)xb.read_row(5);
  EXPECT_EQ(xb.row_activations(3), 2u);
  EXPECT_EQ(xb.row_activations(5), 1u);
  EXPECT_EQ(xb.row_activations(0), 0u);
  // A column access drives every wordline: all rows tick once.
  xb.write_column(2, util::BitVector(8, false));
  EXPECT_EQ(xb.row_activations(3), 3u);
  EXPECT_EQ(xb.row_activations(0), 1u);
  EXPECT_THROW((void)xb.row_activations(8), std::out_of_range);
  const std::vector<std::uint64_t> snapshot = xb.row_activation_snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  EXPECT_EQ(snapshot[3], 3u);
  EXPECT_EQ(snapshot[0], 1u);
  xb.reset_row_activations();
  for (std::size_t r = 0; r < 8; ++r) EXPECT_EQ(xb.row_activations(r), 0u);
}

TEST(ActivationCounters, FastAndReferenceEnginesAgreeOnARandomProgram) {
  constexpr std::size_t kN = 16;
  xbar::Crossbar fast(kN, kN);
  xbar::ReferenceCrossbar ref(kN, kN);
  util::Rng rng(2025);
  for (int op = 0; op < 300; ++op) {
    switch (rng.uniform_below(6)) {
      case 0: {
        const std::size_t r = rng.uniform_below(kN);
        util::BitVector v(kN);
        for (std::size_t i = 0; i < kN; ++i) v.set(i, rng.bernoulli(0.5));
        fast.write_row(r, v);
        ref.write_row(r, v);
        break;
      }
      case 1: {
        const std::size_t c = rng.uniform_below(kN);
        util::BitVector v(kN);
        for (std::size_t i = 0; i < kN; ++i) v.set(i, rng.bernoulli(0.5));
        fast.write_column(c, v);
        ref.write_column(c, v);
        break;
      }
      case 2: {
        const std::size_t r = rng.uniform_below(kN);
        EXPECT_TRUE(fast.read_row(r) == ref.read_row(r));
        break;
      }
      case 3: {
        const std::size_t line = rng.uniform_below(kN);
        const std::size_t lines[1] = {line};
        const auto o = rng.bernoulli(0.5) ? xbar::Orientation::kRow
                                          : xbar::Orientation::kColumn;
        fast.magic_init(o, lines);
        ref.magic_init(o, lines);
        break;
      }
      case 4: {
        std::size_t in[2] = {rng.uniform_below(kN), rng.uniform_below(kN)};
        std::size_t out_line = rng.uniform_below(kN);
        while (out_line == in[0] || out_line == in[1]) {
          out_line = rng.uniform_below(kN);
        }
        if (in[0] == in[1]) in[1] = (in[1] + 1) % kN;
        const auto o = rng.bernoulli(0.5) ? xbar::Orientation::kRow
                                          : xbar::Orientation::kColumn;
        const std::size_t outs[1] = {out_line};
        fast.magic_init(o, outs);
        ref.magic_init(o, outs);
        (void)fast.magic_nor(o, in, out_line);
        (void)ref.magic_nor(o, in, out_line);
        break;
      }
      default: {
        const std::size_t r = rng.uniform_below(kN);
        const std::size_t c = rng.uniform_below(kN);
        const bool v = rng.bernoulli(0.5);
        fast.write_bit(r, c, v);
        ref.write_bit(r, c, v);
        break;
      }
    }
  }
  EXPECT_EQ(fast.row_activation_snapshot(), ref.row_activation_snapshot());
  for (std::size_t r = 0; r < kN; ++r) {
    EXPECT_EQ(fast.row_activations(r), ref.row_activations(r)) << "row " << r;
  }
}

TEST(ActivationCounters, PimMachineExposesMemActivationAccounting) {
  arch::ArchParams params;
  params.n = 30;
  params.m = 15;
  params.validate();
  arch::PimMachine machine(params);
  util::Rng rng(4);
  machine.load(util::random_bit_matrix(30, 30, rng));
  machine.reset_mem_row_activations();
  const std::uint64_t before = machine.mem_row_activations(7);
  EXPECT_EQ(before, 0u);
  util::BitVector row(30);
  for (std::size_t i = 0; i < 30; ++i) row.set(i, rng.bernoulli(0.5));
  machine.write_row_protected(7, row);
  EXPECT_GT(machine.mem_row_activations(7), 0u);
  const std::vector<std::uint64_t> snapshot = machine.mem_row_activation_snapshot();
  ASSERT_EQ(snapshot.size(), 30u);
  EXPECT_EQ(snapshot[7], machine.mem_row_activations(7));
  machine.reset_mem_row_activations();
  for (std::size_t r = 0; r < 30; ++r) {
    EXPECT_EQ(machine.mem_row_activations(r), 0u);
  }
}

// ----------------------------------------------------------------- StuckAt

TEST(StuckAt, MarkRepairReplaceLifecycle) {
  EXPECT_THROW(fault::StuckAtSet(0), std::invalid_argument);
  fault::StuckAtSet stuck(3);
  EXPECT_TRUE(stuck.mark(42));
  EXPECT_FALSE(stuck.mark(42));  // already latched: no state change
  EXPECT_TRUE(stuck.is_stuck(42));
  EXPECT_FALSE(stuck.is_stuck(7));
  EXPECT_THROW((void)stuck.on_repair(7), std::logic_error);
  EXPECT_FALSE(stuck.on_repair(42));  // repair 1 of 3: still stuck
  EXPECT_FALSE(stuck.on_repair(42));  // repair 2 of 3
  EXPECT_EQ(stuck.replaced_count(), 0u);
  EXPECT_TRUE(stuck.on_repair(42));   // repair 3: remapped to a spare
  EXPECT_FALSE(stuck.is_stuck(42));
  EXPECT_EQ(stuck.stuck_count(), 0u);
  EXPECT_EQ(stuck.replaced_count(), 1u);
  // A replaced cell can latch again (the spare is not immortal).
  EXPECT_TRUE(stuck.mark(42));
  stuck.clear();
  EXPECT_EQ(stuck.stuck_count(), 0u);
}

// ---------------------------------------------------------- scrub schedules

rel::ScrubPlanContext make_context(std::span<const double> rates,
                                   double horizon) {
  rel::ScrubPlanContext ctx;
  ctx.n = 60;
  ctx.m = 15;
  ctx.horizon_hours = horizon;
  ctx.row_activation_rates = rates;
  return ctx;
}

bool covers(const rel::ScrubEvent& event, std::size_t band) {
  return event.full() || std::binary_search(event.bands.begin(),
                                            event.bands.end(), band);
}

TEST(ScrubSchedule, PeriodicEmitsOneScrubPerStartedWindow) {
  rel::ScrubPolicyConfig config;  // periodic, 24 h
  const auto policy = rel::make_scrub_policy(config);
  EXPECT_EQ(policy->kind(), rel::ScrubPolicyKind::kPeriodic);
  const std::vector<double> rates(60, 0.0);
  const auto plan = policy->plan(make_context(rates, 240.0));
  ASSERT_EQ(plan.size(), 10u);  // windows start at 0, 24, ..., 216
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan[i].hours, 24.0 * static_cast<double>(i + 1));
    EXPECT_TRUE(plan[i].full());
  }
  // A horizon inside a window still gets that window's scrub: the final
  // event may overhang the horizon (one-scrub-per-started-window).
  const auto overhang = policy->plan(make_context(rates, 250.0));
  ASSERT_EQ(overhang.size(), 11u);
  EXPECT_DOUBLE_EQ(overhang.back().hours, 264.0);
}

TEST(ScrubSchedule, RegionPolicyRoundRobinsBandsAtTheRegionCadence) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("region", config));
  const auto policy = rel::make_scrub_policy(config);
  const std::vector<double> rates(60, 0.0);
  const auto plan = policy->plan(make_context(rates, 48.0));
  ASSERT_EQ(plan.size(), 8u);  // every 6 h, one band per event
  std::size_t per_band[4] = {0, 0, 0, 0};
  double previous = 0.0;
  for (const rel::ScrubEvent& event : plan) {
    EXPECT_GT(event.hours, previous);
    previous = event.hours;
    ASSERT_EQ(event.bands.size(), 1u);
    ++per_band[event.bands[0]];
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(per_band[b], 2u) << "band " << b;  // two full cycles in 48 h
  }
}

TEST(ScrubSchedule, ActivationPolicyScrubsHotBandsMoreOftenWithABackstop) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("activation", config));
  const auto policy = rel::make_scrub_policy(config);
  const std::vector<double> rates =
      rel::row_activation_rates(rel::canonical_workload(), 60);
  const auto plan = policy->plan(make_context(rates, 48.0));
  std::size_t hot = 0, cold = 0;
  for (const rel::ScrubEvent& event : plan) {
    if (covers(event, 0)) ++hot;   // band 0 holds the hot rows: 6 h cadence
    if (covers(event, 3)) ++cold;  // cold band rides the 24 h backstop
  }
  EXPECT_EQ(hot, 8u);
  EXPECT_EQ(cold, 2u);
  // With no activations at all, every band falls back to the backstop and
  // the coalesced schedule degenerates to the periodic baseline.
  const std::vector<double> idle(60, 0.0);
  const auto fallback = policy->plan(make_context(idle, 48.0));
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_TRUE(fallback[0].full());
  EXPECT_TRUE(fallback[1].full());
}

TEST(ScrubSchedule, HotRowPolicyAddsHotScrubsAndFullsAbsorbCoincidentOnes) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("hotrow", config));
  const auto policy = rel::make_scrub_policy(config);
  const std::vector<double> rates =
      rel::row_activation_rates(rel::canonical_workload(), 60);
  const auto plan = policy->plan(make_context(rates, 48.0));
  ASSERT_EQ(plan.size(), 8u);  // 6 h grid; fulls at 24 and 48 absorb hot events
  for (const rel::ScrubEvent& event : plan) {
    const bool on_full_grid = std::fmod(event.hours, 24.0) == 0.0;
    if (on_full_grid) {
      EXPECT_TRUE(event.full()) << "t=" << event.hours;
    } else {
      ASSERT_EQ(event.bands.size(), 1u) << "t=" << event.hours;
      EXPECT_EQ(event.bands[0], 0u);  // only band 0 contains hot rows
    }
  }
  // Uniform workload: no row is hotter than the floor, so the policy
  // degenerates to the periodic baseline.
  const std::vector<double> uniform(60, 1000.0);
  const auto flat = policy->plan(make_context(uniform, 48.0));
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_TRUE(flat[0].full());
}

TEST(ScrubSchedule, ValidatesConfigurationAndContext) {
  rel::ScrubPolicyConfig config;
  config.period_hours = 0.0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.period_hours = 24.0;
  config.activation_budget = 0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.activation_budget = 1;
  config.regions = 0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.regions = 4;
  EXPECT_NO_THROW(rel::require_valid(config));

  const auto policy = rel::make_scrub_policy(rel::ScrubPolicyConfig{});
  const std::vector<double> rates(60, 0.0);
  rel::ScrubPlanContext bad = make_context(rates, 240.0);
  bad.m = 7;  // does not divide n
  EXPECT_THROW((void)policy->plan(bad), std::invalid_argument);
  bad = make_context(rates, -1.0);
  EXPECT_THROW((void)policy->plan(bad), std::invalid_argument);
  const std::vector<double> short_rates(59, 0.0);
  EXPECT_THROW((void)policy->plan(make_context(short_rates, 240.0)),
               std::invalid_argument);
  std::vector<double> negative(60, 0.0);
  negative[3] = -1.0;
  EXPECT_THROW((void)policy->plan(make_context(negative, 240.0)),
               std::invalid_argument);
}

TEST(ScrubSchedule, PresetNamesRoundTrip) {
  for (const std::string_view name : rel::scrub_policy_preset_names()) {
    rel::ScrubPolicyConfig config;
    EXPECT_TRUE(rel::apply_policy_preset(name, config)) << name;
    EXPECT_EQ(rel::to_string(make_scrub_policy(config)->kind()), name);
  }
  rel::ScrubPolicyConfig config;
  EXPECT_FALSE(rel::apply_policy_preset("nonsense", config));
  for (const std::string_view name : rel::fault_preset_names()) {
    rel::FaultMix mix;
    EXPECT_TRUE(rel::apply_fault_preset(name, 1000.0, mix)) << name;
  }
  rel::FaultMix mix;
  EXPECT_FALSE(rel::apply_fault_preset("nonsense", 1000.0, mix));
}

// --------------------------------------------------------- scenario engine

void expect_identical(const rel::ScenarioResult& a, const rel::ScenarioResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.scrub_events, b.scrub_events);
  EXPECT_EQ(a.blocks_scrubbed, b.blocks_scrubbed);
  EXPECT_EQ(a.cells_scrubbed, b.cells_scrubbed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.errors_corrected, b.errors_corrected);
  EXPECT_EQ(a.stuck_repairs, b.stuck_repairs);
  EXPECT_EQ(a.cells_replaced, b.cells_replaced);
  EXPECT_EQ(a.time_to_failure_hours.count(), b.time_to_failure_hours.count());
  EXPECT_EQ(a.time_to_failure_hours.mean(), b.time_to_failure_hours.mean());
  EXPECT_EQ(a.time_to_failure_hours.min(), b.time_to_failure_hours.min());
  EXPECT_EQ(a.time_to_failure_hours.max(), b.time_to_failure_hours.max());
}

TEST(Scenario, ValidatesConfigurationBeforeConsumingRandomness) {
  rel::ScenarioConfig config;
  config.n = 60;
  config.m = 7;  // does not divide n
  util::Rng rng(1);
  const util::Rng::State before = rng.state();
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
  EXPECT_EQ(rng.state(), before);
  config.m = 15;
  config.trials = 0;
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
  config.trials = 1;
  config.faults.stuck_probability = 1.5;
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
}

TEST(Scenario, DrawsExactlyOneValueFromTheCallerRng) {
  rel::ScenarioConfig config;
  config.trials = 3;
  config.max_hours = 48.0;
  config.faults.fit_per_bit = 1e4;
  util::Rng rng(99), twin(99);
  (void)rel::run_scenario(config, rng);
  (void)twin.next();
  EXPECT_EQ(rng.state(), twin.state());
}

// At a zero fault rate the scenario engine and the lifetime engine must
// agree *exactly*: same scrub count (one per started window), zero
// failures, zero corrections -- the accounting cross-check that pins the
// policy's emission rule to the reference walker's.
TEST(Scenario, ZeroRateScrubAccountingMatchesLifetimeEngineExactly) {
  rel::ScenarioConfig sc;
  sc.trials = 7;
  sc.max_hours = 240.0;
  sc.policy.period_hours = 24.0;
  util::Rng rng_s(123);
  const rel::ScenarioResult scenario = rel::run_scenario(sc, rng_s);

  rel::LifetimeConfig lf;
  lf.crossbars = 1;
  lf.fit_per_bit = 0.0;
  lf.scrub_period_hours = 24.0;
  lf.trials = 7;
  lf.max_hours = 240.0;
  util::Rng rng_l(123);
  const rel::LifetimeResult lifetime = rel::simulate_lifetime(lf, rng_l);

  EXPECT_EQ(scenario.failures, 0u);
  EXPECT_EQ(lifetime.failures, 0u);
  EXPECT_EQ(scenario.scrub_events, lifetime.scrubs_performed);
  EXPECT_EQ(scenario.scrub_events, 7u * 10u);
  EXPECT_EQ(scenario.errors_corrected, 0u);
  EXPECT_EQ(scenario.faults_injected, 0u);
  // Full scrubs over a 60x60/m=15 array: 16 blocks of 225 data + 30 check
  // cells per event.
  EXPECT_EQ(scenario.blocks_scrubbed, scenario.scrub_events * 16u);
  EXPECT_EQ(scenario.cells_scrubbed, scenario.scrub_events * 16u * 255u);
  // Zero failures: the MTTF convention is total exposure.
  EXPECT_DOUBLE_EQ(scenario.empirical_mttf_hours(240.0), 240.0 * 7.0);
}

// With the iid mechanism alone and the periodic policy the scenario engine
// samples the same physical process as the lifetime engine (it places hits
// on distinct cells where the lifetime engine draws per-block counts, so
// the pin is statistical, not bit-exact).
TEST(Scenario, IidFailureRateMatchesLifetimeEngineStatistically) {
  constexpr std::size_t kTrials = 300;
  constexpr double kHorizon = 240.0;
  rel::ScenarioConfig sc;
  sc.trials = kTrials;
  sc.max_hours = kHorizon;
  sc.faults.fit_per_bit = 1.5e4;
  util::Rng rng_s(0xA5E11);
  const rel::ScenarioResult scenario = rel::run_scenario(sc, rng_s);

  rel::LifetimeConfig lf;
  lf.crossbars = 1;
  lf.fit_per_bit = 1.5e4;
  lf.trials = kTrials;
  lf.max_hours = kHorizon;
  util::Rng rng_l(0xB0B);
  const rel::LifetimeResult lifetime = rel::simulate_lifetime(lf, rng_l);

  ASSERT_GT(scenario.failures, 0u);
  ASSERT_GT(lifetime.failures, 0u);
  const double ps = static_cast<double>(scenario.failures) / kTrials;
  const double pl = static_cast<double>(lifetime.failures) / kTrials;
  const double sigma =
      std::sqrt((ps * (1.0 - ps) + pl * (1.0 - pl)) / kTrials);
  EXPECT_NEAR(ps, pl, 5.0 * sigma + 1e-9);
  const double mttf_ratio = scenario.empirical_mttf_hours(kHorizon) /
                            lifetime.empirical_mttf_hours(kHorizon);
  EXPECT_GT(mttf_ratio, 0.5);
  EXPECT_LT(mttf_ratio, 2.0);
}

// Stuck-at semantics end to end: cells that re-flip after every repair are
// strictly worse than cells replaced on first repair, and the repair
// accounting obeys the replacement threshold.
TEST(Scenario, StuckCellsDegradeLifetimeUntilReplaced) {
  rel::ScenarioConfig base;
  base.trials = 120;
  base.max_hours = 480.0;
  base.faults.fit_per_bit = 2e4;
  base.faults.stuck_probability = 1.0;  // every fault latches

  rel::ScenarioConfig sticky = base;
  sticky.faults.replace_after_repairs = 64;  // effectively never replaced
  util::Rng rng_a(31337);
  const rel::ScenarioResult never_replaced = rel::run_scenario(sticky, rng_a);

  rel::ScenarioConfig replace_fast = base;
  replace_fast.faults.replace_after_repairs = 1;  // spare on first repair
  util::Rng rng_b(31337);
  const rel::ScenarioResult replaced = rel::run_scenario(replace_fast, rng_b);

  EXPECT_GT(never_replaced.stuck_repairs, 0u);
  EXPECT_GT(never_replaced.failures, replaced.failures);
  // Replace-after-1 remaps on every stuck repair: the two counters agree
  // exactly, and the >= replace_after * replacements invariant is tight.
  EXPECT_EQ(replaced.stuck_repairs, replaced.cells_replaced);
  EXPECT_GT(replaced.cells_replaced, 0u);
  EXPECT_GE(never_replaced.stuck_repairs,
            never_replaced.cells_replaced * 64u);
}

// Tiny mixed-mechanism campaign under the smoke label: every CI invocation
// exercises disturbance + bursts + stuck-at + an adaptive policy end to
// end, and the campaign is a pure function of the seed.
TEST(ScenarioSmoke, MixedCampaignIsDeterministicPerSeed) {
  rel::ScenarioConfig config;
  config.trials = 12;
  config.max_hours = 120.0;
  ASSERT_TRUE(rel::apply_fault_preset("mixed", 1.5e4, config.faults));
  ASSERT_TRUE(rel::apply_policy_preset("hotrow", config.policy));
  util::Rng rng_a(7), rng_b(7), rng_c(8);
  const rel::ScenarioResult a = rel::run_scenario(config, rng_a);
  const rel::ScenarioResult b = rel::run_scenario(config, rng_b);
  expect_identical(a, b);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.scrub_events, 0u);
  // A different seed perturbs the campaign (overwhelmingly likely at this
  // fault rate).
  const rel::ScenarioResult c = rel::run_scenario(config, rng_c);
  EXPECT_NE(a.faults_injected, c.faults_injected);
}

// The substream-determinism contract: bit-identical results at any thread
// count.  Runs under the concurrency label (ThreadSanitizer target set).
TEST(ScenarioConcurrency, ResultsAreBitIdenticalAtAnyThreadCount) {
  rel::ScenarioConfig config;
  config.trials = 64;
  config.max_hours = 240.0;
  ASSERT_TRUE(rel::apply_fault_preset("mixed", 1.5e4, config.faults));
  ASSERT_TRUE(rel::apply_policy_preset("activation", config.policy));

  config.threads = 1;
  util::Rng rng_serial(42);
  const rel::ScenarioResult serial = rel::run_scenario(config, rng_serial);
  ASSERT_GT(serial.failures, 0u);

  config.threads = 3;
  util::Rng rng_three(42);
  expect_identical(serial, rel::run_scenario(config, rng_three));

  config.threads = 0;  // full shared-executor width
  util::Rng rng_wide(42);
  expect_identical(serial, rel::run_scenario(config, rng_wide));
}

// ------------------------------------------------- scenario engine golden pin

// Every ScenarioResult field of a fixed campaign, pinned so that any change
// to the engine's bookkeeping must reproduce its results bit for bit.  The
// values were produced by the engine before its dirty-block bookkeeping
// (which scanned every block at each scrub event); TTF statistics are exact
// hex-float literals.  The `disturb` and `mixed` rows were re-pinned when
// the sparse disturbance sampler replaced the per-row binomial one, which
// draws a different stream; rel::reference_run_scenario, the engine on the
// old sampler, still reproduces the old rows (test_disturbance_oracle).
struct GoldenScenario {
  std::size_t trials;
  std::size_t failures;
  std::uint64_t scrub_events;
  std::uint64_t blocks_scrubbed;
  std::uint64_t cells_scrubbed;
  std::uint64_t faults_injected;
  std::uint64_t errors_corrected;
  std::uint64_t stuck_repairs;
  std::uint64_t cells_replaced;
  std::size_t ttf_count;
  double ttf_mean;
  double ttf_min;
  double ttf_max;
};

void expect_golden(const rel::ScenarioResult& r, const GoldenScenario& g) {
  EXPECT_EQ(r.trials, g.trials);
  EXPECT_EQ(r.failures, g.failures);
  EXPECT_EQ(r.scrub_events, g.scrub_events);
  EXPECT_EQ(r.blocks_scrubbed, g.blocks_scrubbed);
  EXPECT_EQ(r.cells_scrubbed, g.cells_scrubbed);
  EXPECT_EQ(r.faults_injected, g.faults_injected);
  EXPECT_EQ(r.errors_corrected, g.errors_corrected);
  EXPECT_EQ(r.stuck_repairs, g.stuck_repairs);
  EXPECT_EQ(r.cells_replaced, g.cells_replaced);
  ASSERT_EQ(r.time_to_failure_hours.count(), g.ttf_count);
  if (g.ttf_count == 0) return;
  EXPECT_EQ(r.time_to_failure_hours.mean(), g.ttf_mean);
  EXPECT_EQ(r.time_to_failure_hours.min(), g.ttf_min);
  EXPECT_EQ(r.time_to_failure_hours.max(), g.ttf_max);
}

// Every fault preset x scrub policy, check bits on and off, at n=60 and a
// SER high enough that most campaigns see failures, stuck repairs and
// replacements.  Rows follow fault_preset_names() x
// scrub_policy_preset_names() x {check bits, none}.
TEST(ScenarioGolden, PresetPolicyGridAtN60) {
  static constexpr GoldenScenario kGolden[] = {
    {24, 12, 177, 2832, 722160, 284, 243, 0, 0, 12, 0x1.14p+7, 0x1.8p+5, 0x1.ep+7},  // iid periodic ck
    {24, 7, 196, 3136, 705600, 247, 230, 0, 0, 7, 0x1.c492492492492p+6, 0x1.8p+4, 0x1.ep+7},  // iid periodic nock
    {24, 7, 828, 5748, 1465740, 330, 307, 0, 0, 7, 0x1.09b6db6db6db7p+7, 0x1.2p+5, 0x1.bp+7},  // iid activation ck
    {24, 9, 762, 5280, 1188000, 269, 241, 0, 0, 9, 0x1.c8p+6, 0x1.8p+4, 0x1.c8p+7},  // iid activation nock
    {24, 9, 775, 3100, 790500, 310, 273, 0, 0, 9, 0x1.eaaaaaaaaaaabp+6, 0x1.2p+5, 0x1.8cp+7},  // iid region ck
    {24, 11, 700, 2800, 630000, 244, 201, 0, 0, 11, 0x1.a0ba2e8ba2e8bp+6, 0x1.8p+4, 0x1.bcp+7},  // iid region nock
    {24, 7, 828, 5748, 1465740, 330, 307, 0, 0, 7, 0x1.09b6db6db6db7p+7, 0x1.2p+5, 0x1.bp+7},  // iid hotrow ck
    {24, 9, 762, 5280, 1188000, 269, 241, 0, 0, 9, 0x1.c8p+6, 0x1.8p+4, 0x1.c8p+7},  // iid hotrow nock
    {24, 15, 148, 2368, 603840, 317, 259, 0, 0, 15, 0x1.d333333333333p+6, 0x1.8p+4, 0x1.ep+7},  // disturb periodic ck
    {24, 13, 167, 2672, 601200, 317, 273, 0, 0, 13, 0x1.0276276276276p+7, 0x1.8p+4, 0x1.ep+7},  // disturb periodic nock
    {24, 19, 600, 4092, 1043460, 336, 281, 0, 0, 19, 0x1.08a1af286bca2p+7, 0x1.2p+4, 0x1.ep+7},  // disturb activation ck
    {24, 12, 659, 4556, 1025100, 323, 290, 0, 0, 12, 0x1.7ep+6, 0x1.8p+3, 0x1.bp+7},  // disturb activation nock
    {24, 18, 533, 2132, 543660, 274, 213, 0, 0, 18, 0x1.9eaaaaaaaaaabp+6, 0x1.8p+4, 0x1.bcp+7},  // disturb region ck
    {24, 19, 462, 1848, 415800, 241, 177, 0, 0, 19, 0x1.62f286bca1af2p+6, 0x1.8p+3, 0x1.a4p+7},  // disturb region nock
    {24, 19, 600, 4092, 1043460, 336, 281, 0, 0, 19, 0x1.08a1af286bca2p+7, 0x1.2p+4, 0x1.ep+7},  // disturb hotrow ck
    {24, 12, 659, 4556, 1025100, 323, 290, 0, 0, 12, 0x1.7ep+6, 0x1.8p+3, 0x1.bp+7},  // disturb hotrow nock
    {24, 12, 173, 2768, 705840, 281, 238, 0, 0, 12, 0x1.04p+7, 0x1.8p+5, 0x1.8p+7},  // burst periodic ck
    {24, 12, 171, 2736, 615600, 226, 196, 0, 0, 12, 0x1.f8p+6, 0x1.8p+4, 0x1.ep+7},  // burst periodic nock
    {24, 8, 790, 5500, 1402500, 286, 265, 0, 0, 8, 0x1.dap+6, 0x1.5p+5, 0x1.bcp+7},  // burst activation ck
    {24, 7, 785, 5456, 1227600, 255, 234, 0, 0, 7, 0x1.8p+6, 0x1.8p+3, 0x1.bp+7},  // burst activation nock
    {24, 10, 721, 2884, 735420, 257, 224, 0, 0, 10, 0x1.9a66666666667p+6, 0x1.ep+4, 0x1.98p+7},  // burst region ck
    {24, 10, 715, 2860, 643500, 236, 201, 0, 0, 10, 0x1.8cp+6, 0x1.8p+3, 0x1.bcp+7},  // burst region nock
    {24, 8, 790, 5500, 1402500, 286, 265, 0, 0, 8, 0x1.dap+6, 0x1.5p+5, 0x1.bcp+7},  // burst hotrow ck
    {24, 7, 785, 5456, 1227600, 255, 234, 0, 0, 7, 0x1.8p+6, 0x1.8p+3, 0x1.bp+7},  // burst hotrow nock
    {24, 17, 131, 2096, 534480, 219, 131, 99, 25, 17, 0x1.b878787878788p+6, 0x1.8p+5, 0x1.bp+7},  // stuckat periodic ck
    {24, 13, 165, 2640, 594000, 230, 148, 127, 31, 13, 0x1.f627627627627p+6, 0x1.8p+4, 0x1.ep+7},  // stuckat periodic nock
    {24, 12, 716, 4952, 1262760, 286, 196, 168, 48, 12, 0x1.fp+6, 0x1.2p+4, 0x1.bcp+7},  // stuckat activation ck
    {24, 14, 662, 4544, 1022400, 226, 131, 155, 43, 14, 0x1.d924924924926p+6, 0x1.8p+4, 0x1.bcp+7},  // stuckat activation nock
    {24, 15, 665, 2660, 678300, 271, 173, 138, 37, 15, 0x1p+7, 0x1.2p+4, 0x1.bcp+7},  // stuckat region ck
    {24, 13, 695, 2780, 625500, 239, 137, 158, 45, 13, 0x1.eec4ec4ec4ec5p+6, 0x1.8p+4, 0x1.bcp+7},  // stuckat region nock
    {24, 12, 716, 4952, 1262760, 286, 196, 168, 48, 12, 0x1.fp+6, 0x1.2p+4, 0x1.bcp+7},  // stuckat hotrow ck
    {24, 14, 662, 4544, 1022400, 226, 131, 155, 43, 14, 0x1.d924924924926p+6, 0x1.8p+4, 0x1.bcp+7},  // stuckat hotrow nock
    {24, 15, 142, 2272, 579360, 280, 200, 44, 10, 15, 0x1.acccccccccccbp+6, 0x1.8p+4, 0x1.ep+7},  // mixed periodic ck
    {24, 14, 143, 2288, 514800, 272, 194, 52, 12, 14, 0x1.86db6db6db6dbp+6, 0x1.8p+4, 0x1.ep+7},  // mixed periodic nock
    {24, 13, 687, 4764, 1214820, 313, 250, 77, 21, 13, 0x1.e000000000001p+6, 0x1.5p+5, 0x1.bcp+7},  // mixed activation ck
    {24, 15, 590, 4040, 909000, 251, 190, 42, 13, 15, 0x1.88p+6, 0x1.2p+4, 0x1.98p+7},  // mixed activation nock
    {24, 18, 522, 2088, 532440, 250, 182, 41, 8, 18, 0x1.9p+6, 0x1.ep+4, 0x1.68p+7},  // mixed region ck
    {24, 15, 592, 2368, 532800, 253, 183, 43, 9, 15, 0x1.8b33333333333p+6, 0x1.2p+4, 0x1.ep+7},  // mixed region nock
    {24, 13, 687, 4764, 1214820, 313, 250, 77, 21, 13, 0x1.e000000000001p+6, 0x1.5p+5, 0x1.bcp+7},  // mixed hotrow ck
    {24, 15, 590, 4040, 909000, 251, 190, 42, 13, 15, 0x1.88p+6, 0x1.2p+4, 0x1.98p+7},  // mixed hotrow nock
  };
  std::size_t row = 0;
  for (const std::string_view preset : rel::fault_preset_names()) {
    for (const std::string_view policy : rel::scrub_policy_preset_names()) {
      for (const bool check_bits : {true, false}) {
        SCOPED_TRACE(std::string(preset) + " " + std::string(policy) +
                     (check_bits ? " check bits" : " data only"));
        rel::ScenarioConfig config;
        config.n = 60;
        config.m = 15;
        config.trials = 24;
        config.max_hours = 240.0;
        config.include_check_bits = check_bits;
        ASSERT_TRUE(rel::apply_fault_preset(preset, 1.5e4, config.faults));
        ASSERT_TRUE(rel::apply_policy_preset(policy, config.policy));
        util::Rng rng(20211205);
        ASSERT_LT(row, std::size(kGolden));
        expect_golden(rel::run_scenario(config, rng), kGolden[row++]);
      }
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

// The shape `pimecc serve` runs for a default `scenario` request (n=1020,
// m=15, periodic 24 h scrub, 240 h horizon) with trials=16, for each preset
// at the served default SER and at one high enough to fail most trials.
TEST(ScenarioGolden, ServedShape) {
  static constexpr GoldenScenario kGolden[] = {
    {16, 0, 160, 739840, 188659200, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0},  // iid fit=0.001000
    {16, 16, 0, 0, 0, 2788, 0, 0, 0, 16, 0x1.8p+4, 0x1.8p+4, 0x1.8p+4},  // disturb fit=0.001000
    {16, 1, 158, 730592, 186300960, 12, 0, 0, 0, 1, 0x1.bp+7, 0x1.bp+7, 0x1.bp+7},  // burst fit=0.001000
    {16, 0, 160, 739840, 188659200, 0, 0, 0, 0, 0, 0x0p+0, 0x0p+0, 0x0p+0},  // stuckat fit=0.001000
    {16, 16, 2, 9248, 2358240, 1541, 169, 0, 0, 16, 0x1.bp+4, 0x1.8p+4, 0x1.8p+5},  // mixed fit=0.001000
    {16, 16, 25, 115600, 29478000, 2308, 1402, 0, 0, 16, 0x1.ecp+5, 0x1.8p+4, 0x1.ep+7},  // iid fit=2000.000000
    {16, 16, 0, 0, 0, 3678, 0, 0, 0, 16, 0x1.8p+4, 0x1.8p+4, 0x1.8p+4},  // disturb fit=2000.000000
    {16, 15, 24, 110976, 28298880, 2208, 1341, 0, 0, 15, 0x1.7333333333333p+5, 0x1.8p+4, 0x1.8p+6},  // burst fit=2000.000000
    {16, 16, 24, 110976, 28298880, 2197, 949, 605, 87, 16, 0x1.ep+5, 0x1.8p+4, 0x1.ep+6},  // stuckat fit=2000.000000
    {16, 16, 2, 9248, 2358240, 2563, 271, 11, 0, 16, 0x1.bp+4, 0x1.8p+4, 0x1.8p+5},  // mixed fit=2000.000000
  };
  std::size_t row = 0;
  for (const double fit : {1e-3, 2e3}) {
    for (const std::string_view preset : rel::fault_preset_names()) {
      SCOPED_TRACE(std::string(preset) + " fit=" + std::to_string(fit));
      rel::ScenarioConfig config;
      config.n = 1020;
      config.m = 15;
      config.trials = 16;
      config.max_hours = 240.0;
      ASSERT_TRUE(rel::apply_fault_preset(preset, fit, config.faults));
      ASSERT_TRUE(rel::apply_policy_preset("periodic", config.policy));
      util::Rng rng(7);
      ASSERT_LT(row, std::size(kGolden));
      expect_golden(rel::run_scenario(config, rng), kGolden[row++]);
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

// ------------------------------------------------ dirty-block edge cases
//
// Fault rates high enough that every hazard is exactly 1 make these
// campaigns deterministic, so the expected counters follow by hand.

// One 2x2 block, data only.  Each window the iid mechanism flips all four
// cells (the block passes 2 diffs) and the disturbance mechanism, acting
// on both rows, flips all four back.  The block ends every window clean,
// so no trial may fail and no scrub corrects anything.
TEST(ScenarioDirtyList, FaultReflippedWithinAWindowLeavesNoFailure) {
  rel::ScenarioConfig config;
  config.n = 2;
  config.m = 2;
  config.trials = 3;
  config.max_hours = 240.0;
  config.include_check_bits = false;
  config.faults.fit_per_bit = 1e15;
  config.faults.disturb_per_activation = 1.0;
  util::Rng rng(5);
  const rel::ScenarioResult r = rel::run_scenario(config, rng);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.scrub_events, 3u * 10u);
  EXPECT_EQ(r.faults_injected, 3u * 10u * 8u);
  EXPECT_EQ(r.errors_corrected, 0u);
}

// Four one-cell blocks, data only.  Every cell faults and latches in the
// first window; each full scrub repairs it, the cell re-asserts and stays
// listed, until its third repair remaps it to a spare -- which latches
// again in the next window.  Over 10 windows: 10 repairs and 3
// replacements per cell.
TEST(ScenarioDirtyList, StuckCellSurvivesScrubsUntilReplaced) {
  rel::ScenarioConfig config;
  config.n = 2;
  config.m = 1;
  config.trials = 3;
  config.max_hours = 240.0;
  config.include_check_bits = false;
  config.faults.fit_per_bit = 1e15;
  config.faults.stuck_probability = 1.0;
  config.faults.replace_after_repairs = 3;
  util::Rng rng(5);
  const rel::ScenarioResult r = rel::run_scenario(config, rng);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.scrub_events, 3u * 10u);
  EXPECT_EQ(r.faults_injected, 3u * 10u * 4u);
  EXPECT_EQ(r.errors_corrected, 0u);
  EXPECT_EQ(r.stuck_repairs, 3u * 10u * 4u);
  EXPECT_EQ(r.cells_replaced, 3u * 3u * 4u);
}

// Trial 0 of this campaign fails at the first event, before any scrub,
// with faults still outstanding; trial 1 then runs on the same lane through
// 8 scrubs and fails at 216 h.  Any state leaking across the trial reset
// would change trial 1.  The expected counters agree with an engine that
// clears every block between trials.
TEST(ScenarioDirtyList, TrialAfterAFailedTrialStartsClean) {
  rel::ScenarioConfig config;
  config.n = 60;
  config.m = 15;
  config.max_hours = 240.0;
  config.threads = 1;
  ASSERT_TRUE(rel::apply_fault_preset("mixed", 1.5e4, config.faults));

  config.trials = 1;
  util::Rng rng_first(30);
  expect_golden(rel::run_scenario(config, rng_first),
                {1, 1, 0, 0, 0, 5, 0, 0, 0, 1, 24.0, 24.0, 24.0});

  config.trials = 2;
  util::Rng rng_both(30);
  expect_golden(rel::run_scenario(config, rng_both),
                {2, 2, 8, 128, 32640, 19, 9, 1, 0, 2, 120.0, 24.0, 216.0});
}

}  // namespace
}  // namespace pimecc
