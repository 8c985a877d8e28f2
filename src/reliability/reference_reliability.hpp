// pimecc -- reliability/reference_reliability.hpp
//
// Golden reliability engines retained from the dense era (the PR 2-4
// convention: every fast engine keeps its predecessor for differential
// pinning).
//
// reference_run_montecarlo: per trial, full golden copies of the data
// matrix and the whole ArrayCode check state, a whole-array scrub, and a
// row-XOR failed-block scan -- O(n^2) per trial regardless of how few
// flips were injected.  Same seeding contract as run_montecarlo (one base
// seed drawn from the caller, golden image from substream 0, trial t from
// substream t+1), so the sparse engine must reproduce its counters exactly
// on every substream -- with one documented exception: `miscorrected` here
// keeps the historical approximation (every failed block of a trial that
// reported >= 1 data correction), while the sparse engine is exact (a
// block is miscorrected iff its own scrub reported a data correction and
// its residual is nonzero).  The exact set is a subset of the approximated
// one, so run_montecarlo(...).miscorrected <= the reference's, always.
//
// reference_simulate_lifetime: the windowed walker, drawing one binomial
// per scrub window (empty or not) from the caller's stream,
// single-threaded.  The skip-ahead engine samples the same process but
// resamples the stream (geometric window gaps + conditioned hit counts),
// so the pinning here is equivalence in distribution -- matched failure
// counts within statistical bands and analytic-model agreement -- gated by
// tests/test_reliability_engine.cpp and bench_reliability_throughput, not
// bit equality.
//
// reference_run_scenario: the scenario engine on the per-row binomial
// disturbance sampler (fault::ReferenceDisturbanceModel), rebuilding each
// window's activation vector from the workload's rates -- the engine as it
// ran before the sparse sampler, so it reproduces that engine's results
// bit for bit.  The sparse sampler draws a different stream, so run_scenario
// is pinned to it in distribution (tests/test_disturbance_oracle.cpp).
#pragma once

#include "reliability/lifetime.hpp"
#include "reliability/montecarlo.hpp"
#include "reliability/scenario.hpp"
#include "util/rng.hpp"

namespace pimecc::rel {

/// The dense full-scrub Monte Carlo engine (threaded, same determinism
/// contract as run_montecarlo).
[[nodiscard]] MonteCarloResult reference_run_montecarlo(
    const MonteCarloConfig& config, util::Rng& rng);

/// The window-by-window lifetime walker (single-threaded, consumes the
/// caller's stream directly; `config.threads` is ignored).
[[nodiscard]] LifetimeResult reference_simulate_lifetime(
    const LifetimeConfig& config, util::Rng& rng);

/// run_scenario with the per-row binomial disturbance sampler (same
/// validation and determinism contract).
[[nodiscard]] ScenarioResult reference_run_scenario(
    const ScenarioConfig& config, util::Rng& rng);

}  // namespace pimecc::rel
