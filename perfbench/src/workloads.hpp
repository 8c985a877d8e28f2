// pimecc benchmark -- the three workloads.  Each builds its inputs from
// the seed, sets up, measures for the requested seconds, checks every
// output, and fills the end-to-end metrics (and, when traced, the
// per-layer metrics) of its Outcome.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Closed loop of Table I `run` requests at n=1020, m=15.
Outcome run_table1(const Options& options, Tracer& tracer);
/// Closed loop of full admission batches of a map/mttf/sweep/run/scenario mix.
Outcome mixed_batch(const Options& options, Tracer& tracer);
/// Repeated health-aware Monte Carlo campaigns over a crossbar fleet.
Outcome fleet_campaign(const Options& options, Tracer& tracer);

}  // namespace perfbench
