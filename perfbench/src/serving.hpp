// pimecc benchmark -- helpers shared by the serving workloads: pushing
// request lines through a Server's queue the way the daemon does, the
// traced step-by-step replica of a request, the Table I model check, and
// the layer probes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace serve = pimecc::serve;

/// Parses `lines`, submits them all, drains the queue and takes every
/// response in order -- the daemon's path for a burst of requests.  A line
/// that does not parse is a correctness failure.
std::vector<serve::Response> serve_lines(serve::Server& server,
                                         const std::vector<std::string>& lines,
                                         Outcome& outcome);

/// Parses one request line; a line that does not parse is a correctness
/// failure (the workloads generate only valid lines).
serve::Request parse_line(const std::string& line, Outcome& outcome);

/// Simulated counts of the replayed `run` requests, from
/// PimMachine::counters() around run_program_protected.
struct RunCounts {
  std::uint64_t runs = 0;
  std::uint64_t critical_ops = 0;
  std::uint64_t mem_cycles = 0;
  std::uint64_t cmem_cycles = 0;
};

/// Traced replica of the serve handler.  `run` and `map` requests are
/// replayed step by step through the public functions the handler calls,
/// with a span around each step; the other kinds are timed around
/// Server::execute.  Every replica ends in format_response, so its line can
/// be compared with the served one.
class Replayer {
 public:
  Replayer(serve::Server& server, Tracer& tracer)
      : server_(server), tracer_(tracer) {}

  /// Replays one request line; returns the formatted response.
  std::string replay(const std::string& line, std::uint64_t request);

  /// Replays `lines` in whole groups of `group`, each group across `lanes`
  /// executor lanes, and checks each replica's line against `served`.
  /// Stops after the first group that ends past `budget_s`, or when fewer
  /// than `group` lines are left.
  struct Replayed {
    std::size_t count = 0;
    double service_seconds = 0.0;  ///< summed host time of the replicas
  };
  Replayed replay_all(const std::vector<std::string>& lines,
                         const std::vector<std::string>& served,
                         std::size_t group, std::size_t lanes,
                         double budget_s, Outcome& outcome);

  [[nodiscard]] RunCounts run_counts() const;

 private:
  serve::Response replay_run(const serve::Request& request, Tracer::Id root,
                             std::uint64_t id);
  serve::Response replay_map(const serve::Request& request, Tracer::Id root,
                             std::uint64_t id);

  serve::Server& server_;
  Tracer& tracer_;
  mutable std::mutex counts_mutex_;
  RunCounts counts_;  // guarded by counts_mutex_
};

/// One row of the paper's Table I next to this model's values, as
/// bench_table1_latency prints them (n=1020, m=15, inputs+outputs).
struct Table1Row {
  const char* circuit;
  std::uint64_t baseline_cycles;
  std::uint64_t proposed_cycles;
  std::size_t min_pcs;
  double paper_overhead_pct;
  std::size_t paper_pcs;
};
inline constexpr double kPaperGeomeanOverheadPct = 26.23;
[[nodiscard]] const std::array<Table1Row, 11>& table1_rows();

/// Serves the Table I map requests (minpcs=1, then pcs=<min>) through the
/// server's queue, checks every cycle count and PC count against
/// table1_rows(), notes each circuit's model error against the paper, and
/// returns the geometric-mean ECC latency overhead in percent.  With a
/// replayer the requests are also replayed (traced runs).
double serve_table1(serve::Server& server, Replayer* replayer,
                    Outcome& outcome);

/// Queue-level accounting of one serving loop (submit / drain_once /
/// take), kept in traced and untraced runs alike.
struct LoopStats {
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  double drain_seconds = 0.0;   ///< summed drain_once wall time
  Replayer::Replayed replayed;  ///< traced runs: the loop's replicas
};

/// What one closed serving loop did.
struct ClosedLoop {
  std::vector<std::string> lines;   ///< every request line, in order
  std::vector<std::string> served;  ///< the formatted answer to each
  std::vector<Sample> samples;      ///< measured phase only
  double measured_from_s = 0.0;     ///< start of the measured phase on the loop clock
  HostGauge gauge;                  ///< passes timed in the measured phase
  LoopStats stats;
};

/// Checks one answer: (request line, response, formatted response).
using AnswerCheck = std::function<void(
    const std::string&, const serve::Response&, const std::string&)>;

/// A serving workload's set-up, repeated kSetupRepetitions times: server
/// construction, a cold pass over `cold` that fills the registry's caches,
/// and the (n, m) machine pool grown to config.lanes.  Returns the last
/// server; `setups` receives each set-up's seconds.  `check` sees every
/// cold answer, outside the timing.
std::unique_ptr<serve::Server> set_up_server(
    const serve::ServerConfig& config, const std::vector<std::string>& cold,
    std::size_t n, std::size_t m, const AnswerCheck& check,
    std::vector<double>& setups, Outcome& outcome);

/// The daemon's loop as a closed loop with `outstanding` requests: parse
/// and submit that many lines from `next_line`, drain_once, then take,
/// format and check every answer; again until the warm-up and `seconds`
/// have passed.  The measured phase starts at the first batch after the
/// warm-up whose first line is a multiple of `group` (a multiple of
/// `outstanding`), so it holds whole groups of the stream.  In the measured
/// phase the host gauge ticks after every batch; the loop's clock leaves
/// its passes out.  A request's latency runs from its parse to its
/// formatted answer.  Each step is a span in traced runs.
ClosedLoop run_closed_loop(serve::Server& server, std::size_t outstanding,
                           std::size_t group, double seconds,
                           const std::function<std::string()>& next_line,
                           const AnswerCheck& check, Tracer& tracer,
                           Outcome& outcome);

/// Per-layer metrics of a traced serving run, from its spans, the
/// replayer's counts, the registry's statistics and the layer probes.
void add_serving_layers(const Tracer& tracer, serve::Server& server,
                        const Replayer& replayer, const LoopStats& loop,
                        std::size_t lanes, Outcome& outcome);

/// Per-layer metrics every traced run reports: the Table I map replicas'
/// scheduling spans and the executor probe.
void add_common_layers(const Tracer& tracer, std::size_t lanes,
                       Outcome& outcome);

/// Mean host time of an empty-body util::parallel_for over `lanes`
/// indices at `lanes` lanes, in microseconds (median of repetitions).
[[nodiscard]] double parallel_for_probe_us(std::size_t lanes);

/// One row-parallel MAGIC init+NOR at n=1020, on a bare xbar::Crossbar and
/// through PimMachine's protected operations, in host ns per gate.
struct GateProbe {
  double xbar_ns = 0.0;
  double protected_ns = 0.0;
};
[[nodiscard]] GateProbe row_gate_probe();

}  // namespace perfbench
