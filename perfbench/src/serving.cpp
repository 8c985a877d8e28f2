#include "serving.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <optional>
#include <string_view>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "bench_circuits/circuits.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/protected_vm.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "xbar/crossbar.hpp"

namespace perfbench {

using namespace pimecc;

serve::Request parse_line(const std::string& line, Outcome& outcome) {
  serve::Request request;
  std::string error;
  outcome.check(serve::parse_request(line, request, error),
                "request line '" + line + "' does not parse: " + error);
  return request;
}

std::vector<serve::Response> serve_lines(serve::Server& server,
                                         const std::vector<std::string>& lines,
                                         Outcome& outcome) {
  std::vector<std::uint64_t> tickets;
  tickets.reserve(lines.size());
  for (const std::string& line : lines) {
    tickets.push_back(server.submit(parse_line(line, outcome)));
  }
  server.drain();
  std::vector<serve::Response> responses;
  responses.reserve(tickets.size());
  for (const std::uint64_t ticket : tickets) {
    responses.push_back(server.take(ticket));
  }
  return responses;
}

std::unique_ptr<serve::Server> set_up_server(
    const serve::ServerConfig& config, const std::vector<std::string>& cold,
    std::size_t n, std::size_t m, const AnswerCheck& check,
    std::vector<double>& setups, Outcome& outcome) {
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<serve::Server>(config);
    const std::vector<serve::Response> warm =
        serve_lines(*server, cold, outcome);
    std::vector<serve::Registry::MachineLease> pool;
    for (std::size_t lane = 0; lane < config.lanes; ++lane) {
      pool.push_back(server->registry().acquire_machine(n, m));
    }
    pool.clear();
    setups.push_back(seconds_between(start, Clock::now()));
    for (std::size_t i = 0; i < warm.size(); ++i) {
      check(cold[i], warm[i], serve::format_response(warm[i]));
    }
  }
  return server;
}

ClosedLoop run_closed_loop(serve::Server& server, std::size_t outstanding,
                           std::size_t group, double seconds,
                           const std::function<std::string()>& next_line,
                           const AnswerCheck& check, Tracer& tracer,
                           Outcome& outcome) {
  ClosedLoop loop;
  HostGauge& gauge = loop.gauge;
  const double warmup = warmup_seconds(seconds);
  bool measuring = false;
  struct Inflight {
    std::size_t index;
    std::uint64_t ticket;
    Clock::time_point created;
  };
  std::vector<Inflight> inflight;
  // The loop's clock leaves out the gauge's passes.
  Clock::time_point start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(start, Clock::now());
    if (!measuring && elapsed >= warmup && loop.lines.size() % group == 0) {
      measuring = true;
      loop.measured_from_s = elapsed;
    }
    if (measuring && elapsed >= loop.measured_from_s + seconds) break;
    inflight.clear();
    for (std::size_t k = 0; k < outstanding; ++k) {
      const std::size_t index = loop.lines.size();
      const Clock::time_point created = Clock::now();
      loop.lines.push_back(next_line());
      serve::Request request;
      {
        const Tracer::Scope span(tracer, "serve.parse", Tracer::kNone, index);
        request = parse_line(loop.lines.back(), outcome);
      }
      const Tracer::Scope span(tracer, "serve.submit", Tracer::kNone, index);
      inflight.push_back({index, server.submit(std::move(request)), created});
    }
    const Clock::time_point drain_start = Clock::now();
    {
      const Tracer::Scope span(tracer, "serve.drain_once", Tracer::kNone,
                               loop.stats.batches);
      server.drain_once();
    }
    loop.stats.drain_seconds += seconds_between(drain_start, Clock::now());
    ++loop.stats.batches;
    for (const Inflight& request : inflight) {
      serve::Response response;
      {
        const Tracer::Scope span(tracer, "serve.take", Tracer::kNone,
                                 request.index);
        response = server.take(request.ticket);
      }
      {
        const Tracer::Scope span(tracer, "serve.format", Tracer::kNone,
                                 request.index);
        loop.served.push_back(serve::format_response(response));
      }
      const Clock::time_point done = Clock::now();
      if (measuring) {
        loop.samples.push_back({seconds_between(start, done),
                                ms_between(request.created, done), 1.0,
                                response.ok});
      }
      ++outcome.attempted;
      ++loop.stats.completed;
      if (!response.ok) ++outcome.failed;
      check(loop.lines[request.index], response, loop.served.back());
    }
    if (measuring) {
      start += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              gauge.tick(seconds_between(start, Clock::now()))));
    }
  }
  return loop;
}

// ------------------------------------------------------------------ replica

namespace {

const char* service_span_name(std::string_view line) {
  const std::string_view kind = line.substr(0, line.find(' '));
  if (kind == "run") return "serve.service.run";
  if (kind == "map") return "serve.service.map";
  if (kind == "mttf") return "serve.service.mttf";
  if (kind == "sweep") return "serve.service.sweep";
  if (kind == "scenario") return "serve.service.scenario";
  return "serve.service.other";
}

}  // namespace

std::string Replayer::replay(const std::string& line, std::uint64_t id) {
  const Tracer::Scope root(tracer_, service_span_name(line), Tracer::kNone, id);
  serve::Request request;
  std::string error;
  bool parsed = false;
  {
    const Tracer::Scope span(tracer_, "serve.parse", root.id(), id);
    parsed = serve::parse_request(line, request, error);
  }
  if (!parsed) return "replica could not parse: " + error;
  serve::Response response;
  try {
    switch (request.kind) {
      case serve::RequestKind::kRun:
        response = replay_run(request, root.id(), id);
        break;
      case serve::RequestKind::kMap:
        response = replay_map(request, root.id(), id);
        break;
      default: {
        const Tracer::Scope span(tracer_, "serve.execute", root.id(), id);
        response = server_.execute(request);
      }
    }
  } catch (const std::exception& e) {
    return std::string("replica threw: ") + e.what();
  }
  const Tracer::Scope span(tracer_, "serve.format", root.id(), id);
  return serve::format_response(response);
}

serve::Response Replayer::replay_run(const serve::Request& request,
                                     Tracer::Id root, std::uint64_t id) {
  serve::Registry& registry = server_.registry();
  std::shared_ptr<const circuits::CircuitSpec> spec;
  std::shared_ptr<const simpler::MappedProgram> program;
  std::optional<serve::Registry::MachineLease> lease;
  {
    const Tracer::Scope span(tracer_, "serve.registry", root, id);
    spec = registry.circuit(request.circuit);
    program = registry.program(request.circuit, request.n);
    lease.emplace(registry.acquire_machine(request.n, request.m));
  }
  arch::PimMachine& machine = lease->machine();
  util::BitMatrix inputs;
  {
    const Tracer::Scope span(tracer_, "arch.load", root, id);
    util::Rng rng(request.seed);
    machine.load(util::random_bit_matrix(machine.n(), machine.n(), rng));
    inputs = util::random_bit_matrix(machine.n(), spec->netlist.num_inputs(),
                                     rng);
  }
  const arch::MachineCounters before = machine.counters();
  simpler::ProtectedRunResult run;
  {
    const Tracer::Scope span(tracer_, "simpler.protected_run", root, id);
    run = simpler::run_program_protected(machine, spec->netlist, *program,
                                         inputs);
  }
  const arch::MachineCounters after = machine.counters();

  serve::Response response;
  response.kind = request.kind;
  response.lanes = machine.n();
  response.corrections = run.input_check_corrections;
  response.ecc_consistent = run.ecc_consistent_after;
  {
    const Tracer::Scope span(tracer_, "bench_circuits.verify", root, id);
    for (std::size_t r = 0; r < machine.n(); ++r) {
      if (!(spec->reference(inputs.row(r)) == run.outputs.row(r))) {
        ++response.mismatches;
      }
    }
  }
  {
    const Tracer::Scope span(tracer_, "serve.registry", root, id);
    lease.reset();
  }
  response.ok = true;

  std::lock_guard lock(counts_mutex_);
  ++counts_.runs;
  counts_.critical_ops += after.critical_ops - before.critical_ops;
  counts_.mem_cycles += after.mem_cycles - before.mem_cycles;
  counts_.cmem_cycles += after.cmem_cycles - before.cmem_cycles;
  return response;
}

serve::Response Replayer::replay_map(const serve::Request& request,
                                     Tracer::Id root, std::uint64_t id) {
  arch::ArchParams params;
  params.n = request.n;
  params.m = request.m;
  params.num_pcs = request.pcs;
  params.validate();
  std::shared_ptr<const simpler::MappedProgram> program;
  {
    const Tracer::Scope span(tracer_, "serve.registry", root, id);
    program = server_.registry().program(request.circuit, request.row_width);
  }
  serve::Response response;
  response.kind = request.kind;
  {
    const Tracer::Scope span(tracer_, "simpler.schedule", root, id);
    const simpler::EccScheduleResult sched =
        simpler::schedule_with_ecc(*program, params, request.coverage);
    response.baseline_cycles = sched.baseline_cycles;
    response.proposed_cycles = sched.proposed_cycles;
    response.stall_cycles = sched.stall_cycles;
    response.overhead = sched.overhead_fraction();
  }
  if (request.min_pcs) {
    const Tracer::Scope span(tracer_, "simpler.find_min_pcs", root, id);
    response.min_pcs =
        simpler::find_min_pcs(*program, params, request.coverage);
  }
  response.ok = true;
  return response;
}

Replayer::Replayed Replayer::replay_all(
    const std::vector<std::string>& lines,
    const std::vector<std::string>& served, std::size_t group,
    std::size_t lanes, double budget_s, Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  Replayed replayed;
  std::vector<std::string> replicas;
  std::vector<double> seconds;
  // Whole groups only, so a trailing partial deck never enters the counts.
  while (lines.size() - replayed.count >= group &&
         (replayed.count == 0 ||
          seconds_between(start, Clock::now()) < budget_s)) {
    const std::size_t first = replayed.count;
    const std::size_t count = group;
    replicas.assign(count, std::string());
    seconds.assign(count, 0.0);
    util::parallel_for(util::Executor::shared(), count, lanes,
                       [&](std::size_t i) {
                         const Clock::time_point begin = Clock::now();
                         replicas[i] = replay(lines[first + i], first + i);
                         seconds[i] = seconds_between(begin, Clock::now());
                       });
    for (std::size_t i = 0; i < count; ++i) {
      outcome.check(replicas[i] == served[first + i],
                    "replica of '" + lines[first + i] + "' gave '" +
                        replicas[i] + "', the server gave '" +
                        served[first + i] + "'");
      replayed.service_seconds += seconds[i];
    }
    replayed.count += count;
  }
  return replayed;
}

RunCounts Replayer::run_counts() const {
  std::lock_guard lock(counts_mutex_);
  return counts_;
}

// ---------------------------------------------------------- layer metrics

void add_common_layers(const Tracer& tracer, std::size_t lanes,
                       Outcome& outcome) {
  auto& layer = outcome.per_layer;
  layer["serve.service_us.map"] = tracer.totals("serve.service.map").mean_us();
  layer["simpler.schedule_us"] = tracer.totals("simpler.schedule").mean_us();
  layer["simpler.find_min_pcs_us"] =
      tracer.totals("simpler.find_min_pcs").mean_us();
  layer["util.parallel_for_us"] = parallel_for_probe_us(lanes);
}

void add_serving_layers(const Tracer& tracer, serve::Server& server,
                        const Replayer& replayer, const LoopStats& loop,
                        std::size_t lanes, Outcome& outcome) {
  auto& layer = outcome.per_layer;
  layer["serve.parse_us"] = tracer.totals("serve.parse").mean_us();
  layer["serve.format_us"] = tracer.totals("serve.format").mean_us();
  layer["serve.submit_us"] = tracer.totals("serve.submit").mean_us();
  layer["serve.take_us"] = tracer.totals("serve.take").mean_us();
  layer["serve.registry_us"] = tracer.totals("serve.registry").mean_us();
  layer["serve.drain_once_ms"] =
      tracer.totals("serve.drain_once").mean_us() * 1e-3;
  for (const char* kind : {"mttf", "sweep", "run", "scenario"}) {
    layer[std::string("serve.service_us.") + kind] =
        tracer.totals(std::string("serve.service.") + kind).mean_us();
  }
  if (loop.replayed.count != 0 && loop.drain_seconds > 0.0) {
    const double mean_service_s = loop.replayed.service_seconds /
                                  static_cast<double>(loop.replayed.count);
    layer["serve.lane_busy_frac"] =
        mean_service_s * static_cast<double>(loop.completed) /
        (static_cast<double>(lanes) * loop.drain_seconds);
  }

  const serve::RegistryStats stats = server.registry().stats();
  const auto hits = static_cast<double>(stats.circuit_hits +
                                        stats.program_hits +
                                        stats.machine_reuses);
  const auto misses = static_cast<double>(stats.circuit_misses +
                                          stats.program_misses +
                                          stats.machine_builds);
  layer["serve.registry_hit_ratio"] = hits / std::max(hits + misses, 1.0);

  const Tracer::Totals protected_run = tracer.totals("simpler.protected_run");
  layer["simpler.protected_run_ms"] = protected_run.mean_us() * 1e-3;
  layer["arch.load_us"] = tracer.totals("arch.load").mean_us();
  layer["bench_circuits.verify_ms"] =
      tracer.totals("bench_circuits.verify").mean_us() * 1e-3;
  const RunCounts counts = replayer.run_counts();
  if (counts.runs != 0) {
    const auto runs = static_cast<double>(counts.runs);
    layer["arch.critical_ops"] = static_cast<double>(counts.critical_ops) / runs;
    layer["arch.mem_cycles"] = static_cast<double>(counts.mem_cycles) / runs;
    layer["arch.cmem_cycles"] = static_cast<double>(counts.cmem_cycles) / runs;
    layer["arch.host_ns_per_critical_op"] =
        protected_run.seconds * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(counts.critical_ops, 1));
  }
  const GateProbe gate = row_gate_probe();
  layer["xbar.row_gate_ns"] = gate.xbar_ns;
  layer["arch.protected_row_gate_ns"] = gate.protected_ns;
  layer["arch.ecc_share"] = 1.0 - gate.xbar_ns / gate.protected_ns;
}

// ------------------------------------------------------------------ Table I

const std::array<Table1Row, 11>& table1_rows() {
  // Model columns as printed by bench/bench_table1_latency; paper columns
  // from the DAC 2021 paper's Table I.
  static const std::array<Table1Row, 11> kRows = {{
      {"adder", 1539, 2057, 6, 34.0, 3},
      {"arbiter", 12582, 12731, 2, 4.05, 2},
      {"bar", 2699, 3112, 6, 11.3, 4},
      {"cavlc", 595, 641, 2, 4.5, 3},
      {"ctrl", 170, 246, 6, 50.0, 5},
      {"dec", 329, 886, 8, 205.8, 8},
      {"int2float", 298, 334, 4, 9.83, 3},
      {"max", 3094, 3890, 8, 21.5, 4},
      {"priority", 803, 843, 4, 20.0, 3},
      {"sin", 8911, 8985, 4, 0.96, 3},
      {"voter", 12274, 13301, 3, 7.81, 2},
  }};
  return kRows;
}

double serve_table1(serve::Server& server, Replayer* replayer,
                    Outcome& outcome) {
  const auto& rows = table1_rows();
  const std::string point = " width=1020 n=1020 m=15 coverage=both";
  std::vector<std::string> search;
  for (const Table1Row& row : rows) {
    search.push_back("map circuit=" + std::string(row.circuit) + point +
                     " minpcs=1");
  }
  const std::vector<serve::Response> found =
      serve_lines(server, search, outcome);
  std::vector<std::string> at_min;
  for (const serve::Response& response : found) {
    at_min.push_back("map circuit=" + std::string(rows[at_min.size()].circuit) +
                     point + " pcs=" + std::to_string(response.min_pcs));
  }
  const std::vector<serve::Response> scheduled =
      serve_lines(server, at_min, outcome);

  std::vector<double> ratios;
  std::vector<double> pcs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Table1Row& row = rows[i];
    const serve::Response& response = scheduled[i];
    outcome.check(found[i].ok && response.ok &&
                      found[i].min_pcs == row.min_pcs &&
                      response.baseline_cycles == row.baseline_cycles &&
                      response.proposed_cycles == row.proposed_cycles,
                  "Table I mismatch for " + std::string(row.circuit) + ": '" +
                      serve::format_response(found[i]) + "' / '" +
                      serve::format_response(response) + "'");
    const double overhead_pct = response.overhead * 100.0;
    ratios.push_back(1.0 + response.overhead);
    pcs.push_back(static_cast<double>(found[i].min_pcs));
    outcome.note("table1 circuit=" + std::string(row.circuit) +
                 " model_overhead_pct=" + number(overhead_pct) +
                 " paper_overhead_pct=" + number(row.paper_overhead_pct) +
                 " delta_pp=" + number(overhead_pct - row.paper_overhead_pct) +
                 " model_pcs=" + std::to_string(found[i].min_pcs) +
                 " paper_pcs=" + std::to_string(row.paper_pcs));
  }
  const double geomean_pct = (util::geometric_mean(ratios) - 1.0) * 100.0;
  outcome.note("table1 geomean model_overhead_pct=" + number(geomean_pct) +
               " paper_overhead_pct=" + number(kPaperGeomeanOverheadPct) +
               " delta_pp=" + number(geomean_pct - kPaperGeomeanOverheadPct) +
               " model_pcs=" + number(util::geometric_mean(pcs)) +
               " paper_pcs=3.36");

  if (replayer != nullptr) {
    const auto replay = [&](const std::vector<std::string>& lines,
                            const std::vector<serve::Response>& served) {
      std::vector<std::string> formatted;
      for (const serve::Response& response : served) {
        formatted.push_back(serve::format_response(response));
      }
      replayer->replay_all(lines, formatted, lines.size(), 1, 0.0, outcome);
    };
    replay(search, found);
    replay(at_min, scheduled);
  }
  return geomean_pct;
}

// ------------------------------------------------------------------- probes

namespace {

/// Median over repetitions of the mean host time of `op`, in ns.
template <typename Op>
double time_per_call_ns(Op&& op, double rep_seconds) {
  std::vector<double> reps;
  for (int rep = 0; rep < 7; ++rep) {
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      op();
      ++calls;
      elapsed = seconds_between(start, Clock::now());
    } while (elapsed < rep_seconds);
    reps.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return median(reps);
}

}  // namespace

double parallel_for_probe_us(std::size_t lanes) {
  util::Executor& executor = util::Executor::shared();
  return time_per_call_ns(
             [&] { util::parallel_for(executor, lanes, lanes, [](std::size_t) {}); },
             0.01) *
         1e-3;
}

GateProbe row_gate_probe() {
  const arch::ArchParams params;  // n = 1020, m = 15
  util::Rng rng(0x6a7e);
  const util::BitMatrix image =
      util::random_bit_matrix(params.n, params.n, rng);
  const std::array<std::size_t, 2> in = {0, 1};
  const std::array<std::size_t, 1> out = {2};

  xbar::Crossbar crossbar(params.n, params.n);
  crossbar.contents_mutable() = image;
  arch::PimMachine machine(params);
  machine.load(image);

  GateProbe probe;
  probe.xbar_ns = time_per_call_ns(
      [&] {
        crossbar.magic_init(xbar::Orientation::kRow, out);
        (void)crossbar.magic_nor(xbar::Orientation::kRow, in, out[0]);
      },
      0.02);
  probe.protected_ns = time_per_call_ns(
      [&] {
        machine.magic_init_rows_protected(out);
        machine.magic_nor_rows_protected(in, out[0]);
      },
      0.02);
  return probe;
}

}  // namespace perfbench
