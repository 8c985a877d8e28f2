#include "arch/checkpoint.hpp"

#include <ostream>
#include <utility>

#include "core/array_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/serialize.hpp"

namespace pimecc::arch {

namespace {

const std::uint64_t kMachineMagic = util::chunk_magic("PIMECCMC");

void put_params(util::ByteWriter& w, const ArchParams& p) {
  w.u64(p.n);
  w.u64(p.m);
  w.u64(p.num_pcs);
  w.u64(p.xor3_cycles);
  w.u64(p.transfer_cycles);
  w.u64(p.writeback_cycles);
  w.u8(p.wait_check_before_critical ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(p.hazard));
}

/// Decodes the parameter fingerprint and requires exact equality with the
/// target machine's params: the timing knobs are part of the counters'
/// meaning, not just the geometry.
void match_params(util::ByteReader& r, const ArchParams& p) {
  const bool same = r.u64() == p.n && r.u64() == p.m && r.u64() == p.num_pcs &&
                    r.u64() == p.xor3_cycles && r.u64() == p.transfer_cycles &&
                    r.u64() == p.writeback_cycles &&
                    r.u8() == (p.wait_check_before_critical ? 1 : 0) &&
                    r.u8() == static_cast<std::uint8_t>(p.hazard);
  if (!same) {
    throw util::SerializeError(
        "machine checkpoint parameter mismatch (saved for a different "
        "ArchParams)");
  }
}

}  // namespace

void save_machine_checkpoint(std::ostream& os, const PimMachine& machine,
                             const util::Rng* rng) {
  util::ByteWriter w;
  put_params(w, machine.params());
  w.bitmatrix(machine.data());

  const ecc::ArrayCode code = machine.check_code();
  const std::size_t bps = code.blocks_per_side();
  w.u64(code.block_count());
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const ecc::CheckBits& bits = code.check_bits({br, bc});
      w.bitvector(bits.leading);
      w.bitvector(bits.counter);
    }
  }

  const MachineCounters& c = machine.counters();
  w.u64(c.mem_cycles);
  w.u64(c.cmem_cycles);
  w.u64(c.critical_ops);
  w.u64(c.checks);
  w.u64(c.scrubs);
  const xbar::Crossbar::Counters mc = machine.mem_counters();
  w.u64(mc.cycles);
  w.u64(mc.nor_ops);
  w.u64(mc.init_cycles);

  w.u8(rng != nullptr ? 1 : 0);
  if (rng != nullptr) {
    for (const std::uint64_t word : rng->state()) w.u64(word);
  }

  util::write_chunk(os, kMachineMagic, kMachineCheckpointVersion, w.data());
}

void load_machine_checkpoint(std::istream& is, PimMachine& machine,
                             util::Rng* rng) {
  const util::Chunk chunk =
      util::read_chunk(is, kMachineMagic, kMachineCheckpointVersion);
  util::ByteReader r(chunk.payload);

  // Parse and validate the entire payload into locals first; `machine` and
  // `rng` are untouched until every check below has passed.
  match_params(r, machine.params());

  util::BitMatrix data = r.bitmatrix();
  if (data.rows() != machine.n() || data.cols() != machine.n()) {
    throw util::SerializeError("machine checkpoint data shape mismatch");
  }

  ecc::ArrayCode code(machine.n(), machine.m());
  const std::size_t bps = code.blocks_per_side();
  if (r.u64() != code.block_count()) {
    throw util::SerializeError("machine checkpoint block count mismatch");
  }
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      ecc::CheckBits& bits = code.check_bits_mutable({br, bc});
      util::BitVector leading = r.bitvector();
      util::BitVector counter = r.bitvector();
      if (leading.size() != machine.m() || counter.size() != machine.m()) {
        throw util::SerializeError("machine checkpoint check-bit size mismatch");
      }
      bits.leading = std::move(leading);
      bits.counter = std::move(counter);
    }
  }

  MachineCounters counters;
  counters.mem_cycles = r.u64();
  counters.cmem_cycles = r.u64();
  counters.critical_ops = r.u64();
  counters.checks = r.u64();
  counters.scrubs = r.u64();
  xbar::Crossbar::Counters mem_counters;
  mem_counters.cycles = r.u64();
  mem_counters.nor_ops = r.u64();
  mem_counters.init_cycles = r.u64();

  const bool has_rng = r.u8() != 0;
  util::Rng::State rng_state{};
  if (has_rng) {
    for (std::uint64_t& word : rng_state) word = r.u64();
    if ((rng_state[0] | rng_state[1] | rng_state[2] | rng_state[3]) == 0) {
      throw util::SerializeError("machine checkpoint RNG state is all-zero");
    }
  } else if (rng != nullptr) {
    throw util::SerializeError(
        "machine checkpoint holds no RNG state but one was requested");
  }
  r.require_exhausted();

  machine.restore(data, code, counters, mem_counters);
  if (rng != nullptr) rng->set_state(rng_state);
}

}  // namespace pimecc::arch
