#include "arch/pim_machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "arch/arch_checks.hpp"
#include "arch/scheduler.hpp"  // xor3_fold_levels

namespace pimecc::arch {

PimMachine::PimMachine(const ArchParams& params)
    : params_(params),
      mem_((params.validate(), params.n), params.n),
      code_(params.n, params.m),
      pending_(params.n * ((params.n + 63) / 64), 0),
      pending_rows_(params.n),
      row_activation_extra_(params.n, 0) {}

std::size_t PimMachine::next_pending_band(std::size_t band) const noexcept {
  const std::size_t row = band == 0 ? pending_rows_.find_first()
                                    : pending_rows_.find_next(band * m() - 1);
  return row / m();  // n / m = blocks_per_side() when no row is left
}

void PimMachine::fold_pending() const {
  const std::size_t bps = params_.blocks_per_side();
  for (std::size_t band = next_pending_band(0); band < bps;
       band = next_pending_band(band + 1)) {
    code_.fold_delta_band(pending_, band);
  }
  discard_pending();
}

void PimMachine::discard_pending() const noexcept {
  const std::size_t bps = params_.blocks_per_side();
  const std::size_t band_words = m() * ((n() + 63) / 64);
  for (std::size_t band = next_pending_band(0); band < bps;
       band = next_pending_band(band + 1)) {
    std::fill_n(pending_.data() + band * band_words, band_words, 0);
  }
  pending_rows_.fill(false);
}

void PimMachine::load(const util::BitMatrix& image) {
  if (image.rows() != n() || image.cols() != n()) {
    throw std::invalid_argument("PimMachine::load: image must be n x n");
  }
  // n controller row writes: logical row r lands in physical column r.
  mem_.write_columns(image);
  for (std::uint64_t& count : row_activation_extra_) ++count;
  // Initial encode: one batch band walk over the whole (physical) array.
  // It overwrites every check bit, so the pending delta is void.
  code_.encode_all(mem_.contents());
  discard_pending();
  counters_.mem_cycles = mem_.cycles();
}

void PimMachine::restore(const util::BitMatrix& data, const ecc::ArrayCode& code,
                         const MachineCounters& counters,
                         const xbar::Crossbar::Counters& mem_counters) {
  if (data.rows() != n() || data.cols() != n()) {
    throw std::invalid_argument("PimMachine::restore: data must be n x n");
  }
  if (code.n() != n() || code.m() != m()) {
    throw std::invalid_argument(
        "PimMachine::restore: check-code geometry mismatch");
  }
  // Direct state replacement, no controller writes and no re-encode: the
  // snapshot's counters already account for everything that produced this
  // state, and the check bits must come back verbatim (they may be
  // intentionally inconsistent, e.g. mid-fault-injection).
  util::transpose_into(data, mem_.contents_mutable());
  code_ = code.transposed();
  discard_pending();
  mem_.restore_counters(mem_counters);
  counters_ = counters;
}

void PimMachine::update_check_bits_for_line(bool physical_column,
                                            std::size_t line,
                                            const util::BitVector& delta) {
  // Record, don't fold: the code is linear, so the pending image collects
  // old XOR new of every written cell and fold_pending() encodes it once,
  // when the check bits are next read.
  const std::size_t words = (n() + 63) / 64;
  const std::span<const std::uint64_t> src = delta.words();
  if (physical_column) {
    // One pending bit per changed cell; the changed cells' rows are the
    // delta itself, so marking them is a word OR.
    const std::size_t word = line / 64;
    const std::uint64_t bit = std::uint64_t{1} << (line % 64);
    const std::span<std::uint64_t> rows = pending_rows_.words_mutable();
    for (std::size_t wi = 0; wi < words; ++wi) {
      rows[wi] |= src[wi];
      for (std::uint64_t w = src[wi]; w != 0; w &= w - 1) {
        const std::size_t i =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        pending_[i * words + word] ^= bit;
      }
    }
  } else {
    std::uint64_t* const dst = pending_.data() + line * words;
    for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
    pending_rows_.set(line, true);
  }
  // Protocol cost, identical to the reference datapath: two MEM->CMEM
  // transfers serialize with the MEM; the XOR3 passes and write-backs run
  // in the CMEM.
  counters_.mem_cycles += 2 * params_.transfer_cycles;
  counters_.cmem_cycles +=
      params_.transfer_cycles + params_.xor3_cycles + params_.writeback_cycles;
  ++counters_.critical_ops;
}

void PimMachine::write_row_protected(std::size_t r, const util::BitVector& values) {
  detail::require_index(r, n(), "row");
  if (values.size() != n()) {
    throw std::invalid_argument("PimMachine::write_row_protected: size mismatch");
  }
  mem_.contents().column_into(r, delta_);
  mem_.write_column(r, values);
  counters_.mem_cycles = mem_.cycles();
  ++row_activation_extra_[r];
  delta_ ^= values;
  update_check_bits_for_line(true, r, delta_);
}

void PimMachine::write_row_masked_protected(std::size_t r,
                                            const util::BitVector& values,
                                            const util::BitVector& mask) {
  detail::require_index(r, n(), "row");
  if (values.size() != n() || mask.size() != n()) {
    throw std::invalid_argument(
        "PimMachine::write_row_masked_protected: size mismatch");
  }
  mem_.write_column_masked(r, values, mask, delta_);
  counters_.mem_cycles = mem_.cycles();
  ++row_activation_extra_[r];
  update_check_bits_for_line(true, r, delta_);
}

void PimMachine::magic_nor_rows_protected(std::span<const std::size_t> in_cols,
                                          std::size_t out_col,
                                          std::span<const std::size_t> rows) {
  detail::require_indices(in_cols, n(), "input column");
  detail::require_index(out_col, n(), "output column");
  detail::require_distinct(rows, n(), "row lane");
  // Logical columns are physical rows: the gate is one masked word pass
  // over the output row, and the delta is that row before XOR after.
  delta_ = mem_.contents().row(out_col);
  mem_.magic_nor(xbar::Orientation::kColumn, in_cols, out_col, rows);
  counters_.mem_cycles = mem_.cycles();
  delta_ ^= mem_.contents().row(out_col);
  if (rows.empty()) {
    ++broadcast_activations_;
  } else {
    activate_rows(rows);
  }
  update_check_bits_for_line(false, out_col, delta_);
}

void PimMachine::magic_nor_cols_protected(std::span<const std::size_t> in_rows,
                                          std::size_t out_row,
                                          std::span<const std::size_t> cols) {
  detail::require_indices(in_rows, n(), "input row");
  detail::require_index(out_row, n(), "output row");
  detail::require_distinct(cols, n(), "column lane");
  mem_.contents().column_into(out_row, delta_);
  mem_.magic_nor(xbar::Orientation::kRow, in_rows, out_row, cols);
  counters_.mem_cycles = mem_.cycles();
  mem_.contents().column_into(out_row, line_);
  delta_ ^= line_;
  activate_rows(in_rows);
  ++row_activation_extra_[out_row];
  update_check_bits_for_line(true, out_row, delta_);
}

void PimMachine::magic_init_rows_protected(std::span<const std::size_t> cols) {
  detail::require_distinct(cols, n(), "init column");
  init_snapshots_.resize(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    init_snapshots_[i] = mem_.contents().row(cols[i]);
  }
  mem_.magic_init(xbar::Orientation::kColumn, cols);
  counters_.mem_cycles = mem_.cycles();
  ++broadcast_activations_;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    // Init drives every cell of the line to LRS, so delta = NOT(old).
    init_snapshots_[i].invert();
    update_check_bits_for_line(false, cols[i], init_snapshots_[i]);
  }
}

void PimMachine::magic_init_cols_protected(std::span<const std::size_t> rows) {
  detail::require_distinct(rows, n(), "init row");
  init_snapshots_.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    mem_.contents().column_into(rows[i], init_snapshots_[i]);
  }
  mem_.magic_init(xbar::Orientation::kRow, rows);
  counters_.mem_cycles = mem_.cycles();
  activate_rows(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    init_snapshots_[i].invert();
    update_check_bits_for_line(true, rows[i], init_snapshots_[i]);
  }
}

CheckReport PimMachine::check_block_band(bool physical_row_band,
                                         std::size_t band) {
  fold_pending();
  const ecc::ScrubReport sr =
      code_.scrub_band(mem_.contents_mutable(), physical_row_band, band);
  CheckReport report;
  report.blocks_checked = sr.blocks_checked;
  report.corrected_data = sr.corrected_data;
  report.corrected_check = sr.corrected_check;
  report.uncorrectable = sr.uncorrectable;
  // Cost model: m MEM copy cycles; the XOR3 fold tree, syndrome compare and
  // flag evaluation run in the CMEM off the MEM's critical path.
  counters_.mem_cycles += m();
  counters_.cmem_cycles += xor3_fold_levels(m() + 1) * params_.xor3_cycles + 2 + 1;
  ++counters_.checks;
  return report;
}

CheckReport PimMachine::check_block_row(std::size_t row) {
  detail::require_index(row, n(), "row");
  return check_block_band(false, row / m());
}

CheckReport PimMachine::check_block_col(std::size_t col) {
  detail::require_index(col, n(), "column");
  return check_block_band(true, col / m());
}

CheckReport PimMachine::check_all_block_rows() {
  // Every block once, so the same repairs and totals as the n/m logical
  // block-row checks; the physical row bands are the fast band walk.
  CheckReport total;
  for (std::size_t band = 0; band < params_.blocks_per_side(); ++band) {
    const CheckReport r = check_block_band(true, band);
    total.blocks_checked += r.blocks_checked;
    total.corrected_data += r.corrected_data;
    total.corrected_check += r.corrected_check;
    total.uncorrectable += r.uncorrectable;
  }
  return total;
}

CheckReport PimMachine::scrub() {
  const CheckReport total = check_all_block_rows();
  ++counters_.scrubs;
  return total;
}

bool PimMachine::ecc_consistent() const {
  fold_pending();
  return code_.consistent_with(mem_.contents());
}

ecc::ArrayCode PimMachine::check_code() const {
  fold_pending();
  return code_.transposed();
}

void PimMachine::inject_data_error(std::size_t r, std::size_t c) {
  detail::require_index(r, n(), "row");
  detail::require_index(c, n(), "column");
  mem_.contents_mutable().flip(c, r);
}

void PimMachine::inject_check_error(Axis axis, std::size_t diagonal,
                                    ecc::BlockIndex block) {
  detail::require_index(diagonal, m(), "diagonal");
  // The relabel of ArrayCode::transposed, for one bit.
  ecc::CheckBits& bits = code_.check_bits_mutable(
      {block.block_col, block.block_row});  // validates block
  if (axis == Axis::kLeading) {
    bits.leading.flip(diagonal);
  } else {
    bits.counter.flip((m() - diagonal) % m());
  }
}

std::uint64_t PimMachine::mem_row_activations(std::size_t r) const {
  detail::require_index(r, n(), "row");
  return broadcast_activations_ + row_activation_extra_[r];
}

std::vector<std::uint64_t> PimMachine::mem_row_activation_snapshot() const {
  std::vector<std::uint64_t> snapshot(row_activation_extra_);
  for (std::uint64_t& count : snapshot) count += broadcast_activations_;
  return snapshot;
}

void PimMachine::reset_mem_row_activations() noexcept {
  broadcast_activations_ = 0;
  std::fill(row_activation_extra_.begin(), row_activation_extra_.end(), 0);
}

}  // namespace pimecc::arch
