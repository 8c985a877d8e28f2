// pimecc -- arch/pim_machine.hpp
//
// The top-level public API: one MEM crossbar with the paper's full ECC
// extension attached (Figure 3) -- check-bit storage, processing crossbars,
// checking crossbar, barrel shifters and controllers -- operated
// functionally and bit-accurately.
//
// Every stateful-logic operation issued through this facade runs the
// Section IV critical-operation protocol:
//   1. cancel the old data's effect on the check bits,
//   2. perform the MAGIC operation in the MEM,
//   3. add the new data's effect on the check bits,
// and soft errors can be injected at any point; checks before use and
// periodic scrubs then detect/correct them exactly as the architecture
// would.
//
// This is the *word-parallel* production machine.  The MEM is stored
// lane-major: physical row j of the crossbar holds logical column j, so a
// row-parallel gate (SIMPLER's mode: one gate in every row at once) is a
// masked word op over n/64 words of one physical row, and its ECC delta is
// that physical row before XOR after -- no column gathers.  Column-parallel
// ops take the crossbar's scalar kRow path instead; no production caller
// issues them.
//
// The check bits are an ecc::ArrayCode over the physical (transposed)
// image.  Transposition keeps the diagonal code intact up to an index
// relabel (ArrayCode::transposed): block (i, j) <-> (j, i), leading index d
// unchanged, counter index d <-> (m - d) mod m.  So protocol steps 1+3 are
// one differential rotate+XOR per affected block (apply_line_delta), a
// logical block-row check is a physical block-column scrub_band, and
// scrub/ecc_consistent run on the physical image unchanged.  Every public
// accessor and entry point speaks the logical frame: data(), get(),
// column_into(), check_code(), inject_*, restore() and the row-activation
// tallies translate at the boundary, so checkpoints and all observable
// state are the same as a row-major machine's.
//
// Cycle accounting is unchanged: the protocol's analytic costs are
// identical to routing the lines through the shifter bank into genuine XOR3
// microprograms.  The original bit-serial composition is retained verbatim
// as ReferencePimMachine (reference_pim_machine.hpp) and must match this
// machine exactly in contents, check state, cycle counters, row
// activations, and correction counts on any program -- pinned by
// tests/test_arch_engine.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::arch {

/// Outcome of one ECC check over a band of blocks.
struct CheckReport {
  std::size_t blocks_checked = 0;
  std::size_t corrected_data = 0;
  std::size_t corrected_check = 0;
  std::size_t uncorrectable = 0;

  [[nodiscard]] bool all_clean() const noexcept {
    return corrected_data + corrected_check + uncorrectable == 0;
  }
  bool operator==(const CheckReport&) const noexcept = default;
};

/// Cycle accounting split by unit, in the spirit of the paper's latency
/// model: MEM cycles serialize with computation; CMEM cycles overlap except
/// where the protocol forces ordering.
struct MachineCounters {
  std::uint64_t mem_cycles = 0;
  std::uint64_t cmem_cycles = 0;
  std::uint64_t critical_ops = 0;
  std::uint64_t checks = 0;
  std::uint64_t scrubs = 0;
  bool operator==(const MachineCounters&) const noexcept = default;
};

/// MEM + CMEM processing-in-memory unit with diagonal-parity ECC.
class PimMachine {
 public:
  explicit PimMachine(const ArchParams& params);

  [[nodiscard]] const ArchParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
  [[nodiscard]] std::size_t m() const noexcept { return params_.m; }

  // --- data movement -------------------------------------------------------
  /// Loads an n x n image into the MEM and (re)encodes all check bits.
  void load(const util::BitMatrix& image);
  /// A copy of the MEM contents in the logical frame (no ECC check; use
  /// check/scrub for that).  One word-blocked transpose; for single cells
  /// or columns use get() / column_into().
  [[nodiscard]] util::BitMatrix data() const {
    return util::transpose(mem_.contents());
  }
  /// Zero-cost inspection of cell (r, c) (no cycles, no activations).
  [[nodiscard]] bool get(std::size_t r, std::size_t c) const {
    return mem_.contents().at(c, r);
  }
  /// Zero-cost inspection of column c into `out` (resized to n): one
  /// physical-row copy.
  void column_into(std::size_t c, util::BitVector& out) const {
    out = mem_.contents().row(c);
  }
  /// Controller write of one full row with continuous check-bit update.
  void write_row_protected(std::size_t r, const util::BitVector& values);
  /// Controller write of the masked cells of row r:
  /// row <- (row AND NOT mask) OR (values AND mask).  The same protocol as
  /// write_row_protected of that merged image -- one write cycle, one
  /// critical op, one activation of row r -- but only the masked cells are
  /// touched.  `values` and `mask` have length n.
  void write_row_masked_protected(std::size_t r, const util::BitVector& values,
                                  const util::BitVector& mask);

  // --- protected stateful logic -------------------------------------------
  /// Row-parallel MAGIC NOR with the critical-operation protocol:
  /// out(r, out_col) = NOR_i in(r, in_cols[i]) for each selected row.
  /// Output cells must have been initialized (magic_init_protected).
  /// Empty `rows` selects all rows; explicit rows become the word op's lane
  /// mask.
  void magic_nor_rows_protected(std::span<const std::size_t> in_cols,
                                std::size_t out_col,
                                std::span<const std::size_t> rows = {});
  /// Column-parallel variant: out(out_row, c) = NOR_i in(in_rows[i], c).
  void magic_nor_cols_protected(std::span<const std::size_t> in_rows,
                                std::size_t out_row,
                                std::span<const std::size_t> cols = {});
  /// Initialization (to LRS) of whole lines, ECC-maintained: for
  /// row-orientation, initializes the given columns across all rows.
  /// Lines must be distinct (a duplicate would corrupt the check update).
  void magic_init_rows_protected(std::span<const std::size_t> cols);
  void magic_init_cols_protected(std::span<const std::size_t> rows);

  // --- checking ------------------------------------------------------------
  /// The paper's before-use check: verifies (and repairs) all blocks of the
  /// block-row containing `row`.
  CheckReport check_block_row(std::size_t row);
  /// Verifies all blocks of the block-column containing `col`.
  CheckReport check_block_col(std::size_t col);
  /// Periodic full-memory check.
  CheckReport scrub();

  /// True iff the stored check bits are exactly consistent with the MEM
  /// data (golden-model invariant used heavily in tests).
  [[nodiscard]] bool ecc_consistent() const;

  // --- fault injection hooks ------------------------------------------------
  /// Flips one data bit (simulated soft error).
  void inject_data_error(std::size_t r, std::size_t c);
  /// Flips one check bit.
  void inject_check_error(Axis axis, std::size_t diagonal, ecc::BlockIndex block);

  [[nodiscard]] const MachineCounters& counters() const noexcept { return counters_; }
  /// The check-bit state (functional view of the CMEM contents), relabelled
  /// into the logical frame: the code a row-major machine would hold.
  [[nodiscard]] ecc::ArrayCode check_code() const { return code_.transposed(); }

  // --- workload observability -----------------------------------------------
  /// Per-row wordline-activation accounting of the logical MEM rows, with
  /// xbar::Crossbar::row_activations' rules: controller row writes and
  /// column-parallel gate lines drive single rows, row-parallel gates over
  /// all lanes drive every row (one broadcast count).  The workload signal
  /// consumed by the scenario-diversity fault models (fault/disturbance.hpp)
  /// and the activation-triggered scrub policies
  /// (reliability/scrub_policy.hpp).  Campaign-local observability -- not
  /// checkpointed; restore() leaves the history untouched and reset starts
  /// it fresh.
  [[nodiscard]] std::uint64_t mem_row_activations(std::size_t r) const;
  [[nodiscard]] std::vector<std::uint64_t> mem_row_activation_snapshot() const;
  void reset_mem_row_activations() noexcept;

  // --- checkpointing (arch/checkpoint.hpp) ---------------------------------
  /// MEM crossbar counter snapshot: the machine's mem_cycles accounting is
  /// derived from the crossbar's own counter, so checkpoints must carry it.
  [[nodiscard]] xbar::Crossbar::Counters mem_counters() const noexcept {
    return mem_.counters();
  }
  /// Replaces the complete machine state with a previously captured
  /// snapshot, all in the logical frame: MEM image, check bits (taken
  /// verbatim up to the frame relabel -- they may be
  /// deliberately inconsistent with the data, e.g. under injected faults),
  /// and both counter sets.  Validates every shape against this machine's
  /// geometry *before* mutating anything, so a throwing restore leaves the
  /// machine untouched.
  void restore(const util::BitMatrix& data, const ecc::ArrayCode& code,
               const MachineCounters& counters,
               const xbar::Crossbar::Counters& mem_counters);

 private:
  /// Runs protocol steps 1+3 for a line write, differentially: `delta` is
  /// old XOR new of the written line.  `physical_column` true means the
  /// written line is a physical column (a logical row write or a
  /// column-parallel op); false means a physical row (a row-parallel op).
  void update_check_bits_for_line(bool physical_column, std::size_t line,
                                  const util::BitVector& delta);
  /// Checks the physical block band: a row band is a logical block-column.
  CheckReport check_block_band(bool physical_row_band, std::size_t band);
  /// Activation tally of a set of explicitly driven logical rows.
  void activate_rows(std::span<const std::size_t> rows) noexcept {
    for (const std::size_t r : rows) ++row_activation_extra_[r];
  }

  ArchParams params_;
  xbar::Crossbar mem_;  ///< lane-major: physical row j = logical column j
  ecc::ArrayCode code_;  ///< check bits of the physical image
  MachineCounters counters_;
  std::uint64_t broadcast_activations_ = 0;  ///< all-row drives
  std::vector<std::uint64_t> row_activation_extra_;  ///< addressed drives

  // Scratch buffers reused across operations so the protected hot path is
  // allocation-free in steady state.
  util::BitVector delta_;  ///< line snapshot, then old XOR new in place
  util::BitVector line_;   ///< post-op column gather (column-parallel ops)
  std::vector<util::BitVector> init_snapshots_;
};

}  // namespace pimecc::arch
