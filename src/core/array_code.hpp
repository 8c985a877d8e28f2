// pimecc -- core/array_code.hpp
//
// Whole-crossbar diagonal ECC state: an n x n array divided into an
// imaginary grid of (n/m) x (n/m) blocks of size m x m, with CheckBits per
// block (paper Section III).  This is the *functional* (golden) model of the
// Check Memory contents; src/arch models where those bits physically live
// and what each update costs in cycles.
#pragma once

#include <cstddef>
#include <vector>

#include "core/block_code.hpp"
#include "util/bitmatrix.hpp"

namespace pimecc::ecc {

/// Grid coordinates of a block.
struct BlockIndex {
  std::size_t block_row = 0;  ///< index of the block band, top to bottom
  std::size_t block_col = 0;  ///< index of the block band, left to right
  bool operator==(const BlockIndex&) const noexcept = default;
};

/// One cell write observed by the ECC layer (old value -> new value).
struct CellWrite {
  std::size_t r = 0;  ///< absolute row in the n x n array
  std::size_t c = 0;  ///< absolute column
  bool old_value = false;
  bool new_value = false;
};

/// Outcome of scrubbing a single block: the DecodeStatus plus where the
/// repair landed, in absolute array coordinates and without the
/// DecodeResult allocation.  Enough to undo the repair (flips are
/// involutions) or to compute a residual diff against a pre-fault image --
/// the sparse Monte Carlo engine's per-touched-block bookkeeping.
struct BlockRepair {
  DecodeStatus status = DecodeStatus::kClean;
  std::size_t data_r = 0;  ///< absolute row of the flipped data bit (kCorrectedData)
  std::size_t data_c = 0;  ///< absolute column of the flipped data bit (kCorrectedData)
  bool check_on_leading_axis = false;  ///< which family was repaired (kCorrectedCheck)
  std::size_t check_index = 0;         ///< diagonal index of the repaired check bit
  bool operator==(const BlockRepair&) const noexcept = default;
};

/// Summary of a whole-array scrub.
struct ScrubReport {
  std::size_t blocks_checked = 0;
  std::size_t clean = 0;
  std::size_t corrected_data = 0;
  std::size_t corrected_check = 0;
  std::size_t uncorrectable = 0;
  bool operator==(const ScrubReport&) const noexcept = default;
};

/// Diagonal-parity ECC over an n x n bit array (n divisible by odd m).
class ArrayCode {
 public:
  /// Throws std::invalid_argument unless m is odd and divides n.
  ArrayCode(std::size_t n, std::size_t m);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t m() const noexcept { return codec_.m(); }
  [[nodiscard]] std::size_t blocks_per_side() const noexcept { return n_ / m(); }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_per_side() * blocks_per_side();
  }
  [[nodiscard]] const BlockCodec& codec() const noexcept { return codec_; }

  [[nodiscard]] BlockIndex block_of(std::size_t r, std::size_t c) const noexcept {
    return {r / m(), c / m()};
  }

  [[nodiscard]] const CheckBits& check_bits(BlockIndex b) const;
  [[nodiscard]] CheckBits& check_bits_mutable(BlockIndex b);

  /// Recomputes every block's check bits from `data` (n x n).  Batch band
  /// path (m <= diagword::kMaxM): walks each row band once and peels the
  /// per-block word segments, O(n * n/64) word ops instead of n*n bit reads.
  void encode_all(const util::BitMatrix& data);

  /// Continuous update for a batch of cell writes (one parallel MAGIC
  /// operation).  Θ(1) parity work per check bit -- asserted by tests via
  /// verify_theta1_property().
  void apply_writes(const std::vector<CellWrite>& writes);

  /// Checks one block against `data`, correcting single errors in place
  /// (data bit in `data`, check bit in this object).
  DecodeResult check_block(util::BitMatrix& data, BlockIndex b);

  /// Checks every block (the paper's periodic full-memory check).  Uses the
  /// same batch band path as encode_all, with word-level syndrome
  /// classification; semantics identical to check_block on every block.
  ScrubReport scrub(util::BitMatrix& data);

  /// Checks (and corrects, exactly like scrub) every block of one block-row
  /// (`row_band` true) or block-column -- the paper's before-use check of
  /// the band containing a line about to be operated on.  One band walk for
  /// a block-row; one per-block segment peel per band for a block-column.
  ScrubReport scrub_band(util::BitMatrix& data, bool row_band, std::size_t band);

  /// Checks (and corrects, exactly like scrub) the single block `b`:
  /// scrub_band generalized to block granularity, O(m) word ops.  Returns
  /// what was repaired and where, so a caller tracking its own fault set
  /// can compute the block's residual and roll the repair back.
  BlockRepair scrub_block(util::BitMatrix& data, BlockIndex b);

  /// Differential continuous update for one whole written line (the
  /// critical-operation protocol's steps 1+3 fused): `delta` is
  /// old XOR new of the line's n bits.  For a written column
  /// (`line_is_column`), block-row band g folds rotl(delta_seg, line mod m)
  /// into its leading family and rotl(delta_seg, -line mod m) into its
  /// counter family; for a written row the counter family is additionally
  /// reflected (stride m-1) -- one or two rotate+XORs per affected block,
  /// never a re-encode.  Validates before mutating any parity.
  void apply_line_delta(bool line_is_column, std::size_t line,
                        const util::BitVector& delta);

  /// True iff every check bit matches `data` exactly.
  [[nodiscard]] bool consistent_with(const util::BitMatrix& data) const;

  /// This code relabelled onto the transposed array: the check state that
  /// encode_all(transpose(data)) produces whenever this one came from
  /// encode_all(data), and with any injected check-bit errors carried to the
  /// matching bits.  Cell (r, c) becomes (c, r), so block (i, j) maps to
  /// (j, i), leading diagonal (r + c) mod m keeps its index d, and counter
  /// diagonal (r - c) mod m turns into (c - r) mod m, index d -> (m - d) mod m.
  /// An involution: transposed().transposed() equals *this.
  [[nodiscard]] ArrayCode transposed() const;

  /// Section III invariant: within any single row-parallel or
  /// column-parallel operation, each (block, diagonal) is written at most
  /// once.  Returns false if `writes` violates it (meaning the batch could
  /// not have come from one parallel MAGIC op on distinct cells).
  [[nodiscard]] bool writes_touch_each_diagonal_once(
      const std::vector<CellWrite>& writes) const;

 private:
  [[nodiscard]] std::size_t flat_index(BlockIndex b) const;
  void require_shape(const util::BitMatrix& data) const;
  /// Word-level syndrome classification + in-place repair of one block given
  /// its freshly accumulated parity words (m <= diagword::kMaxM); the shared
  /// tail of scrub and scrub_band.
  void classify_and_repair(util::BitMatrix& data, BlockIndex b,
                           std::uint64_t fresh_lead, std::uint64_t fresh_cnt,
                           ScrubReport& report, BlockRepair* repair = nullptr);

  std::size_t n_;
  BlockCodec codec_;
  std::vector<CheckBits> blocks_;  // row-major over the block grid
};

}  // namespace pimecc::ecc
