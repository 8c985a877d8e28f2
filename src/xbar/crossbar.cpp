#include "xbar/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/simd.hpp"

namespace pimecc::xbar {

Crossbar::Crossbar(std::size_t n_rows, std::size_t n_cols) : mat_(n_rows, n_cols) {
  if (n_rows == 0 || n_cols == 0) {
    throw std::invalid_argument("Crossbar: dimensions must be positive");
  }
  ones_cols_ = util::BitVector(n_cols, true);
  row_activation_extra_.assign(n_rows, 0);
}

void Crossbar::write_row(std::size_t r, const util::BitVector& data) {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::write_row: row out of range");
  }
  if (data.size() != cols()) {
    throw std::invalid_argument("Crossbar::write_row: size mismatch");
  }
  mat_.row(r) = data;
  ++row_activation_extra_[r];
  ++cycles_;
}

void Crossbar::write_column(std::size_t c, const util::BitVector& data) {
  if (c >= cols()) {
    throw std::out_of_range("Crossbar::write_column: column out of range");
  }
  if (data.size() != rows()) {
    throw std::invalid_argument("Crossbar::write_column: size mismatch");
  }
  mat_.set_column(c, data);
  ++broadcast_activations_;
  ++cycles_;
}

void Crossbar::write_columns(const util::BitMatrix& columns) {
  if (columns.rows() != cols() || columns.cols() != rows()) {
    throw std::invalid_argument("Crossbar::write_columns: shape mismatch");
  }
  util::transpose_into(columns, mat_);
  broadcast_activations_ += cols();
  cycles_ += cols();
}

void Crossbar::write_column_masked(std::size_t c, const util::BitVector& values,
                                   const util::BitVector& mask,
                                   util::BitVector& flipped) {
  if (c >= cols()) {
    throw std::out_of_range("Crossbar::write_column_masked: column out of range");
  }
  if (values.size() != rows() || mask.size() != rows()) {
    throw std::invalid_argument("Crossbar::write_column_masked: size mismatch");
  }
  using Word = util::BitVector::Word;
  constexpr std::size_t kWordBits = util::BitVector::kWordBits;
  flipped.resize(rows());
  const std::span<const Word> mask_words = mask.words();
  const std::span<const Word> value_words = values.words();
  const std::span<Word> flipped_words = flipped.words_mutable();
  for (std::size_t wi = 0; wi < mask_words.size(); ++wi) {
    Word old = 0;
    for (Word bits = mask_words[wi]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      const std::size_t r = wi * kWordBits + bit;
      old |= Word{mat_.get(r, c)} << bit;
      mat_.set(r, c, (value_words[wi] >> bit) & 1u);
      ++row_activation_extra_[r];
    }
    flipped_words[wi] = (old ^ value_words[wi]) & mask_words[wi];
  }
  ++cycles_;
}

util::BitVector Crossbar::read_row(std::size_t r) {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::read_row: row out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  return mat_.row(r);
}

util::BitVector Crossbar::read_column(std::size_t c) {
  if (c >= cols()) {
    throw std::out_of_range("Crossbar::read_column: column out of range");
  }
  ++broadcast_activations_;
  ++cycles_;
  return mat_.column(c);
}

void Crossbar::write_bit(std::size_t r, std::size_t c, bool value) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("Crossbar::write_bit: index out of range");
  }
  mat_.set(r, c, value);
  ++row_activation_extra_[r];
  ++cycles_;
}

bool Crossbar::read_bit(std::size_t r, std::size_t c) {
  if (r >= rows() || c >= cols()) {
    throw std::out_of_range("Crossbar::read_bit: index out of range");
  }
  ++row_activation_extra_[r];
  ++cycles_;
  return mat_.get(r, c);
}

void Crossbar::check_line(Orientation o, std::size_t line, const char* what) const {
  const std::size_t limit = o == Orientation::kRow ? cols() : rows();
  if (line >= limit) {
    throw std::out_of_range(std::string("Crossbar: ") + what + " line out of range");
  }
}

void Crossbar::check_lane(Orientation o, std::size_t lane) const {
  if (lane >= lane_count(o)) {
    throw std::out_of_range("Crossbar: lane out of range");
  }
}

const util::BitVector& Crossbar::col_lane_mask(std::span<const std::size_t> lanes,
                                               bool require_distinct) {
  if (lanes.empty()) return ones_cols_;
  lane_mask_.resize(cols());
  lane_mask_.fill(false);
  for (const std::size_t lane : lanes) {
    check_lane(Orientation::kColumn, lane);
    if (require_distinct && lane_mask_.get(lane)) {
      throw std::invalid_argument("Crossbar: duplicate lane");
    }
    lane_mask_.set(lane, true);
  }
  return lane_mask_;
}

void Crossbar::check_lanes_distinct(Orientation o,
                                    std::span<const std::size_t> lanes) {
  if (lanes.empty()) return;
  lane_mask_.resize(lane_count(o));
  lane_mask_.fill(false);
  for (const std::size_t lane : lanes) {
    check_lane(o, lane);
    if (lane_mask_.get(lane)) {
      throw std::invalid_argument("Crossbar: duplicate lane");
    }
    lane_mask_.set(lane, true);
  }
}

void Crossbar::magic_init(Orientation o, std::span<const std::size_t> lines,
                          std::span<const std::size_t> lanes) {
  for (const std::size_t line : lines) check_line(o, line, "init");
  for (const std::size_t lane : lanes) check_lane(o, lane);

  if (o == Orientation::kRow) {
    // Lines are columns.  For wide batches, OR one column mask into each
    // selected row (cols/64 word ops per row); for narrow batches a single
    // word-OR per (row, line) touches far less memory.
    const std::span<util::BitVector> row_store = mat_.rows_span();
    if (lines.size() > mat_.cols() / util::BitVector::kWordBits) {
      acc_.resize(cols());
      acc_.fill(false);
      for (const std::size_t line : lines) acc_.set(line, true);
      if (lanes.empty()) {
        for (util::BitVector& row : row_store) row |= acc_;
      } else {
        for (const std::size_t lane : lanes) row_store[lane] |= acc_;
      }
    } else {
      for (const std::size_t line : lines) {
        const std::size_t wi = line / util::BitVector::kWordBits;
        const util::BitVector::Word bit = util::BitVector::Word{1}
                                          << (line % util::BitVector::kWordBits);
        if (lanes.empty()) {
          for (util::BitVector& row : row_store) row.words_mutable()[wi] |= bit;
        } else {
          for (const std::size_t lane : lanes) {
            row_store[lane].words_mutable()[wi] |= bit;
          }
        }
      }
    }
  } else {
    // Lines are rows: OR the lane (column) mask into each selected row.
    const util::BitVector& mask = col_lane_mask(lanes, /*require_distinct=*/false);
    for (const std::size_t line : lines) mat_.row(line) |= mask;
  }
  // Activation accounting: kColumn drives the gate-line wordlines; kRow
  // drives the selected rows' wordlines (all of them when lanes is empty).
  if (o == Orientation::kColumn) {
    for (const std::size_t line : lines) ++row_activation_extra_[line];
  } else if (lanes.empty()) {
    ++broadcast_activations_;
  } else {
    for (const std::size_t lane : lanes) ++row_activation_extra_[lane];
  }
  ++cycles_;
  ++init_cycles_;
}

OpResult Crossbar::magic_nor(Orientation o, std::span<const std::size_t> in_lines,
                             std::size_t out_line,
                             std::span<const std::size_t> lanes) {
  if (in_lines.empty()) {
    throw std::invalid_argument("Crossbar::magic_nor: needs at least one input");
  }
  for (const std::size_t line : in_lines) {
    check_line(o, line, "input");
    if (line == out_line) {
      throw std::invalid_argument("Crossbar::magic_nor: output overlaps an input");
    }
  }
  check_line(o, out_line, "output");

  OpResult result;
  result.lanes = lanes.empty() ? lane_count(o) : lanes.size();
  if (o == Orientation::kColumn) {
    const util::BitVector& mask = col_lane_mask(lanes, /*require_distinct=*/true);
    // Lanes are columns, lines are rows: one fused, dispatched
    // (scalar/AVX2/AVX-512) pass over the row words computes the physics
    //   out' = out AND NOT(mask AND OR(ins))   [= out AND NOR(ins) in lanes]
    // and the violation count popcount(mask AND NOT out) together, instead
    // of the former copy/OR/invert/count/AND/assign BitVector chain.  The
    // mask's padding words are zero (BitVector invariant), so the output
    // row's padding is preserved verbatim.
    in_ptrs_.clear();
    for (const std::size_t line : in_lines) {
      in_ptrs_.push_back(mat_.row(line).words().data());
    }
    util::BitVector& out = mat_.row(out_line);
    result.violations = util::simd::kernels().nor_column_pass(
        in_ptrs_.data(), in_ptrs_.size(), mask.words().data(),
        out.words_mutable().data(), out.word_count());
  } else {
    // Lanes are rows, lines are columns: one fused pass per selected row --
    // read the input column bits and the output bit from that row's words,
    // apply the physics, write the output bit back.  A single row touch per
    // lane instead of separate gather/scatter column walks.  Word offsets
    // and shifts are resolved once, outside the lane loop; fan-in 1 and 2
    // (NOT and the dominant NOR shape) get branch-free specializations.
    // This orientation stays scalar: each lane touches a few scattered
    // single words across independent per-row allocations, with nothing
    // contiguous for a vector port to amortize.  It serves no protected
    // row-parallel gate -- arch::PimMachine stores its MEM transposed, so
    // SIMPLER's row-parallel gates run on the kColumn path above -- only
    // column-parallel protected ops and direct crossbar users land here.
    check_lanes_distinct(o, lanes);
    const std::span<util::BitVector> row_store = mat_.rows_span();
    using Word = util::BitVector::Word;
    constexpr std::size_t kWordBits = util::BitVector::kWordBits;
    const std::size_t out_wi = out_line / kWordBits;
    const unsigned out_shift = static_cast<unsigned>(out_line % kWordBits);
    const Word out_bit_mask = Word{1} << out_shift;
    line_refs_.clear();
    for (const std::size_t line : in_lines) {
      line_refs_.push_back(
          {line / kWordBits, static_cast<unsigned>(line % kWordBits)});
    }
    std::size_t violations = 0;
    auto finish_row = [&](std::span<Word> words, Word any) {
      const Word out_was_lrs = (words[out_wi] >> out_shift) & 1u;
      violations += static_cast<std::size_t>(out_was_lrs ^ 1u);
      const Word driven = out_was_lrs & (any ^ 1u);
      words[out_wi] = (words[out_wi] & ~out_bit_mask) | (driven << out_shift);
    };
    auto for_each_lane = [&](auto&& per_row) {
      if (lanes.empty()) {
        for (util::BitVector& row : row_store) per_row(row.words_mutable());
      } else {
        for (const std::size_t lane : lanes) {
          per_row(row_store[lane].words_mutable());
        }
      }
    };
    if (line_refs_.size() == 1) {
      const LineRef a = line_refs_[0];
      for_each_lane([&](std::span<Word> words) {
        finish_row(words, (words[a.wi] >> a.shift) & 1u);
      });
    } else if (line_refs_.size() == 2) {
      const LineRef a = line_refs_[0];
      const LineRef b = line_refs_[1];
      for_each_lane([&](std::span<Word> words) {
        finish_row(words,
                   ((words[a.wi] >> a.shift) | (words[b.wi] >> b.shift)) & 1u);
      });
    } else {
      for_each_lane([&](std::span<Word> words) {
        Word any = 0;
        for (const LineRef& in : line_refs_) any |= words[in.wi] >> in.shift;
        finish_row(words, any & 1u);
      });
    }
    result.violations = violations;
  }
  // Activation accounting (see magic_init): kColumn's gate lines are the
  // driven wordlines; kRow drives the selected lane rows.
  if (o == Orientation::kColumn) {
    for (const std::size_t line : in_lines) ++row_activation_extra_[line];
    ++row_activation_extra_[out_line];
  } else if (lanes.empty()) {
    ++broadcast_activations_;
  } else {
    for (const std::size_t lane : lanes) ++row_activation_extra_[lane];
  }
  ++cycles_;
  ++nor_ops_;
  return result;
}

OpResult Crossbar::magic_not(Orientation o, std::size_t in_line, std::size_t out_line,
                             std::span<const std::size_t> lanes) {
  const std::size_t ins[1] = {in_line};
  return magic_nor(o, ins, out_line, lanes);
}

void Crossbar::reset_counters() noexcept {
  cycles_ = 0;
  nor_ops_ = 0;
  init_cycles_ = 0;
}

std::uint64_t Crossbar::row_activations(std::size_t r) const {
  if (r >= rows()) {
    throw std::out_of_range("Crossbar::row_activations: row out of range");
  }
  return broadcast_activations_ + row_activation_extra_[r];
}

std::vector<std::uint64_t> Crossbar::row_activation_snapshot() const {
  std::vector<std::uint64_t> snapshot(row_activation_extra_);
  for (std::uint64_t& count : snapshot) count += broadcast_activations_;
  return snapshot;
}

void Crossbar::reset_row_activations() noexcept {
  broadcast_activations_ = 0;
  std::fill(row_activation_extra_.begin(), row_activation_extra_.end(), 0);
}

}  // namespace pimecc::xbar
