#include "util/bitmatrix.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace pimecc::util {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_storage_(rows, BitVector(cols)), rows_(rows), cols_(cols) {}

bool BitMatrix::get(std::size_t r, std::size_t c) const noexcept {
  assert(r < rows_ && c < cols_);
  return rows_storage_[r].get(c);
}

void BitMatrix::set(std::size_t r, std::size_t c, bool value) noexcept {
  assert(r < rows_ && c < cols_);
  rows_storage_[r].set(c, value);
}

bool BitMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("BitMatrix::at: index out of range");
  }
  return get(r, c);
}

bool BitMatrix::flip(std::size_t r, std::size_t c) noexcept {
  assert(r < rows_ && c < cols_);
  return rows_storage_[r].flip(c);
}

const BitVector& BitMatrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("BitMatrix::row: index out of range");
  return rows_storage_[r];
}

BitVector& BitMatrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("BitMatrix::row: index out of range");
  return rows_storage_[r];
}

BitVector BitMatrix::column(std::size_t c) const {
  BitVector v;
  column_into(c, v);
  return v;
}

void BitMatrix::column_into(std::size_t c, BitVector& out) const {
  // Validate before touching `out`: a throwing call must not clobber the
  // caller's buffer.
  if (c >= cols_) {
    throw std::out_of_range("BitMatrix::column_into: index out of range");
  }
  out.resize(rows_);
  if (rows_ == 0) return;
  // Single pass: accumulate one output word at a time and store it whole
  // (the protected-machine hot path peels two columns per operation, so
  // this runs without the zero-fill + OR double walk).
  const std::size_t wi = c / BitVector::kWordBits;
  const unsigned shift = static_cast<unsigned>(c % BitVector::kWordBits);
  const std::span<BitVector::Word> out_words = out.words_mutable();
  BitVector::Word acc = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    acc |= ((rows_storage_[r].words()[wi] >> shift) & 1u)
           << (r % BitVector::kWordBits);
    if ((r + 1) % BitVector::kWordBits == 0) {
      out_words[r / BitVector::kWordBits] = acc;
      acc = 0;
    }
  }
  if (rows_ % BitVector::kWordBits != 0) {
    out_words[(rows_ - 1) / BitVector::kWordBits] = acc;
  }
}

void BitMatrix::or_column_into(std::size_t c, BitVector& acc) const {
  if (c >= cols_) {
    throw std::out_of_range("BitMatrix::or_column_into: index out of range");
  }
  if (acc.size() != rows_) {
    throw std::invalid_argument("BitMatrix::or_column_into: length mismatch");
  }
  const std::size_t wi = c / BitVector::kWordBits;
  const unsigned shift = static_cast<unsigned>(c % BitVector::kWordBits);
  const std::span<BitVector::Word> acc_words = acc.words_mutable();
  for (std::size_t r = 0; r < rows_; ++r) {
    const BitVector::Word bit = (rows_storage_[r].words()[wi] >> shift) & 1u;
    acc_words[r / BitVector::kWordBits] |= bit << (r % BitVector::kWordBits);
  }
}

void BitMatrix::set_column(std::size_t c, const BitVector& values) {
  if (c >= cols_) throw std::out_of_range("BitMatrix::set_column: index out of range");
  if (values.size() != rows_) {
    throw std::invalid_argument("BitMatrix::set_column: length mismatch");
  }
  const std::size_t wi = c / BitVector::kWordBits;
  const unsigned shift = static_cast<unsigned>(c % BitVector::kWordBits);
  const BitVector::Word mask = BitVector::Word{1} << shift;
  const std::span<const BitVector::Word> value_words = values.words();
  for (std::size_t r = 0; r < rows_; ++r) {
    const BitVector::Word bit =
        (value_words[r / BitVector::kWordBits] >> (r % BitVector::kWordBits)) & 1u;
    BitVector::Word& w = rows_storage_[r].words_mutable()[wi];
    w = (w & ~mask) | (bit << shift);
  }
}

void BitMatrix::row_assign_masked(std::size_t r, const BitVector& values,
                                  const BitVector& mask) {
  if (r >= rows_) {
    throw std::out_of_range("BitMatrix::row_assign_masked: index out of range");
  }
  rows_storage_[r].assign_masked(values, mask);
}

void BitMatrix::fill(bool value) noexcept {
  for (auto& row_vec : rows_storage_) row_vec.fill(value);
}

std::size_t BitMatrix::count() const noexcept {
  std::size_t total = 0;
  for (const auto& row_vec : rows_storage_) total += row_vec.count();
  return total;
}

std::size_t BitMatrix::hamming_distance(const BitMatrix& other) const {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("BitMatrix::hamming_distance: shape mismatch");
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    total += rows_storage_[r].hamming_distance(other.rows_storage_[r]);
  }
  return total;
}

namespace {

/// One round of the in-place 64 x 64 tile transpose: swaps the
/// off-diagonal J x J sub-blocks of every 2J x 2J block -- the high J
/// columns of row k trade places with the low J columns of row k + J.
/// `mask` selects the low J bits of every 2J-bit group.  The inner loop
/// runs over contiguous rows, so it vectorizes.
template <std::size_t J>
void transpose_round(std::array<std::uint64_t, 64>& tile,
                     std::uint64_t mask) noexcept {
  for (std::size_t base = 0; base < 64; base += 2 * J) {
    for (std::size_t k = base; k < base + J; ++k) {
      const std::uint64_t t = ((tile[k] >> J) ^ tile[k + J]) & mask;
      tile[k] ^= t << J;
      tile[k + J] ^= t;
    }
  }
}

/// In-place transpose of a 64 x 64 bit tile, tile[r] bit c -> tile[c] bit r
/// (Hacker's Delight 7-3, written for LSB-first bit order).
void transpose_tile(std::array<std::uint64_t, 64>& tile) noexcept {
  transpose_round<32>(tile, 0x00000000FFFFFFFFull);
  transpose_round<16>(tile, 0x0000FFFF0000FFFFull);
  transpose_round<8>(tile, 0x00FF00FF00FF00FFull);
  transpose_round<4>(tile, 0x0F0F0F0F0F0F0F0Full);
  transpose_round<2>(tile, 0x3333333333333333ull);
  transpose_round<1>(tile, 0x5555555555555555ull);
}

}  // namespace

BitMatrix transpose(const BitMatrix& mat) {
  BitMatrix out;
  transpose_into(mat, out);
  return out;
}

void transpose_into(const BitMatrix& mat, BitMatrix& out) {
  constexpr std::size_t kW = BitVector::kWordBits;
  if (out.rows() != mat.cols() || out.cols() != mat.rows()) {
    out = BitMatrix(mat.cols(), mat.rows());
  }
  const std::span<const BitVector> in_rows = mat.rows_span();
  const std::span<BitVector> out_rows = out.rows_span();
  std::array<std::uint64_t, 64> tile;
  for (std::size_t r0 = 0; r0 < mat.rows(); r0 += kW) {
    const std::size_t tile_rows = std::min(kW, mat.rows() - r0);
    for (std::size_t c0 = 0; c0 < mat.cols(); c0 += kW) {
      const std::size_t tile_cols = std::min(kW, mat.cols() - c0);
      const std::size_t in_word = c0 / kW;
      for (std::size_t k = 0; k < tile_rows; ++k) {
        tile[k] = in_rows[r0 + k].words()[in_word];
      }
      for (std::size_t k = tile_rows; k < kW; ++k) tile[k] = 0;
      transpose_tile(tile);
      // Only the first tile_cols results are real rows of `out`; the rest
      // hold whatever sat in the input rows' padding and are dropped.
      const std::size_t out_word = r0 / kW;
      for (std::size_t k = 0; k < tile_cols; ++k) {
        out_rows[c0 + k].words_mutable()[out_word] = tile[k];
      }
    }
  }
}

}  // namespace pimecc::util
