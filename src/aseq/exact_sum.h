#ifndef ASEQ_ASEQ_EXACT_SUM_H_
#define ASEQ_ASEQ_EXACT_SUM_H_

#include <array>
#include <bit>
#include <cstdint>

#include "common/status.h"

namespace aseq {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// \brief An exact, order-independent, invertible sum of doubles.
///
/// A Kulisch-style long accumulator: the finite part is one two's-complement
/// fixed-point integer of kLimbs 64-bit limbs whose bit 0 weighs 2^-1074
/// (the smallest subnormal). Every finite double is an integer multiple of
/// 2^-1074 below 2^1024, so it lands exactly in bits 0..2097; the remaining
/// 78 bits are carry headroom and the sign. Hence:
///
///   * Add(x) followed by Sub(x) restores the previous state bit-for-bit;
///   * the state after any sequence of Add/Sub/Merge calls depends only on
///     the multiset of operands, never on their order;
///   * Finalize() rounds the exact value once, to nearest-even.
///
/// Non-finite operands cannot live in the fixed point. They are counted
/// instead — NaN, +inf and -inf separately, +1 per Add and -1 per Sub —
/// which keeps them invertible too; Finalize() then reports NaN, or the
/// infinity whose net count is non-zero (NaN when both signs are present).
/// Signed zeros carry no magnitude: an exact zero finalizes to +0.0.
///
/// Fixed-size and trivially copyable (296 bytes): engines keep one per
/// running total, never one per prefix-counter cell.
class ExactSum {
 public:
  static constexpr int kLimbs = 34;

  void Add(double x) { Accumulate(x, /*negate=*/false); }
  void Sub(double x) { Accumulate(x, /*negate=*/true); }

  /// Adds every operand `other` has seen (limb-wise, with carry).
  void Merge(const ExactSum& other);

  /// The exact sum rounded to the nearest double (ties to even); ±inf when
  /// it overflows the double range.
  double Finalize() const;

  bool operator==(const ExactSum& other) const = default;

  /// Serializes the exact state verbatim (limbs, then the non-finite
  /// counts), for owners that cannot rebuild it from retained operands.
  void Checkpoint(ckpt::Writer* w) const;
  Status Restore(ckpt::Reader* r);

 private:
  void Accumulate(double x, bool negate) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    const uint32_t biased = static_cast<uint32_t>(bits >> 52) & 0x7ffu;
    if (biased == 0x7ffu) {
      AccumulateNonFinite(bits, negate);
      return;
    }
    uint64_t mant = bits & kFracMask;
    // value = mant * 2^(pos - 1074): subnormals sit at bit 0, normals carry
    // the hidden bit one position below their biased exponent.
    uint32_t pos = 0;
    if (biased != 0) {
      mant |= kHiddenBit;
      pos = biased - 1;
    }
    if (mant == 0) return;  // ±0
    const uint32_t i = pos >> 6;
    const unsigned __int128 wide = static_cast<unsigned __int128>(mant)
                                   << (pos & 63u);
    const uint64_t lo = static_cast<uint64_t>(wide);
    const uint64_t hi = static_cast<uint64_t>(wide >> 64);
    // Subtracting |x| adds -x; flipping the sign bit per `negate` picks the
    // direction. Carries/borrows ripple until they stop (at most to the top
    // limb, where two's-complement wraparound is the sign change).
    if (((bits >> 63) != 0) == negate) {
      bool c = __builtin_add_overflow(limbs_[i], lo, &limbs_[i]);
      bool c2 = __builtin_add_overflow(limbs_[i + 1], hi, &limbs_[i + 1]);
      c2 |= __builtin_add_overflow(limbs_[i + 1], uint64_t{c}, &limbs_[i + 1]);
      for (uint32_t j = i + 2; c2 && j < kLimbs; ++j) c2 = ++limbs_[j] == 0;
    } else {
      bool b = __builtin_sub_overflow(limbs_[i], lo, &limbs_[i]);
      bool b2 = __builtin_sub_overflow(limbs_[i + 1], hi, &limbs_[i + 1]);
      b2 |= __builtin_sub_overflow(limbs_[i + 1], uint64_t{b}, &limbs_[i + 1]);
      for (uint32_t j = i + 2; b2 && j < kLimbs; ++j) b2 = limbs_[j]-- == 0;
    }
  }

  void AccumulateNonFinite(uint64_t bits, bool negate);

  static constexpr uint64_t kFracMask = (uint64_t{1} << 52) - 1;
  static constexpr uint64_t kHiddenBit = uint64_t{1} << 52;

  std::array<uint64_t, kLimbs> limbs_{};
  // Net operand counts of the non-finite classes (Add +1, Sub -1).
  int64_t nan_ = 0;
  int64_t pos_inf_ = 0;
  int64_t neg_inf_ = 0;
};

}  // namespace aseq

#endif  // ASEQ_ASEQ_EXACT_SUM_H_
