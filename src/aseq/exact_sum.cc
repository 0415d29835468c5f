#include "aseq/exact_sum.h"

#include <limits>

#include "ckpt/ckpt.h"

namespace aseq {

void ExactSum::AccumulateNonFinite(uint64_t bits, bool negate) {
  const int64_t step = negate ? -1 : 1;
  if ((bits & kFracMask) != 0) {
    nan_ += step;
  } else if ((bits >> 63) != 0) {
    neg_inf_ += step;
  } else {
    pos_inf_ += step;
  }
}

void ExactSum::Merge(const ExactSum& other) {
  bool carry = false;
  for (int j = 0; j < kLimbs; ++j) {
    bool c = __builtin_add_overflow(limbs_[j], other.limbs_[j], &limbs_[j]);
    c |= __builtin_add_overflow(limbs_[j], uint64_t{carry}, &limbs_[j]);
    carry = c;
  }
  nan_ += other.nan_;
  pos_inf_ += other.pos_inf_;
  neg_inf_ += other.neg_inf_;
}

double ExactSum::Finalize() const {
  // A net -inf count is a retracted +inf and vice versa.
  const bool has_pos_inf = pos_inf_ > 0 || neg_inf_ < 0;
  const bool has_neg_inf = pos_inf_ < 0 || neg_inf_ > 0;
  if (nan_ != 0 || (has_pos_inf && has_neg_inf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (has_pos_inf) return std::numeric_limits<double>::infinity();
  if (has_neg_inf) return -std::numeric_limits<double>::infinity();

  // Round |value|, then reattach the sign.
  const bool negative = (limbs_[kLimbs - 1] >> 63) != 0;
  std::array<uint64_t, kLimbs> neg_mag;
  const uint64_t* mag = limbs_.data();
  if (negative) {
    bool carry = true;
    for (int j = 0; j < kLimbs; ++j) {
      neg_mag[j] = ~limbs_[j] + uint64_t{carry};
      carry = carry && neg_mag[j] == 0;
    }
    mag = neg_mag.data();
  }
  int top = kLimbs - 1;
  while (top >= 0 && mag[top] == 0) --top;
  if (top < 0) return 0.0;
  const uint64_t sign = negative ? uint64_t{1} << 63 : 0;
  // Index of the most significant set bit; bit 0 weighs 2^-1074.
  const int msb = top * 64 + 63 - std::countl_zero(mag[top]);
  if (msb < 53) {
    // Below 2^53 ulps the value is exactly representable, and the IEEE
    // encoding of k * 2^-1074 (k < 2^53) is k itself — subnormal or not.
    return std::bit_cast<double>(sign | mag[0]);
  }
  // The 64 bits ending at msb (leading bit set), plus a sticky bit for
  // everything below them.
  const int low = msb - 63;
  uint64_t window = 0;
  bool sticky = false;
  if (low <= 0) {
    window = mag[0] << -low;
  } else {
    const int j = low >> 6;
    const int b = low & 63;
    window = b == 0 ? mag[j] : (mag[j] >> b) | (mag[j + 1] << (64 - b));
    sticky = b != 0 && (mag[j] & ((uint64_t{1} << b) - 1)) != 0;
    for (int k = 0; k < j && !sticky; ++k) sticky = mag[k] != 0;
  }
  uint64_t mant = window >> 11;  // 53 significant bits
  const uint64_t rest = window & 0x7ffu;
  // mant * 2^(msb - 52 - 1074) == mant * 2^(biased - 1075).
  uint64_t biased = static_cast<uint64_t>(msb - 51);
  constexpr uint64_t kHalf = 0x400;
  if (rest > kHalf || (rest == kHalf && (sticky || (mant & 1) != 0))) {
    if (++mant == (uint64_t{1} << 53)) {
      mant >>= 1;
      ++biased;
    }
  }
  if (biased >= 0x7ff) {
    return negative ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity();
  }
  return std::bit_cast<double>(sign | (biased << 52) | (mant & kFracMask));
}

void ExactSum::Checkpoint(ckpt::Writer* w) const {
  for (uint64_t limb : limbs_) w->WriteU64(limb);
  w->WriteI64(nan_);
  w->WriteI64(pos_inf_);
  w->WriteI64(neg_inf_);
}

Status ExactSum::Restore(ckpt::Reader* r) {
  for (uint64_t& limb : limbs_) {
    ASEQ_RETURN_NOT_OK(r->ReadU64(&limb, "exact sum limb"));
  }
  ASEQ_RETURN_NOT_OK(r->ReadI64(&nan_, "exact sum NaN count"));
  ASEQ_RETURN_NOT_OK(r->ReadI64(&pos_inf_, "exact sum +inf count"));
  return r->ReadI64(&neg_inf_, "exact sum -inf count");
}

}  // namespace aseq
