#include "aseq/prefix_counter.h"

#include <cassert>

#include "ckpt/ckpt.h"

namespace aseq {

PrefixCounter::PrefixCounter(size_t length, AggFunc func, size_t carrier_pos1)
    : length_(length), func_(func), carrier_(carrier_pos1) {
  assert(length_ >= 1);
  counts_.assign(length_ + 1, 0);
  counts_[0] = 1;  // virtual empty prefix
  if (func_ == AggFunc::kSum || func_ == AggFunc::kAvg) {
    assert(carrier_ >= 1 && carrier_ <= length_);
    wsum_.assign(length_ + 1, 0.0);
  } else if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
    assert(carrier_ >= 1 && carrier_ <= length_);
    ext_.assign(length_ + 1, 0.0);
    ext_valid_.assign(length_ + 1, 0);
  }
}

bool PrefixCounter::ApplyPositive(size_t pos, double value) {
  assert(pos >= 1 && pos <= length_);
  const uint64_t prev = counts_[pos - 1];
  if (!wsum_.empty()) {
    if (pos == carrier_) {
      wsum_[pos] += static_cast<double>(prev) * value;
    } else if (pos > carrier_) {
      wsum_[pos] += wsum_[pos - 1];
    }
  }
  if (!ext_.empty()) {
    if (pos == carrier_) {
      if (prev > 0) {
        if (!ext_valid_[pos]) {
          ext_[pos] = value;
          ext_valid_[pos] = 1;
        } else if (func_ == AggFunc::kMin ? (value < ext_[pos])
                                          : (value > ext_[pos])) {
          ext_[pos] = value;
        }
      }
    } else if (pos > carrier_) {
      if (ext_valid_[pos - 1]) {
        if (!ext_valid_[pos]) {
          ext_[pos] = ext_[pos - 1];
          ext_valid_[pos] = 1;
        } else if (func_ == AggFunc::kMin ? (ext_[pos - 1] < ext_[pos])
                                          : (ext_[pos - 1] > ext_[pos])) {
          ext_[pos] = ext_[pos - 1];
        }
      }
    }
  }
  return CountAdd(&counts_[pos], prev);
}

void PrefixCounter::ResetPrefix(size_t gap) {
  assert(gap >= 1 && gap < length_);
  counts_[gap] = 0;
  if (!wsum_.empty() && gap >= carrier_) wsum_[gap] = 0.0;
  if (!ext_.empty() && gap >= carrier_) {
    ext_[gap] = 0.0;
    ext_valid_[gap] = 0;
  }
}

AggAccum PrefixCounter::At(size_t m) const {
  assert(m >= 1 && m <= length_);
  AggAccum acc;
  acc.count = counts_[m];
  acc.sum.Add(wsum_at(m));
  if (has_ext_at(m)) {
    acc.has_ext = true;
    acc.ext = ext_[m];
  }
  return acc;
}

void PrefixCounter::Checkpoint(ckpt::Writer* w) const {
  w->WriteU64(length_);
  for (size_t m = 0; m <= length_; ++m) w->WriteU64(counts_[m]);
  if (!wsum_.empty()) {
    for (size_t m = 0; m <= length_; ++m) w->WriteDouble(wsum_[m]);
  }
  if (!ext_.empty()) {
    for (size_t m = 0; m <= length_; ++m) {
      w->WriteDouble(ext_[m]);
      w->WriteU8(ext_valid_[m]);
    }
  }
}

Status PrefixCounter::Restore(ckpt::Reader* r) {
  uint64_t length = 0;
  ASEQ_RETURN_NOT_OK(r->ReadU64(&length, "prefix counter length"));
  if (length != length_) {
    return Status::ParseError(
        "snapshot corrupt: prefix counter has length " +
        std::to_string(length) + " but the query expects " +
        std::to_string(length_));
  }
  for (size_t m = 0; m <= length_; ++m) {
    ASEQ_RETURN_NOT_OK(r->ReadU64(&counts_[m], "prefix counter cell"));
  }
  if (counts_[0] != 1) {
    return Status::ParseError(
        "snapshot corrupt: prefix counter virtual cell 0 holds " +
        std::to_string(counts_[0]) + " (must be 1)");
  }
  if (!wsum_.empty()) {
    for (size_t m = 0; m <= length_; ++m) {
      ASEQ_RETURN_NOT_OK(r->ReadDouble(&wsum_[m], "prefix counter wsum"));
    }
  }
  if (!ext_.empty()) {
    for (size_t m = 0; m <= length_; ++m) {
      ASEQ_RETURN_NOT_OK(r->ReadDouble(&ext_[m], "prefix counter ext"));
      ASEQ_RETURN_NOT_OK(r->ReadU8(&ext_valid_[m], "prefix counter ext flag"));
    }
  }
  return Status::OK();
}

std::string PrefixCounter::ToString() const {
  std::string out = "[";
  for (size_t m = 1; m <= length_; ++m) {
    if (m > 1) out += " ";
    out += std::to_string(counts_[m]);
  }
  out += "]";
  return out;
}

}  // namespace aseq
