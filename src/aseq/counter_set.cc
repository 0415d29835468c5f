#include "aseq/counter_set.h"

#include "ckpt/ckpt.h"

namespace aseq {

CounterSet::CounterSet(size_t length, AggFunc func, size_t carrier_pos1,
                       Timestamp window_ms, EngineStats* stats)
    : length_(length),
      func_(func),
      carrier_(carrier_pos1),
      window_ms_(window_ms),
      stats_(stats) {
  if (window_ms_ == 0) {
    single_.emplace(length_, func_, carrier_);
    if (stats_ != nullptr) stats_->objects.Add(1);
  }
}

CounterSet::~CounterSet() {
  if (stats_ != nullptr) {
    stats_->objects.Remove(static_cast<int64_t>(entries_.size()) +
                           (single_.has_value() ? 1 : 0));
  }
}

CounterSet::CounterSet(CounterSet&& other) noexcept
    : length_(other.length_),
      func_(other.func_),
      carrier_(other.carrier_),
      window_ms_(other.window_ms_),
      stats_(other.stats_),
      entries_(std::move(other.entries_)),
      single_(std::move(other.single_)) {
  // Ownership of the object accounting moves with the state.
  other.stats_ = nullptr;
  other.entries_.clear();
  other.single_.reset();
}

void CounterSet::Apply(PrefixCounter& counter, size_t pos, double value,
                       TotalSink sink) {
  if (pos != length_ || (sink.count == nullptr && sink.sum == nullptr)) {
    if (!counter.ApplyPositive(pos, value)) NoteOverflow();
    return;
  }
  const uint64_t before = counter.count_at(length_);
  const double old_wsum = sink.sum != nullptr ? counter.wsum_at(length_) : 0.0;
  bool ok = counter.ApplyPositive(pos, value);
  if (sink.count != nullptr) {
    ok &= CountAdd(sink.count, counter.count_at(length_) - before);
  }
  if (sink.sum != nullptr) {
    const double new_wsum = counter.wsum_at(length_);
    if (new_wsum != old_wsum) {
      // Add-then-retract is exact, so the sink stays the exact sum of the
      // live tails whatever order the updates arrive in.
      sink.sum->Add(new_wsum);
      sink.sum->Sub(old_wsum);
    }
  }
  if (!ok) NoteOverflow();
}

void CounterSet::Retract(const PrefixCounter& counter, TotalSink sink) {
  if (sink.count != nullptr &&
      !CountSub(sink.count, counter.count_at(length_))) {
    NoteOverflow();
  }
  if (sink.sum != nullptr) sink.sum->Sub(counter.wsum_at(length_));
}

void CounterSet::Purge(Timestamp now, TotalSink sink) {
  while (!entries_.empty() && entries_.front().exp <= now) {
    Retract(entries_.front().counter, sink);
    entries_.pop_front();
    if (stats_ != nullptr) stats_->objects.Remove(1);
  }
}

void CounterSet::OnStart(const Event& e, double value, TotalSink sink) {
  if (!windowed()) {
    Apply(*single_, 1, value, sink);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  Entry entry{e.ts() + window_ms_, PrefixCounter(length_, func_, carrier_)};
  Apply(entry.counter, 1, value, sink);  // a full match iff L == 1
  entries_.push_back(std::move(entry));
  if (stats_ != nullptr) {
    stats_->objects.Add(1);
    ++stats_->work_units;
  }
}

void CounterSet::ApplyUpdate(size_t pos, double value, TotalSink sink) {
  if (!windowed()) {
    Apply(*single_, pos, value, sink);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  for (Entry& entry : entries_) {
    Apply(entry.counter, pos, value, sink);
  }
  if (stats_ != nullptr) stats_->work_units += entries_.size();
}

void CounterSet::ResetPrefix(size_t gap) {
  if (!windowed()) {
    single_->ResetPrefix(gap);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  for (Entry& entry : entries_) {
    entry.counter.ResetPrefix(gap);
  }
  if (stats_ != nullptr) stats_->work_units += entries_.size();
}

void CounterSet::MergeExtInto(AggAccum* acc) const {
  if (Invertible(func_)) return;
  auto merge_ext = [&](const PrefixCounter& counter) {
    if (counter.has_ext_at(length_)) {
      acc->MergeExt(counter.ext_at(length_), func_);
    }
  };
  if (!windowed()) {
    merge_ext(*single_);
  } else {
    for (const Entry& entry : entries_) merge_ext(entry.counter);
  }
}

void CounterSet::AddTailSums(ExactSum* sum) const {
  if (!windowed()) {
    sum->Add(single_->wsum_at(length_));
  } else {
    for (const Entry& entry : entries_) {
      sum->Add(entry.counter.wsum_at(length_));
    }
  }
}

size_t CounterSet::num_counters() const {
  return windowed() ? entries_.size() : 1;
}

void CounterSet::Checkpoint(ckpt::Writer* w) const {
  w->WriteBool(windowed());
  if (!windowed()) {
    single_->Checkpoint(w);
    return;
  }
  w->WriteU64(entries_.size());
  for (const Entry& entry : entries_) {
    w->WriteI64(entry.exp);
    entry.counter.Checkpoint(w);
  }
}

Status CounterSet::Restore(ckpt::Reader* r) {
  bool windowed_flag = false;
  ASEQ_RETURN_NOT_OK(r->ReadBool(&windowed_flag, "counter set mode"));
  if (windowed_flag != windowed()) {
    return Status::ParseError(
        "snapshot corrupt: counter set mode mismatch (snapshot is " +
        std::string(windowed_flag ? "windowed" : "unbounded") +
        ", query compiles to the opposite)");
  }
  if (!windowed()) {
    ASEQ_RETURN_NOT_OK(single_->Restore(r));
  } else {
    ASEQ_RETURN_NOT_OK(RestoreEntries(r));
  }
  return Status::OK();
}

Status CounterSet::RestoreEntries(ckpt::Reader* r) {
  uint64_t n = 0;
  // A serialized entry is at least 8 (exp) + 8 (counter length) bytes.
  ASEQ_RETURN_NOT_OK(r->ReadCount(&n, 16, "counter set entries"));
  entries_.clear();
  Timestamp prev_exp = std::numeric_limits<Timestamp>::min();
  for (uint64_t i = 0; i < n; ++i) {
    Entry entry{0, PrefixCounter(length_, func_, carrier_)};
    ASEQ_RETURN_NOT_OK(r->ReadI64(&entry.exp, "counter entry expiry"));
    if (entry.exp < prev_exp) {
      return Status::ParseError(
          "snapshot corrupt: counter entries out of expiry order");
    }
    prev_exp = entry.exp;
    ASEQ_RETURN_NOT_OK(entry.counter.Restore(r));
    entries_.push_back(std::move(entry));
  }
  return Status::OK();
}

}  // namespace aseq
