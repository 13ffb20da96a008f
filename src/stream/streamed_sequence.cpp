#include "stream/streamed_sequence.hpp"

#include <algorithm>

#include "io/compressed.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

namespace ifet {

namespace {
VolumeStoreConfig store_config(const StreamConfig& c) {
  VolumeStoreConfig out;
  out.budget_bytes = c.budget_bytes;
  out.lookahead = c.lookahead;
  out.async_prefetch = c.async_prefetch;
  out.max_retries = c.max_retries;
  out.retry_backoff_ms = c.retry_backoff_ms;
  out.fail_policy = c.fail_policy;
  return out;
}

const StreamConfig& validated(const StreamConfig& c) {
  IFET_REQUIRE(c.histogram_bins > 0, "StreamedSequence: need histogram bins");
  IFET_REQUIRE(c.pin_radius >= 0,
               "StreamedSequence: pin_radius must be >= 0");
  return c;
}
}  // namespace

StreamedSequence::StreamedSequence(std::shared_ptr<const VolumeSource> source,
                                   const StreamConfig& config)
    : owned_store_(std::make_unique<VolumeStore>(std::move(source),
                                                 store_config(config))),
      owned_derived_(std::make_unique<DerivedCache>()),
      store_(*owned_store_),
      derived_(*owned_derived_),
      config_(validated(config)),
      hist_params_(histogram_params_hash(config.histogram_bins,
                                         store_.value_range())) {}

StreamedSequence::StreamedSequence(VolumeStore& store, DerivedCache& derived,
                                   const StreamConfig& config,
                                   SharedStreamStats* client_stats)
    : store_(store),
      derived_(derived),
      config_(validated(config)),
      hist_params_(histogram_params_hash(config.histogram_bins,
                                         store.value_range())),
      client_stats_(client_stats) {
  IFET_REQUIRE(store.config().fail_policy == FailPolicy::kSkipStep,
               "StreamedSequence: a borrowed store must skip quarantined "
               "steps so the sequence's own fail policy applies");
}

std::unique_ptr<StreamedSequence> StreamedSequence::open_cvol(
    const std::string& path, const StreamConfig& config) {
  return std::make_unique<StreamedSequence>(
      std::make_shared<CompressedFileSource>(path), config);
}

std::pair<int, int> StreamedSequence::set_window_locked(
    int lo, int hi,
    std::vector<std::shared_ptr<const VolumeF>>& dropped) const {
  lo = std::max(lo, 0);
  hi = std::min(hi, num_steps() - 1);
  window_lo_ = lo;
  window_hi_ = hi;
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->first < lo || it->first > hi) {
      dropped.push_back(std::move(it->second));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  return {lo, hi};
}

std::shared_ptr<const VolumeF> StreamedSequence::fetch_with_policy(
    int step) const {
  auto volume = store_.fetch(step);
  // A store this sequence owns applies kThrow and kNearestGood itself, so
  // only kSkipStep reaches the switch; a borrowed store always skips.
  if (volume) return volume;
  switch (config_.fail_policy) {
    case FailPolicy::kThrow:
      throw CorruptDataError(
          "StreamedSequence: step " + std::to_string(step) +
          " is quarantined (this sequence's fail policy is kThrow)");
    case FailPolicy::kSkipStep:
      if (client_stats_ != nullptr) client_stats_->count_skipped_fetch();
      return nullptr;
    case FailPolicy::kNearestGood:
      break;
  }
  volume = store_.nearest_loadable(step);
  if (client_stats_ != nullptr) client_stats_->count_substitution();
  return volume;
}

std::shared_ptr<const VolumeF> StreamedSequence::fetch_or_substitute(
    int step) const {
  auto volume = store_.fetch(step);
  return volume ? volume : store_.nearest_loadable(step);
}

const VolumeF& StreamedSequence::step(int step) const {
  const VolumeF* volume = try_step(step);
  if (volume == nullptr) {
    throw CorruptDataError(
        "StreamedSequence: step " + std::to_string(step) +
        " is quarantined and the fail policy skips it (consumers that can "
        "bridge gaps use try_step)");
  }
  return *volume;
}

const VolumeF* StreamedSequence::try_step(int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  on_access(step);
  auto volume = fetch_with_policy(step);
  if (!volume) return nullptr;  // quarantined under FailPolicy::kSkipStep
  bool moved = false;
  std::pair<int, int> window{0, -1};
  const VolumeF* ref = nullptr;
  std::vector<std::shared_ptr<const VolumeF>> dropped;
  {
    OrderedMutexLock lock(mutex_);
    if (step < window_lo_ || step > window_hi_) {
      window = set_window_locked(step - config_.pin_radius,
                                 step + config_.pin_radius, dropped);
      moved = true;
    }
    auto& slot = held_[step];
    slot = std::move(volume);
    ref = slot.get();
  }
  // Pinning (and the loads it triggers) runs with mutex_ released: the
  // store, its loader and the admission ledger are call-outs, never
  // callees under this lock. Two racing window moves may pin in either
  // order; held_ keeps every returned reference alive regardless, so the
  // pin order is a residency hint, not a correctness contract.
  if (moved) apply_window(window.first, window.second, step);
  return ref;
}

const CumulativeHistogram& StreamedSequence::cumulative_histogram(
    int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  auto [lo, hi] = store_.value_range();
  auto cumhist = derived_.cumulative_histogram(
      step, hist_params_,
      [&]() -> CumulativeHistogram {
        auto volume = fetch_or_substitute(step);
        return CumulativeHistogram(
            Histogram::of(*volume, config_.histogram_bins, lo, hi));
      },
      client_stats_);
  // The first product returned for a step stays the answer (a recomputed
  // one after shedding is identical), so no earlier reference dangles.
  OrderedMutexLock lock(mutex_);
  return *cumhists_.try_emplace(step, std::move(cumhist)).first->second;
}

Histogram StreamedSequence::histogram(int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  auto [lo, hi] = store_.value_range();
  auto hist = derived_.histogram(
      step, hist_params_,
      [&]() -> Histogram {
        auto volume = fetch_or_substitute(step);
        return Histogram::of(*volume, config_.histogram_bins, lo, hi);
      },
      client_stats_);
  return *hist;
}

void StreamedSequence::hint_window(int lo, int hi) const {
  IFET_REQUIRE(lo <= hi, "StreamedSequence::hint_window: inverted window");
  std::pair<int, int> window;
  std::vector<std::shared_ptr<const VolumeF>> dropped;
  {
    OrderedMutexLock lock(mutex_);
    window = set_window_locked(lo, hi, dropped);
  }
  apply_window(window.first, window.second,
               window.first + (window.second - window.first) / 2);
}

StreamStats StreamedSequence::stats() const {
  StreamStats out = store_.stats();
  out.merge(derived_.stats());
  return out;
}

}  // namespace ifet
