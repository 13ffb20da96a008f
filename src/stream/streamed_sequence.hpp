// The VolumeSequence over a VolumeSource, fully resident or out of core.
//
// Every consumer of VolumeSequence (IATF synthesis, dataspace
// classification, 4D region growing, rendering, the painting session)
// runs on a StreamedSequence. Decoded steps live in a byte-budgeted
// CacheManager; the default unlimited budget keeps every loaded step
// resident. Lookahead decodes overlap compute via the Prefetcher, and
// derived products (histograms, cumulative histograms) are memoized in a
// DerivedCache so an evicted volume never has to come back just to answer
// a histogram query.
//
// Reference validity: step(t) auto-pins a window of `pin_radius` steps
// around t (recentring only when t falls outside the current window, so
// the {t-1, t, t+1} access pattern of 4D region growing never thrashes).
// References returned for steps inside the window stay valid until the
// window moves away from them; hint_window() sets the window explicitly.
// Under the unlimited default budget nothing is evicted, so every step
// reference stays valid for the sequence's lifetime.
// Cumulative-histogram references stay valid for the sequence's lifetime:
// the sequence keeps each one it returned, even after the DerivedCache
// sheds it.
//
// The server's ClientSequenceView (src/server/) is a StreamedSequence over
// the shared tier's store and DerivedCache; it overrides only the window
// pinning and access attribution hooks.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "stream/derived_cache.hpp"
#include "stream/volume_store.hpp"
#include "util/ordered_mutex.hpp"
#include "volume/sequence.hpp"

namespace ifet {

struct StreamConfig {
  /// Byte budget for decoded steps; 0 = unlimited (fully resident — the
  /// trivial cache the in-memory path reduces to).
  std::size_t budget_bytes = 0;
  /// Steps prefetched ahead of each access in the scan direction.
  int lookahead = 2;
  /// Auto-pinned window half-width around the last accessed step; 1 keeps
  /// {t-1, t, t+1} resident for 4D region growing.
  int pin_radius = 1;
  /// Overlap prefetch decode with compute on the shared thread pool; off =
  /// synchronous lookahead (deterministic, for tests).
  bool async_prefetch = true;
  int histogram_bins = 256;
  /// Retry/quarantine policy, forwarded to the VolumeStore (see
  /// docs/ROBUSTNESS.md).
  int max_retries = 2;
  double retry_backoff_ms = 0.0;
  FailPolicy fail_policy = FailPolicy::kThrow;
};

class StreamedSequence : public VolumeSequence {
 public:
  StreamedSequence(std::shared_ptr<const VolumeSource> source,
                   const StreamConfig& config = {});

  /// Stream a compressed .cvol sequence from disk.
  static std::unique_ptr<StreamedSequence> open_cvol(
      const std::string& path, const StreamConfig& config = {});

  Dims dims() const override { return store_.dims(); }
  int num_steps() const override { return store_.num_steps(); }
  std::pair<double, double> value_range() const override {
    return store_.value_range();
  }
  int histogram_bins() const override { return config_.histogram_bins; }

  const VolumeF& step(int step) const override IFET_EXCLUDES(mutex_);
  /// Under FailPolicy::kSkipStep a quarantined step yields nullptr here
  /// (and step() throws the CorruptDataError): tracking needs the exact
  /// voxels or nothing, so it bridges the gap instead of reading a
  /// substitute.
  const VolumeF* try_step(int step) const override IFET_EXCLUDES(mutex_);
  const CumulativeHistogram& cumulative_histogram(int step) const override
      IFET_EXCLUDES(mutex_);
  Histogram histogram(int step) const override;

  /// Source loads so far (demand + prefetch).
  std::size_t generation_count() const override {
    return store_.load_count();
  }

  /// Brick metadata via the store: ingest-time container section when
  /// present (no payload decode), else built from the decoded step;
  /// memoized in the store.
  std::shared_ptr<const BrickIndex> brick_index(int step) const override {
    return store_.brick_index(step);
  }

  void hint_window(int lo, int hi) const override IFET_EXCLUDES(mutex_);
  void prefetch_hint(int step) const override { store_.prefetch(step); }

  /// Combined counters: cache + prefetch + derived memoization.
  StreamStats stats() const;

  VolumeStore& store() const { return store_; }
  DerivedCache& derived_cache() const { return derived_; }

 protected:
  /// A sequence over a store and derived cache it does not own (the
  /// server's shared tier; both must outlive the sequence). The store's
  /// own policy must be kSkipStep, so that `config.fail_policy` decides
  /// what this sequence does with a quarantined step; `client_stats`
  /// (nullable, outlives the sequence) additionally counts its skips,
  /// substitutions and derived lookups. Only pin_radius, histogram_bins
  /// and fail_policy of `config` apply.
  StreamedSequence(VolumeStore& store, DerivedCache& derived,
                   const StreamConfig& config,
                   SharedStreamStats* client_stats);

  /// Pins the window [lo, hi] (clamped to the sequence; empty when
  /// lo > hi) after it moved; `center` is the step that moved it. Runs
  /// with mutex_ released: pinning triggers loads, and in synchronous-
  /// prefetch mode a load is a full disk decode that must never run under
  /// this mutex (pinned by tests/concurrency_regression_test.cpp).
  virtual void apply_window(int lo, int hi, int center) const {
    (void)center;
    store_.pin_window(lo, hi);
  }

  /// Called once per try_step before the fetch, for access attribution.
  virtual void on_access(int step) const { (void)step; }

 private:
  /// Window bookkeeping only: clamp [lo, hi] to the sequence, record it,
  /// and move held references outside it into `dropped` (the caller
  /// declares `dropped` before its lock guard, so any final VolumeF
  /// deallocation happens after mutex_ is released). Returns the clamped
  /// window, which the caller hands to apply_window AFTER unlocking.
  std::pair<int, int> set_window_locked(
      int lo, int hi,
      std::vector<std::shared_ptr<const VolumeF>>& dropped) const
      IFET_REQUIRES(mutex_);

  /// Store fetch + this sequence's FailPolicy, applied only when the store
  /// answers nullptr (a quarantined step under the store's kSkipStep):
  /// nullptr again under kSkipStep, the nearest loadable step under
  /// kNearestGood, CorruptDataError under kThrow.
  std::shared_ptr<const VolumeF> fetch_with_policy(int step) const;

  /// fetch() that degrades gracefully for derived products: a skipped
  /// (quarantined) step is answered with its nearest loadable neighbour
  /// whatever the policy, so histogram-driven consumers (IATF opacity
  /// ramps) keep working over gaps and every sequence sharing a
  /// DerivedCache memoizes the same product. Voxel-exact consumers go
  /// through try_step instead.
  std::shared_ptr<const VolumeF> fetch_or_substitute(int step) const;

  /// Set only by the owning constructor; declared before the references
  /// bound to them.
  std::unique_ptr<VolumeStore> owned_store_;
  std::unique_ptr<DerivedCache> owned_derived_;
  VolumeStore& store_;
  DerivedCache& derived_;
  StreamConfig config_;
  std::uint64_t hist_params_ = 0;  ///< histogram_params_hash(bins, range)
  SharedStreamStats* client_stats_ = nullptr;

  mutable OrderedMutex mutex_{MutexRank::kStreamedSequence};
  mutable int window_lo_ IFET_GUARDED_BY(mutex_) = 0;
  mutable int window_hi_ IFET_GUARDED_BY(mutex_) = -1;
  /// Steps of the active window whose references callers may hold; the
  /// shared_ptrs keep the data alive even across eviction.
  mutable std::map<int, std::shared_ptr<const VolumeF>> held_
      IFET_GUARDED_BY(mutex_);
  /// The first cumulative histogram returned per step: the DerivedCache
  /// may shed or invalidate its entry, and callers hold the reference for
  /// the sequence's lifetime.
  mutable std::map<int, std::shared_ptr<const CumulativeHistogram>>
      cumhists_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
