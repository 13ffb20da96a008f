#include "server/client_view.hpp"

namespace ifet {

ClientSequenceView::ClientSequenceView(StreamTier& tier, int pin_radius,
                                       FailPolicy fail_policy)
    : StreamedSequence(tier.store(), tier.derived(),
                       {.pin_radius = pin_radius,
                        .histogram_bins = tier.histogram_bins(),
                        .fail_policy = fail_policy},
                       &stats_),
      tier_(tier),
      client_(tier.admission().register_client()) {}

ClientSequenceView::~ClientSequenceView() {
  // Give back everything this client pinned; the counted cache pins
  // compose, so a step another client also pinned stays pinned.
  OrderedMutexLock order(tier_.admission().delta_order());
  std::vector<int> unpin = tier_.admission().release_client(client_);
  CacheManager& cache = tier_.store().cache();
  for (int s : unpin) cache.unpin(s);
}

void ClientSequenceView::apply_window(int lo, int hi, int center) const {
  // Admission is a leaf lock and cache pins trigger loads, so both run
  // with the sequence mutex released (StreamedSequence calls this hook
  // after unlocking).
  WindowDelta delta;
  {
    OrderedMutexLock order(tier_.admission().delta_order());
    delta = tier_.admission().set_window(client_, lo, hi, center);
    CacheManager& cache = tier_.store().cache();
    for (int s : delta.unpin) cache.unpin(s);
    for (int s : delta.pin) cache.pin(s);
  }
  // Warm the newly pinned slots; the center is what triggered the move
  // and is being fetched by the caller already.
  for (int s : delta.pin) {
    if (s != center) tier_.store().prefetch(s);
  }
}

void ClientSequenceView::on_access(int step) const {
  // Residency is probed without stat side effects so a fetch never
  // double-counts in the shared cache's own counters. The probe can race
  // an eviction — it feeds stats, not correctness.
  const bool resident = tier_.store().cache().resident(step);
  stats_.count_access(resident);
  tier_.admission().note_access(client_, step, resident);
}

}  // namespace ifet
