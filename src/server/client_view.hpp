// Per-client VolumeSequence view over the shared StreamTier.
//
// Every client session of the multi-tenant server reads the sequence
// through its own ClientSequenceView: a StreamedSequence over the tier's
// shared store and DerivedCache, so the window, held references, the
// client's OWN FailPolicy (over the tier's kSkipStep store) and the
// histogram paths are StreamedSequence's. The existing single-tenant
// pipelines (PaintingSession, TfSession, Tracker, the renderer) run
// unchanged on top — a view IS a VolumeSequence.
//
// The view adds two things. Window pins go through the
// AdmissionController, so a client whose window exceeds its pin quota
// gets the excess steps admitted-denied: they still load and still return
// exact bytes, they are just evictable. Residency is per-client shaped;
// data never is. And every access is attributed to the client's
// SharedStreamStats and admission ledger.
#pragma once

#include "server/stream_tier.hpp"
#include "stream/streamed_sequence.hpp"

namespace ifet {

class ClientSequenceView final : public StreamedSequence {
 public:
  /// `pin_radius` is the auto-pinned window half-width around the last
  /// accessed step; `fail_policy` is this client's policy for quarantined
  /// steps, independent of every other client's.
  explicit ClientSequenceView(StreamTier& tier, int pin_radius = 1,
                              FailPolicy fail_policy = FailPolicy::kThrow);
  /// Unpins the client's window and retires its admission ledger.
  ~ClientSequenceView() override;

  /// This client's access/derived/fault counters (lock-free to read).
  SharedStreamStats& client_stats() const { return stats_; }
  /// This client's admission ledger snapshot (pins, denials, reloads).
  AdmissionStats admission_stats() const {
    return tier_.admission().client_stats(client_);
  }

 protected:
  /// Pushes the window through admission and applies the resulting
  /// pin/unpin delta to the shared cache.
  void apply_window(int lo, int hi, int center) const override;
  /// Residency probe + this client's stats and admission ledger.
  void on_access(int step) const override;

 private:
  StreamTier& tier_;
  int client_ = -1;
  mutable SharedStreamStats stats_;
};

}  // namespace ifet
