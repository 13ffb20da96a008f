// Learning-based feature extraction in the data space (paper Sec 4.3).
//
// The scientist paints positive ("feature") and negative ("not the
// feature") voxels on a few time steps; each painted voxel becomes one
// training sample whose input is its feature vector (value, shell
// neighborhood, position, time — see feature_vector.hpp) and whose target
// is the class certainty. After training, classify() runs the network over
// every voxel of a step, producing a certainty volume that the renderer
// uses to assign opacity — and that can suppress the small "noise"
// features of the reionization study while preserving large-structure
// detail (Figs 7-8).
#pragma once

#include <cstdint>
#include <memory>

#include "core/feature_vector.hpp"
#include "core/sweep.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/training.hpp"
#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

struct DataSpaceConfig {
  FeatureVectorSpec spec;
  int hidden_units = 12;
  BackpropConfig backprop{0.3, 0.7};
  std::uint64_t seed = 4321;
};

/// A painted training voxel.
struct PaintedVoxel {
  Index3 voxel;
  int step = 0;
  double certainty = 0.0;  ///< 1 = feature of interest, 0 = not.
};

class DataSpaceClassifier {
 public:
  DataSpaceClassifier(int num_steps, double value_lo, double value_hi,
                      const DataSpaceConfig& config = {});

  // The trainer references the classifier's own network, so the object must
  // stay put; hold it by unique_ptr where reseating is needed.
  DataSpaceClassifier(const DataSpaceClassifier&) = delete;
  DataSpaceClassifier& operator=(const DataSpaceClassifier&) = delete;

  const FeatureVectorSpec& spec() const { return config_.spec; }

  /// Add painted voxels from `volume` (the key frame at `step`). The volume
  /// is copied for later training-set re-assembly.
  void add_samples(const VolumeF& volume, int step,
                   const std::vector<PaintedVoxel>& painted);

  /// Out-of-core form: read the key frame through `sequence` and keep only
  /// a (sequence, step) reference for re-assembly — the step is re-fetched
  /// through the sequence's cache instead of pinned in a private copy.
  /// `sequence` must outlive the classifier (or at least every later call
  /// that re-assembles samples).
  void add_samples(const VolumeSequence& sequence, int step,
                   const std::vector<PaintedVoxel>& painted);

  /// Re-derive the shell radius from all positive samples painted so far
  /// (paper: "this distance is data dependent and derived according to the
  /// characteristics of the selected features"). Existing training samples
  /// are re-assembled under the new radius. `mask_dims` gives the volume
  /// extents the painted coordinates live in.
  void derive_shell_radius_from_samples(Dims mask_dims);

  double shell_radius() const { return config_.spec.shell_radius; }

  /// Training passes.
  double train(int epochs);
  double train_for(double budget_ms);
  std::size_t training_samples() const { return training_set_.size(); }
  double last_mse() const { return trainer_.last_mse(); }

  /// Voxels fed to the flat inference engine per forward_batch call (the
  /// shared sweep's batch, core/sweep.hpp).
  static constexpr int kClassifyBatchSize = kSweepBatch;

  /// Per-voxel certainty in [0,1] for the entire step (thread-parallel).
  /// Voxels are batched through a FlatMlp rebuilt from the live network on
  /// weight change; output is bitwise identical to classify_scalar().
  VolumeF classify(const VolumeF& volume, int step) const;

  /// Streamed form: fetch the step through the sequence and hint the next
  /// step so its decode overlaps this step's classification.
  VolumeF classify(const VolumeSequence& sequence, int step) const;

  /// Reference implementation: one scalar forward per voxel. Kept for the
  /// parity tests and the bench baseline; prefer classify().
  VolumeF classify_scalar(const VolumeF& volume, int step) const;

  /// Certainty of a single voxel.
  double classify_voxel(const VolumeF& volume, int step, int i, int j,
                        int k) const;

  /// classify() thresholded at `cut`.
  Mask classify_mask(const VolumeF& volume, int step, double cut = 0.5) const;
  Mask classify_mask(const VolumeSequence& sequence, int step,
                     double cut = 0.5) const;

  /// Classify only one axis-aligned slice (the interface's fast feedback
  /// path, Sec 6). Axis: 0=X (slice index i), 1=Y, 2=Z. Returns a
  /// width*height row-major certainty image.
  std::vector<float> classify_slice(const VolumeF& volume, int step, int axis,
                                    int slice) const;
  std::vector<float> classify_slice(const VolumeSequence& sequence, int step,
                                    int axis, int slice) const;

  /// Sec 6 property toggling: rebuild the classifier for a new spec,
  /// transferring hidden/output weights and the first-layer weights of the
  /// input components both specs share. The training set is discarded
  /// (painted samples must be re-added; the session layer handles that).
  std::unique_ptr<DataSpaceClassifier> with_spec(
      const FeatureVectorSpec& new_spec) const;

  const Mlp& network() const { return network_; }

 private:
  /// Record of a painted sample so inputs can be re-assembled when the
  /// shell radius or the spec changes.
  struct RawSample {
    PaintedVoxel painted;
    std::vector<double> input;  // assembled under the current spec
  };

  void rebuild_training_set();

  DataSpaceConfig config_;
  int num_steps_;
  double value_lo_, value_hi_;
  Mlp network_;
  TrainingSet training_set_;
  Trainer trainer_;
  // The painted voxels along with the values their inputs were read from:
  // we keep a copy of each sampled input so re-deriving only needs dims.
  std::vector<RawSample> raw_samples_;
  // Source volumes seen by add_samples, kept per (step) for re-assembly.
  // Either an owned copy (in-memory path) or a sequence reference the step
  // is re-fetched through on demand (out-of-core path).
  struct StepVolume {
    int step = 0;
    VolumeF volume;
    const VolumeSequence* sequence = nullptr;
    const VolumeF& get() const {
      return sequence != nullptr ? sequence->step(step) : volume;
    }
  };
  std::vector<StepVolume> sample_volumes_;
  // Flat inference engine rebuilt from network_ whenever its params hash
  // changes (i.e. after training); shared by all classify paths.
  FlatMlpCache flat_cache_;

  void add_samples_impl(const VolumeF& volume, int step,
                        const std::vector<PaintedVoxel>& painted,
                        const VolumeSequence* sequence);

  FeatureContext context_for(const VolumeF& volume, int step) const;
};

}  // namespace ifet
