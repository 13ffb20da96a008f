// Multivariate data-space classification.
//
// The paper's conclusion singles this capability out: "that the system can
// take multivariate data as input opens a new dimension for scientific
// discovery" (Sec 8), and Sec 4 lists "the relationship between two or
// more variables" among the properties features may be defined by —
// without the scientist ever specifying that relationship explicitly
// (Sec 1). The DNS combustion data the paper uses carries "multiple
// variables" per step.
//
// A MultivariateClassifier consumes several aligned scalar fields per time
// step; its feature vector concatenates each variable's value (and shell
// neighborhood) with the shared position/time components, and the network
// learns joint conditions like "high vorticity AND fuel present" that no
// single-variable classifier or transfer function can express.
#pragma once

#include <vector>

#include "core/dataspace.hpp"  // PaintedVoxel
#include "core/feature_vector.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/training.hpp"
#include "volume/volume.hpp"

namespace ifet {

struct MultivariateSpec {
  int num_variables = 2;
  bool use_value = true;     ///< Per variable.
  bool use_shell = true;     ///< Per variable.
  double shell_radius = 3.0;
  int shell_samples = 6;
  bool use_position = true;  ///< Shared across variables.
  bool use_time = true;      ///< Shared across variables.

  int width() const;
};

/// One time step's aligned variables plus their normalization ranges.
struct MultiFeatureContext {
  std::vector<const VolumeF*> variables;
  std::vector<std::pair<double, double>> ranges;  ///< Per-variable lo/hi.
  int step = 0;
  int num_steps = 1;
};

/// Assemble the normalized multivariate feature vector of voxel (i, j, k).
std::vector<double> assemble_multivariate_vector(
    const MultivariateSpec& spec, const MultiFeatureContext& context, int i,
    int j, int k);

/// Batched multivariate feature assembly — FeatureBlockAssembler's
/// multivariate sibling. Construction hoists the shell-direction table and
/// the per-variable normalization lo/span out of the voxel loop; each
/// column written by assemble_feature_cols is bitwise identical to the
/// matching component of assemble_multivariate_vector for the same voxel.
/// Borrows the context's volumes; they must outlive the assembler. Const
/// and thread-sharable.
class MultivariateBlockAssembler {
 public:
  MultivariateBlockAssembler(const MultivariateSpec& spec,
                             const MultiFeatureContext& context);

  int width() const { return width_; }

  /// Column-major batch for FlatMlp::forward_batch_cols: component c of
  /// voxel v lands at out[c*ld + v] (ld >= count).
  void assemble_feature_cols(const Index3* voxels, int count, double* out,
                             int ld) const;

 private:
  MultivariateSpec spec_;
  MultiFeatureContext context_;
  std::vector<Vec3> shell_dirs_;       ///< hoisted quantized shell offsets
  std::vector<double> lo_, span_;      ///< per-variable normalization
  int width_ = 0;
  double den_x_ = 1.0, den_y_ = 1.0, den_z_ = 1.0;
  double time_value_ = 0.0;
};

struct MultivariateConfig {
  MultivariateSpec spec;
  int hidden_units = 14;
  BackpropConfig backprop{0.3, 0.7};
  std::uint64_t seed = 24680;
};

class MultivariateClassifier {
 public:
  /// `ranges[v]` is variable v's global value range across the sequence.
  MultivariateClassifier(int num_steps,
                         std::vector<std::pair<double, double>> ranges,
                         const MultivariateConfig& config = {});

  const MultivariateSpec& spec() const { return config_.spec; }

  /// Add painted voxels; `variables` are the step's aligned fields.
  void add_samples(const std::vector<const VolumeF*>& variables, int step,
                   const std::vector<PaintedVoxel>& painted);

  double train(int epochs);
  std::size_t training_samples() const { return training_set_.size(); }

  double classify_voxel(const std::vector<const VolumeF*>& variables,
                        int step, int i, int j, int k) const;

  /// Per-voxel certainty volume (thread-parallel).
  VolumeF classify(const std::vector<const VolumeF*>& variables,
                   int step) const;

  Mask classify_mask(const std::vector<const VolumeF*>& variables, int step,
                     double cut = 0.5) const;

 private:
  MultiFeatureContext context_for(
      const std::vector<const VolumeF*>& variables, int step) const;

  MultivariateConfig config_;
  int num_steps_;
  std::vector<std::pair<double, double>> ranges_;
  Mlp network_;
  TrainingSet training_set_;
  Trainer trainer_;
  // Flat inference engine rebuilt from network_ on weight change.
  FlatMlpCache flat_cache_;
};

}  // namespace ifet
