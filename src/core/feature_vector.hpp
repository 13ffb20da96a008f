// Per-voxel feature vectors for data-space extraction (paper Sec 4.3).
//
// "...the trained network in fact takes as input a feature vector which
// consists of data values of the feature, neighborhood information, and the
// time step number." Neighborhood information is a *shell*: "we do not use
// all the voxel values in the neighborhood; only those voxels a fixed
// distance away from the feature of interest are used, and this distance is
// data dependent and derived according to the characteristics of the
// selected features so far."
//
// FeatureVectorSpec makes every component optional so the user can drop
// properties they judge unimportant (Sec 6); the classifier then shrinks
// its network while transferring the surviving weights.
#pragma once

#include <string>
#include <vector>

#include "volume/volume.hpp"

namespace ifet {

struct FeatureVectorSpec {
  bool use_value = true;       ///< The voxel's own scalar value.
  bool use_shell = true;       ///< Shell of neighborhood samples.
  bool use_position = true;    ///< Normalized (x, y, z).
  bool use_time = true;        ///< Normalized time step.
  bool use_gradient = false;   ///< Gradient magnitude (optional extra).
  double shell_radius = 3.0;   ///< Shell distance in voxels.
  int shell_samples = 14;      ///< 6 axis + 8 diagonal directions by default.

  /// Total feature-vector width for this spec.
  int width() const;

  /// Human-readable component names, index-aligned with assemble()'s output
  /// (used by the session UI when the user toggles properties).
  std::vector<std::string> component_names() const;
};

/// Context needed to assemble a vector: the step's volume, its index, the
/// sequence length (for time normalization) and the global value range.
struct FeatureContext {
  const VolumeF* volume = nullptr;
  int step = 0;
  int num_steps = 1;
  double value_lo = 0.0;
  double value_hi = 1.0;
};

/// Assemble the (already normalized to ~[0,1]) feature vector of voxel
/// (i, j, k). Shell samples use trilinear interpolation at `shell_radius`
/// voxels along fixed directions, clamped at volume borders.
std::vector<double> assemble_feature_vector(const FeatureVectorSpec& spec,
                                            const FeatureContext& context,
                                            int i, int j, int k);

/// The fixed shell directions (unit vectors); first 6 are the axes, the
/// next 8 the cube diagonals, then edge midpoints for larger counts.
std::vector<Vec3> shell_directions(int count);

/// Shell sample offsets: radius * shell_directions(count), quantized to
/// 1/256 voxel (an exact binary fraction). The quantization error is at
/// most 0.2% of a voxel — far below the trilinear reconstruction error —
/// and it makes `voxel_index + offset` exact in double for any volume that
/// fits in memory, so the fractional interpolation weights are the same
/// constants for every voxel. That constancy is what lets the batched
/// assembler hoist the weights and integer corner offsets while staying
/// bitwise identical to the scalar path.
std::vector<Vec3> shell_offsets(double radius, int count);

/// Batched feature assembly for the flat inference engine.
///
/// Construction hoists everything assemble_feature_vector recomputes per
/// voxel out of the voxel loop: the value span, position denominators and
/// normalized time, and — for the shell — each direction's integer floor
/// corner offset (kx, ky, kz) and trilinear weights. Because the quantized
/// shell_offsets() make `voxel + offset` exact, those are voxel-independent
/// constants, and a sample of voxel (i, j, k) is the lerp chain
/// Volume::sample runs over the eight corners (i+kx+{0,1}, j+ky+{0,1},
/// k+kz+{0,1}), each clamped to the volume.
///
/// assemble_feature_cols reads the corners in place from the step's
/// volume; there is no padded copy. It splits the voxel list into x-runs
/// (consecutive x on one row). For each run and direction it clamps the
/// y/z corner rows once, giving four row pointers, runs the vectorized
/// lerp chain over the span whose x-corners are both in range, and sends
/// the at most |kx|+1 voxels at each end of the run through a clamped-x
/// scalar path. A clamped corner holds the boundary voxel, where both
/// lerp operands are equal and lerp(a, a, t) == a exactly — the value the
/// scalar path's clamp-to-edge produces.
///
/// Numerical contract: component c of voxel v is bitwise identical to
/// assemble_feature_vector(spec, context, v.x, v.y, v.z)[c].
///
/// The assembler borrows `context.volume`; it must outlive the assembler.
/// Safe to share across threads (assemble_feature_cols is const and
/// touches no mutable state).
class FeatureBlockAssembler {
 public:
  FeatureBlockAssembler(const FeatureVectorSpec& spec,
                        const FeatureContext& context);

  int width() const { return width_; }

  /// Column-major batch for FlatMlp::forward_batch_cols: component c of
  /// voxel v lands at out[c*ld + v] (ld >= count). Shell directions are
  /// the OUTER loop, so each inner loop runs one fixed tap across an
  /// x-run — constant weights in registers, contiguous loads and stores —
  /// and the inference engine consumes the columns without a transpose.
  /// Any voxel list is accepted; x-fastest lists (the classify sweeps)
  /// give long runs.
  void assemble_feature_cols(const Index3* voxels, int count, double* out,
                             int ld) const;

 private:
  /// One shell direction: the integer offset of its floor corner and the
  /// constant trilinear weights.
  struct ShellTap {
    int kx = 0, ky = 0, kz = 0;
    double fx = 0.0, fy = 0.0, fz = 0.0;
  };

  FeatureVectorSpec spec_;
  FeatureContext context_;
  std::vector<ShellTap> taps_;    ///< hoisted per-direction sample plan
  int width_ = 0;
  double span_ = 1.0;
  double den_x_ = 1.0, den_y_ = 1.0, den_z_ = 1.0;
  double time_value_ = 0.0;
};

/// Derive a shell radius from the painted feature voxels "according to the
/// characteristics of the selected features": half the mean feature
/// diameter, estimated from the per-component bounding boxes of the
/// positive samples, clamped to [1.5, 6] voxels.
double derive_shell_radius(const Mask& positive_samples);

}  // namespace ifet
