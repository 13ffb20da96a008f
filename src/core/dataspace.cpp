#include "core/dataspace.hpp"

#include <algorithm>

#include "core/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace ifet {

DataSpaceClassifier::DataSpaceClassifier(int num_steps, double value_lo,
                                         double value_hi,
                                         const DataSpaceConfig& config)
    : config_(config),
      num_steps_(num_steps),
      value_lo_(value_lo),
      value_hi_(value_hi),
      network_(),
      trainer_(network_, config.backprop, config.seed ^ 0xabcdULL) {
  IFET_REQUIRE(num_steps_ > 0, "DataSpaceClassifier: need at least one step");
  IFET_REQUIRE(value_hi_ > value_lo_,
               "DataSpaceClassifier: degenerate value range");
  Rng rng(config_.seed);
  network_ = Mlp({config_.spec.width(), config_.hidden_units, 1}, rng);
}

FeatureContext DataSpaceClassifier::context_for(const VolumeF& volume,
                                                int step) const {
  FeatureContext ctx;
  ctx.volume = &volume;
  ctx.step = step;
  ctx.num_steps = num_steps_;
  ctx.value_lo = value_lo_;
  ctx.value_hi = value_hi_;
  return ctx;
}

void DataSpaceClassifier::add_samples_impl(
    const VolumeF& volume, int step, const std::vector<PaintedVoxel>& painted,
    const VolumeSequence* sequence) {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "DataSpaceClassifier: step out of range");
  FeatureContext ctx = context_for(volume, step);
  for (const PaintedVoxel& p : painted) {
    IFET_REQUIRE(volume.dims().contains(p.voxel),
                 "DataSpaceClassifier: painted voxel outside the volume");
    IFET_REQUIRE(p.step == step,
                 "DataSpaceClassifier: painted step does not match volume");
    RawSample raw;
    raw.painted = p;
    raw.input = assemble_feature_vector(config_.spec, ctx, p.voxel.x,
                                        p.voxel.y, p.voxel.z);
    training_set_.add(raw.input, {p.certainty});
    raw_samples_.push_back(std::move(raw));
  }
  // Keep the key frame for later re-assembly (one record per step).
  bool seen = false;
  for (const auto& sv : sample_volumes_) {
    if (sv.step == step) {
      seen = true;
      break;
    }
  }
  if (seen) return;
  StepVolume sv;
  sv.step = step;
  sv.sequence = sequence;
  if (sequence == nullptr) sv.volume = volume;
  sample_volumes_.push_back(std::move(sv));
}

void DataSpaceClassifier::add_samples(
    const VolumeF& volume, int step,
    const std::vector<PaintedVoxel>& painted) {
  add_samples_impl(volume, step, painted, nullptr);
}

void DataSpaceClassifier::add_samples(
    const VolumeSequence& sequence, int step,
    const std::vector<PaintedVoxel>& painted) {
  add_samples_impl(sequence.step(step), step, painted, &sequence);
}

void DataSpaceClassifier::rebuild_training_set() {
  training_set_.clear();
  // Group by step so each key frame is fetched once even when it has to be
  // re-read through an out-of-core sequence.
  for (const auto& sv : sample_volumes_) {
    const VolumeF& volume = sv.get();
    FeatureContext ctx = context_for(volume, sv.step);
    for (auto& raw : raw_samples_) {
      if (raw.painted.step != sv.step) continue;
      raw.input =
          assemble_feature_vector(config_.spec, ctx, raw.painted.voxel.x,
                                  raw.painted.voxel.y, raw.painted.voxel.z);
    }
  }
  for (const auto& raw : raw_samples_) {
    training_set_.add(raw.input, {raw.painted.certainty});
  }
}

void DataSpaceClassifier::derive_shell_radius_from_samples(Dims mask_dims) {
  Mask positives(mask_dims);
  bool any = false;
  for (const auto& raw : raw_samples_) {
    if (raw.painted.certainty >= 0.5 &&
        mask_dims.contains(raw.painted.voxel)) {
      positives.at(raw.painted.voxel) = 1;
      any = true;
    }
  }
  if (!any) return;
  config_.spec.shell_radius = derive_shell_radius(positives);
  rebuild_training_set();
}

double DataSpaceClassifier::train(int epochs) {
  IFET_REQUIRE(!training_set_.empty(),
               "DataSpaceClassifier::train: paint samples first");
  return trainer_.run_epochs(training_set_, epochs);
}

double DataSpaceClassifier::train_for(double budget_ms) {
  IFET_REQUIRE(!training_set_.empty(),
               "DataSpaceClassifier::train_for: paint samples first");
  return trainer_.run_for(training_set_, budget_ms);
}

double DataSpaceClassifier::classify_voxel(const VolumeF& volume, int step,
                                           int i, int j, int k) const {
  FeatureContext ctx = context_for(volume, step);
  return network_.forward_scalar(
      assemble_feature_vector(config_.spec, ctx, i, j, k));
}

VolumeF DataSpaceClassifier::classify(const VolumeF& volume, int step) const {
  const Dims d = volume.dims();
  VolumeF out(d);
  const FeatureContext ctx = context_for(volume, step);
  const FeatureBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  classify_volume_sweep(d, assembler, *flat,
                        store_certainty(out.data().data()));
  return out;
}

VolumeF DataSpaceClassifier::classify_scalar(const VolumeF& volume,
                                             int step) const {
  const Dims d = volume.dims();
  VolumeF out(d);
  FeatureContext ctx = context_for(volume, step);
  parallel_for(0, static_cast<std::size_t>(d.z), [&](std::size_t kz) {
    int k = static_cast<int>(kz);
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        out[out.linear_index(i, j, k)] =
            static_cast<float>(network_.forward_scalar(  // ifet-lint: allow(scalar-forward-in-hot-loop)
                assemble_feature_vector(config_.spec, ctx, i, j, k)));
      }
    }
  });
  return out;
}

VolumeF DataSpaceClassifier::classify(const VolumeSequence& sequence,
                                      int step) const {
  // Overlap the next step's decode with this step's classification — the
  // common access pattern is a forward sweep over the sequence.
  sequence.prefetch_hint(step + 1);
  return classify(sequence.step(step), step);
}

Mask DataSpaceClassifier::classify_mask(const VolumeF& volume, int step,
                                        double cut) const {
  VolumeF certainty = classify(volume, step);
  Mask out(volume.dims());
  for (std::size_t i = 0; i < certainty.size(); ++i) {
    out[i] = certainty[i] >= cut ? 1 : 0;
  }
  return out;
}

Mask DataSpaceClassifier::classify_mask(const VolumeSequence& sequence,
                                        int step, double cut) const {
  sequence.prefetch_hint(step + 1);
  return classify_mask(sequence.step(step), step, cut);
}

std::vector<float> DataSpaceClassifier::classify_slice(const VolumeF& volume,
                                                       int step, int axis,
                                                       int slice) const {
  IFET_REQUIRE(axis >= 0 && axis <= 2, "classify_slice: axis must be 0..2");
  const Dims d = volume.dims();
  const FeatureContext ctx = context_for(volume, step);
  int width = 0, height = 0, extent = 0;
  switch (axis) {
    case 0: width = d.y; height = d.z; extent = d.x; break;
    case 1: width = d.x; height = d.z; extent = d.y; break;
    default: width = d.x; height = d.y; extent = d.z; break;
  }
  // Validate once, before fanning out: a throw inside a pool worker is the
  // wrong failure path for a caller-supplied argument.
  IFET_REQUIRE(slice >= 0 && slice < extent,
               "classify_slice: slice out of range");
  std::vector<float> out(static_cast<std::size_t>(width) *
                         static_cast<std::size_t>(height));
  const FeatureBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  // Image row r is one voxel line along the slice's first in-plane axis.
  const Index3 along = axis == 0 ? Index3{0, 1, 0} : Index3{1, 0, 0};
  classify_sweep(
      static_cast<std::size_t>(height), width, along,
      [axis, slice](std::size_t row) {
        const int r = static_cast<int>(row);
        switch (axis) {
          case 0: return Index3{slice, 0, r};
          case 1: return Index3{0, slice, r};
          default: return Index3{0, r, slice};
        }
      },
      assembler, *flat, store_certainty(out.data()));
  return out;
}

std::vector<float> DataSpaceClassifier::classify_slice(
    const VolumeSequence& sequence, int step, int axis, int slice) const {
  return classify_slice(sequence.step(step), step, axis, slice);
}

std::unique_ptr<DataSpaceClassifier> DataSpaceClassifier::with_spec(
    const FeatureVectorSpec& new_spec) const {
  DataSpaceConfig new_config = config_;
  new_config.spec = new_spec;
  auto out = std::make_unique<DataSpaceClassifier>(num_steps_, value_lo_,
                                                   value_hi_, new_config);

  // Build the old-index mapping for components both specs share, by name.
  auto old_names = config_.spec.component_names();
  auto new_names = new_spec.component_names();
  std::vector<int> mapping;
  mapping.reserve(new_names.size());
  for (const auto& name : new_names) {
    auto it = std::find(old_names.begin(), old_names.end(), name);
    mapping.push_back(it == old_names.end()
                          ? -1
                          : static_cast<int>(it - old_names.begin()));
  }
  Rng rng(config_.seed ^ 0x77ULL);
  out->network_ = network_.resized_inputs(mapping, rng);
  return out;
}

}  // namespace ifet
