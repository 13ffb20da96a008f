#include "inputs.hpp"

#include <memory>
#include <stdexcept>

#include "io/compressed.hpp"
#include "volume/resample.hpp"

namespace perfbench {

using namespace ifet;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ArgonBubbleConfig Playback::argon(std::uint64_t seed, int edge) {
  ArgonBubbleConfig config;
  config.dims = Dims{edge, edge, edge};
  config.seed = mix_seed(seed, 1);
  return config;
}

ReionizationConfig Classify::reionization(std::uint64_t seed) {
  ReionizationConfig config;
  config.dims = Dims{kGenEdge, kGenEdge, kGenEdge};
  config.seed = mix_seed(seed, 2);
  return config;
}

namespace {

Dims cube(int edge) { return Dims{edge, edge, edge}; }

VolumeF as_volume(const Mask& mask) {
  VolumeF out(mask.dims());
  for (std::size_t i = 0; i < mask.size(); ++i) out[i] = mask[i] ? 1.0f : 0.0f;
  return out;
}

/// Coarse mask -> fine 0/1 volume, resampled like the data it labels.
VolumeF upsample_mask(const Mask& mask, int edge) {
  VolumeF fine = resample(as_volume(mask), cube(edge));
  for (std::size_t i = 0; i < fine.size(); ++i) {
    fine[i] = fine[i] >= 0.5f ? 1.0f : 0.0f;
  }
  return fine;
}

void prepare_playback(std::uint64_t seed, const std::string& prefix) {
  auto argon = std::make_shared<ArgonBubbleSource>(
      Playback::argon(seed, Playback::kGenEdge));
  CallbackSource recorded(
      cube(Playback::kEdge), Playback::kSteps, argon->value_range(),
      [argon](int index) {
        return resample(argon->generate(Playback::sim_step(index)),
                        cube(Playback::kEdge));
      });
  write_compressed_sequence(recorded, cvol_path(prefix));
}

void prepare_classify(std::uint64_t seed, const std::string& prefix) {
  auto source =
      std::make_shared<ReionizationSource>(Classify::reionization(seed));
  CallbackSource recorded(
      cube(Classify::kEdge), Classify::kSteps, source->value_range(),
      [source](int index) {
        return resample(source->generate(Classify::sim_step(index)),
                        cube(Classify::kEdge));
      });
  write_compressed_sequence(recorded, cvol_path(prefix));

  const int painted = Classify::sim_step(Classify::kPaintStep);
  CallbackSource truth(cube(Classify::kEdge), 2, {0.0, 1.0},
                       [source, painted](int index) {
                         return upsample_mask(index == 0
                                                  ? source->large_mask(painted)
                                                  : source->small_mask(painted),
                                              Classify::kEdge);
                       });
  write_compressed_sequence(truth, masks_path(prefix));
}

void prepare_server_mix(std::uint64_t seed, const std::string& prefix) {
  ArgonBubbleConfig config;
  config.dims = cube(ServerMix::kEdge);
  config.seed = mix_seed(seed, 3);
  auto argon = std::make_shared<ArgonBubbleSource>(config);
  CallbackSource recorded(cube(ServerMix::kEdge), ServerMix::kSteps,
                          argon->value_range(), [argon](int index) {
                            return argon->generate(ServerMix::sim_step(index));
                          });
  write_compressed_sequence(recorded, cvol_path(prefix));
}

}  // namespace

void prepare_inputs(const std::string& workload, std::uint64_t seed,
                    const std::string& prefix) {
  if (workload == "playback_256") {
    prepare_playback(seed, prefix);
  } else if (workload == "classify_256") {
    prepare_classify(seed, prefix);
  } else if (workload == "server_mix_128") {
    prepare_server_mix(seed, prefix);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
}

std::pair<Mask, Mask> read_classify_masks(const std::string& prefix) {
  CompressedFileSource truth(masks_path(prefix));
  auto to_mask = [](const VolumeF& v) {
    Mask m(v.dims());
    for (std::size_t i = 0; i < v.size(); ++i) m[i] = v[i] >= 0.5f ? 1 : 0;
    return m;
  };
  return {to_mask(truth.generate(0)), to_mask(truth.generate(1))};
}

}  // namespace perfbench
