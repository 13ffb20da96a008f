// The procedural inputs of each workload, prepared once per (workload,
// data seed) into .cvol v2 files that every run on that data then reads.
// run.py maps a run seed to one of a few data seeds.
//
// Preparation stays outside every metric: the paper's system reads
// simulation output from disk, so the timed runs start from the file.
// It still counts against the wall time of a set of runs. The flowsim
// generators cost about 6 s per 256^3 argon step and over a minute per
// 256^3 reionization step on 4 cores, so the 256^3 inputs are generated
// on a coarser grid and resampled to 256^3 with ifet::resample; the
// ground truth is derived the same way so the quality checks stay
// consistent with the data. README.md gives the measured difference
// between a resampled and a natively generated argon input.
#pragma once

#include <cstdint>
#include <string>

#include "flowsim/datasets.hpp"

namespace perfbench {

/// 64-bit mix of the workload seed with a per-use salt.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- playback_256: argon bubble, 6 recorded steps around two key frames.
// A run plays whole passes over the steps, so one pass must fit the run.
struct Playback {
  static constexpr int kEdge = 256;       ///< stored and rendered grid
  static constexpr int kGenEdge = 128;    ///< generator grid
  static constexpr int kSteps = 6;        ///< recorded steps in the file
  static constexpr int kFirstSimStep = 185;
  static constexpr int kSimStride = 10;   ///< simulation steps per record
  static constexpr int kKeyFrames[2] = {1, 4};
  static constexpr int kSeedStep = 2;     ///< tracking seed step

  static int sim_step(int index) { return kFirstSimStep + index * kSimStride; }
  static ifet::ArgonBubbleConfig argon(std::uint64_t seed, int edge);
};

// --- classify_256: reionization, 6 recorded steps; ground truth of the
// painted and checked step goes to a second file.
struct Classify {
  static constexpr int kEdge = 256;
  static constexpr int kGenEdge = 64;
  static constexpr int kSteps = 6;
  static constexpr int kFirstSimStep = 300;
  static constexpr int kSimStride = 5;
  static constexpr int kPaintStep = 2;  ///< painted, trained and checked

  static int sim_step(int index) { return kFirstSimStep + index * kSimStride; }
  static ifet::ReionizationConfig reionization(std::uint64_t seed);
};

// --- server_mix_128: argon bubble at 128^3, 8 recorded steps.
struct ServerMix {
  static constexpr int kEdge = 128;
  static constexpr int kSteps = 8;
  static constexpr int kFirstSimStep = 180;
  static constexpr int kSimStride = 8;

  static int sim_step(int index) { return kFirstSimStep + index * kSimStride; }
};

/// Data file of a prepared input.
inline std::string cvol_path(const std::string& prefix) {
  return prefix + ".cvol";
}
/// Ground-truth file of classify_256: step 0 = large structures, step 1 =
/// small features, both of the painted step, as 0/1 volumes.
inline std::string masks_path(const std::string& prefix) {
  return prefix + ".masks.cvol";
}

/// Writes the prepared files of `workload` for `seed` under `prefix`.
/// Throws on an unknown workload.
void prepare_inputs(const std::string& workload, std::uint64_t seed,
                    const std::string& prefix);

/// Reads the classify_256 ground truth (large, small) back as masks.
std::pair<ifet::Mask, ifet::Mask> read_classify_masks(
    const std::string& prefix);

}  // namespace perfbench
