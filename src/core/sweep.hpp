// Load-balanced batched classification sweep (docs/PERFORMANCE.md, "Sweep
// schedule").
//
// Every whole-volume and whole-slice pass of the data-space classifiers —
// DataSpaceClassifier::classify / classify_slice, MultiClassClassifier's
// certainty and label volumes, MultivariateClassifier::classify — runs
// through classify_sweep: voxel lines are grouped into small chunks that
// pool tasks take from a shared counter, so a task that starts late (its
// worker was decoding a prefetched step) only takes what is left instead
// of a fixed band. Each task allocates its batch buffers once and reuses
// them for every chunk it takes. A voxel's output depends only on its own
// feature column, so the schedule never changes a result.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "nn/flat_mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// Voxels per assemble + forward_batch_cols call. Large enough to amortize
/// the batch setup, small enough that a task's feature matrix
/// (kSweepBatch x feature width doubles) stays in cache.
inline constexpr int kSweepBatch = 256;

/// Voxels per scheduling chunk (whole lines; at least one line). At 256^3
/// a chunk is 16 x-rows, so 4096 chunks spread over the pool's tasks.
inline constexpr std::size_t kSweepChunkVoxels = 4096;

/// Classify `lines` lines of `length` voxels. Line r starts at origin(r)
/// and advances by `step`; its voxel c is output r*length + c. For every
/// batch, `assembler.assemble_feature_cols` writes the feature columns,
/// `flat` scores them and `emit(first_output, count, scores)` receives the
/// row-major count x flat.num_outputs() scores of outputs first_output ..
/// first_output + count - 1. `emit` runs concurrently on disjoint ranges.
template <typename Assembler, typename Origin, typename Emit>
void classify_sweep(std::size_t lines, int length, Index3 step,
                    const Origin& origin, const Assembler& assembler,
                    const FlatMlp& flat, const Emit& emit) {
  if (lines == 0 || length <= 0) return;
  const auto len = static_cast<std::size_t>(length);
  const std::size_t lines_per_chunk =
      std::max<std::size_t>(1, kSweepChunkVoxels / len);
  const std::size_t chunks = (lines + lines_per_chunk - 1) / lines_per_chunk;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t tasks = std::min(pool.size() + 1, chunks);
  const auto feat_width = static_cast<std::size_t>(assembler.width());
  const auto out_width = static_cast<std::size_t>(flat.num_outputs());
  std::atomic<std::size_t> next_chunk{0};
  // One task per index: parallel_for_static hands each its own range.
  pool.parallel_for_static(0, tasks, [&](std::size_t, std::size_t) {
    FlatMlp::Scratch scratch;
    std::vector<Index3> coords(kSweepBatch);
    std::vector<double> features(kSweepBatch * feat_width);
    std::vector<double> scores(kSweepBatch * out_width);
    for (std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t line0 = c * lines_per_chunk;
      const std::size_t line1 = std::min(lines, line0 + lines_per_chunk);
      std::size_t base = line0 * len;
      int pending = 0;
      auto flush = [&] {
        if (pending == 0) return;
        assembler.assemble_feature_cols(coords.data(), pending,
                                        features.data(), kSweepBatch);
        flat.forward_batch_cols(features.data(), kSweepBatch, pending,
                                scores.data(), scratch);
        emit(base, pending, scores.data());
        base += static_cast<std::size_t>(pending);
        pending = 0;
      };
      for (std::size_t line = line0; line < line1; ++line) {
        Index3 p = origin(line);
        for (int v = 0; v < length; ++v) {
          coords[static_cast<std::size_t>(pending)] = p;
          p = Index3{p.x + step.x, p.y + step.y, p.z + step.z};
          if (++pending == kSweepBatch) flush();
        }
      }
      flush();
    }
  });
}

/// The whole volume as x-rows: line r is row (r mod d.y, r / d.y), so the
/// outputs are the volume's linear indices.
template <typename Assembler, typename Emit>
void classify_volume_sweep(const Dims& d, const Assembler& assembler,
                           const FlatMlp& flat, const Emit& emit) {
  const auto dy = static_cast<std::size_t>(d.y);
  classify_sweep(
      dy * static_cast<std::size_t>(d.z), d.x, Index3{1, 0, 0},
      [dy](std::size_t line) {
        return Index3{0, static_cast<int>(line % dy),
                      static_cast<int>(line / dy)};
      },
      assembler, flat, emit);
}

/// `emit` for single-output networks: stores each score as a float at
/// dst[output].
inline auto store_certainty(float* dst) {
  return [dst](std::size_t base, int rows, const double* certainty) {
    for (int r = 0; r < rows; ++r) {
      dst[base + static_cast<std::size_t>(r)] =
          static_cast<float>(certainty[r]);
    }
  };
}

}  // namespace ifet
