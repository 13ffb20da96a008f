// Section 7 rendering gates: the correctness contracts of the brick ray
// caster. Throughput at the paper's operating point (256^3 volume into a
// 512^2 window, IATF recalculated per frame, tracking overlay) is measured
// end to end by perfbench's playback_256 workload; this binary only checks.
//
// Gates (exit nonzero on failure):
//   - a warm Raycaster::render_rows makes zero heap allocations and is
//     bitwise identical to render();
//   - perturbed replay: frames and RenderStats counters digest identically
//     across pool widths, cache temperatures and row-chunk orders;
//   - empty-space skipping is bitwise identical to the scalar march on the
//     64^3 fixture, and at half-voxel sampling on a TF-sparse 128^3 scene.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "parallel/thread_pool.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/alloc_guard.hpp"
#include "util/determinism.hpp"
#include "volume/ops.hpp"

// Counting operator new/delete for this binary so the steady-state check
// below can assert zero allocations in the ray loop (docs/STATIC_ANALYSIS.md).
IFET_ALLOC_GUARD_INSTALL();

namespace {

using namespace ifet;

struct RenderFixture {
  RenderFixture() {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{64, 64, 64};
    cfg.num_steps = 360;
    source = std::make_shared<ArgonBubbleSource>(cfg);
    // No lookahead: a background prefetch still decoding when a check
    // starts would allocate under the process-wide AllocGuard counter.
    sequence = std::make_unique<StreamedSequence>(
        source, StreamConfig{.lookahead = 0, .async_prefetch = false});
    volume = source->generate(225);

    auto [vlo, vhi] = sequence->value_range();
    TransferFunction1D key(vlo, vhi);
    double c = source->ring_band_center(195);
    double h = source->ring_band_half_width();
    key.add_band(c - h, c + h, 1.0, 0.5 * h);
    iatf = std::make_unique<Iatf>(*sequence);
    iatf->add_key_frame(195, key);
    TransferFunction1D key2(vlo, vhi);
    c = source->ring_band_center(255);
    key2.add_band(c - h, c + h, 1.0, 0.5 * h);
    iatf->add_key_frame(255, key2);
    iatf->train(300);

    tf = std::make_unique<TransferFunction1D>(iatf->evaluate(225));
    mask = std::make_unique<Mask>(threshold_mask(volume, (float)(c - h),
                                                 (float)(c + h)));
  }

  std::shared_ptr<ArgonBubbleSource> source;
  std::unique_ptr<VolumeSequence> sequence;
  VolumeF volume;
  std::unique_ptr<Iatf> iatf;
  std::unique_ptr<TransferFunction1D> tf;
  std::unique_ptr<Mask> mask;
};

RenderFixture& fixture() {
  static RenderFixture f;
  return f;
}

RenderSettings settings_for(int image_size, bool shading) {
  RenderSettings s;
  s.width = image_size;
  s.height = image_size;
  s.shading = shading;
  return s;
}

/// Steady-state contract on the IFET_HOT ray loop: once a frame's Plan and
/// destination image exist, Raycaster::render_rows must march every row
/// with zero heap allocations (render() itself allocates the image and the
/// pool's task plumbing, so the check drives the row kernel directly), and
/// the row-kernel image must be bitwise identical to the render() output.
int check_render_rows_contract() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  struct Variant {
    const char* name;
    const RenderSettings* settings;
    const HighlightLayer* highlight;
  };
  const Variant variants[] = {
      {"front-to-back shaded", &shaded, nullptr},
      {"tracking overlay", &shaded, &layer},
      {"maximum intensity", &mip, nullptr},
  };

  for (const Variant& v : variants) {
    Raycaster caster(*v.settings);
    const ImageRgb8 pooled =
        caster.render(f.volume, *f.tf, colors, camera, v.highlight);
    const Raycaster::Plan plan =
        caster.prepare_plan(f.volume, *f.tf, colors, camera, v.highlight);
    ImageRgb8 direct(v.settings->width, v.settings->height);
    Raycaster::RenderRowCounters warm;
    caster.render_rows(plan, 0, v.settings->height, direct, warm);
    if (pooled.pixels.size() != direct.pixels.size() ||
        std::memcmp(pooled.pixels.data(), direct.pixels.data(),
                    pooled.pixels.size()) != 0) {
      std::cerr << "bench_perf_render: render_rows image for '" << v.name
                << "' is NOT bitwise identical to render()\n";
      return 1;
    }
    if (warm.samples == 0) {
      std::cerr << "bench_perf_render: '" << v.name
                << "' marched no samples; the check is vacuous\n";
      return 1;
    }
    DenyAllocScope guard;
    Raycaster::RenderRowCounters steady;
    caster.render_rows(plan, 0, v.settings->height, direct, steady);
    if (guard.allocations() != 0) {
      std::cerr << "bench_perf_render: warm render_rows for '" << v.name
                << "' performed " << guard.allocations()
                << " heap allocations (expected 0)\n";
      return 1;
    }
  }
  std::cout << "alloc check: warm Raycaster::render_rows made 0 heap "
               "allocations across 3 variants, bitwise equal to render()\n";
  return 0;
}

/// One skip-vs-scalar comparison: renders the scene with empty-space
/// skipping on and off and memcmps the images. Returns false (and prints)
/// on any pixel difference.
bool skip_matches_scalar(const RenderSettings& base, const VolumeF& volume,
                         const TransferFunction1D& tf, const ColorMap& colors,
                         const Camera& camera, const HighlightLayer* highlight,
                         const char* name) {
  RenderSettings with = base, without = base;
  with.empty_space_skipping = true;
  without.empty_space_skipping = false;
  const ImageRgb8 skipped =
      Raycaster(with).render(volume, tf, colors, camera, highlight);
  const ImageRgb8 scalar =
      Raycaster(without).render(volume, tf, colors, camera, highlight);
  if (skipped.pixels.size() != scalar.pixels.size() ||
      std::memcmp(skipped.pixels.data(), scalar.pixels.data(),
                  skipped.pixels.size()) != 0) {
    std::cerr << "bench_perf_render: brick-skipping image for '" << name
              << "' is NOT bitwise identical to the scalar march\n";
    return false;
  }
  return true;
}

/// Brick-skipping equivalence across all three compositing variants on the
/// 64^3 fixture (fast enough for a sanitizer stage): the SoA packet +
/// empty-space-skip path must reproduce the scalar march bit for bit.
int check_skip_equivalence() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  if (!skip_matches_scalar(shaded, f.volume, *f.tf, colors, camera, nullptr,
                           "front-to-back shaded") ||
      !skip_matches_scalar(shaded, f.volume, *f.tf, colors, camera, &layer,
                           "tracking overlay") ||
      !skip_matches_scalar(mip, f.volume, *f.tf, colors, camera, nullptr,
                           "maximum intensity")) {
    return 1;
  }
  std::cout << "equivalence check: empty-space skipping is bitwise equal to "
               "the scalar march across 3 variants\n";
  return 0;
}

/// Perturbed-replay check on the IFET_DETERMINISTIC render kernels
/// (util/determinism.hpp): all three compositing variants (front-to-back
/// shaded, tracking overlay, maximum intensity) must produce
/// bitwise-identical frames and RenderStats counters (samples, skipped,
/// terminated early) across pool widths {1, 4, hardware}, cold and warm
/// caches, and shuffled row-chunk submission through render_rows.
int run_replay_check() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  struct Variant {
    const RenderSettings* settings;
    const HighlightLayer* highlight;
  };
  const Variant variants[] = {
      {&shaded, nullptr}, {&shaded, &layer}, {&mip, nullptr}};

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ReplayCheck check("raycaster_variants", {1, 4, hw});
  ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    DigestSink sink;
    for (const Variant& v : variants) {
      Raycaster caster(*v.settings);
      // Pooled frame: the global pool hands out row chunks in a different
      // order at every width; neither the pixels nor the counters summed
      // across chunks may notice.
      RenderStats stats;
      const ImageRgb8 pooled =
          caster.render(f.volume, *f.tf, colors, camera, v.highlight, &stats);
      sink.span(pooled.pixels.data(), pooled.pixels.size());
      sink.pod(stats.samples);
      sink.pod(stats.samples_skipped);
      sink.pod(stats.terminated_early);
      // Row-kernel frame, chunks marched in a deterministic shuffle when
      // the trial asks for it: rows only write their own pixels, so the
      // visit order must be invisible.
      const Raycaster::Plan plan =
          caster.prepare_plan(f.volume, *f.tf, colors, camera, v.highlight);
      constexpr int kChunkRows = 8;
      const std::size_t chunks =
          (static_cast<std::size_t>(v.settings->height) + kChunkRows - 1) /
          kChunkRows;
      std::vector<std::size_t> order(chunks);
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (trial.shuffled) order = replay_permutation(chunks, 0xCA57);
      ImageRgb8 direct(v.settings->width, v.settings->height);
      Raycaster::RenderRowCounters counters;
      for (const std::size_t c : order) {
        const int lo = static_cast<int>(c) * kChunkRows;
        const int hi = std::min(lo + kChunkRows, v.settings->height);
        caster.render_rows(plan, lo, hi, direct, counters);
      }
      sink.span(direct.pixels.data(), direct.pixels.size());
      sink.pod(counters.samples);
      sink.pod(counters.samples_skipped);
      sink.pod(counters.terminated_early);
    }
    return sink.value();
  });
  std::cout << report.summary();
  return report.ok ? 0 : 1;
}

/// Brick-skipping equivalence at the quality setting for shaded stills,
/// half-voxel sampling, on a TF-sparse 128^3 scene (the argon ring occupies
/// a thin shell, so most bricks classify empty). The skip condition is
/// step-size independent (bricks are clipped analytically), so finer
/// marching only grows the work the clip removes, never the pixels.
int check_half_step_equivalence() {
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{128, 128, 128};
  cfg.num_steps = 360;
  ArgonBubbleSource source(cfg);
  const VolumeF volume = source.generate(225);
  auto [vlo, vhi] = source.value_range();
  TransferFunction1D tf(vlo, vhi);
  const double c = source.ring_band_center(225);
  const double h = source.ring_band_half_width();
  tf.add_band(c - h, c + h, 1.0, 0.5 * h);
  const Mask mask = threshold_mask(volume, (float)(c - h), (float)(c + h));
  const ColorMap colors;
  const Camera camera(0.5, 0.35, 2.4);

  RenderSettings shaded = settings_for(128, true);
  shaded.step_voxels = 0.5;
  RenderSettings mip = settings_for(128, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  mip.step_voxels = 0.5;
  HighlightLayer layer{&mask, &tf, Rgb{0.9, 0.05, 0.05}};
  if (!skip_matches_scalar(shaded, volume, tf, colors, camera, nullptr,
                           "front-to-back shaded 128^3") ||
      !skip_matches_scalar(shaded, volume, tf, colors, camera, &layer,
                           "tracking overlay 128^3") ||
      !skip_matches_scalar(mip, volume, tf, colors, camera, nullptr,
                           "maximum intensity 128^3")) {
    return 1;
  }
  std::cout << "equivalence check: empty-space skipping at step_voxels 0.5 "
               "is bitwise equal to the scalar march on 128^3 across 3 "
               "variants\n";
  return 0;
}

}  // namespace

// Every gate runs on each invocation; the exit status is nonzero if any
// failed.
int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0] << " (takes no options)\n";
    return 2;
  }
  int rc = check_render_rows_contract();
  rc |= run_replay_check();
  rc |= check_skip_equivalence();
  rc |= check_half_step_equivalence();
  return rc;
}
