// playback_256: the paper's Sec 7 operating point. An argon-bubble 256^3
// .cvol streams through StreamedSequence; every step renders three shaded
// 512^2 frames — the hand-authored key-frame TF (brick skipping engages),
// the per-frame IATF TF (it does not) and the IATF frame with the tracked
// feature overlaid. The tracked feature is grown once per run.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/iatf.hpp"
#include "core/tracking.hpp"
#include "eval/metrics.hpp"
#include "inputs.hpp"
#include "io/compressed.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"

namespace perfbench {

using namespace ifet;

namespace {

constexpr int kImage = 512;
constexpr int kSetupRepeats = 5;
constexpr int kIatfEpochs = 300;
constexpr double kTrackOpacityCut = 0.25;
/// Minimum Dice score of every tracked step against the analytic mask.
constexpr double kDiceFloor = 0.6;
/// Decoded-step budget: half the recorded window, so playback evicts.
constexpr int kBudgetSteps = 4;

struct Pipeline {
  std::shared_ptr<TimingSource> source;
  std::unique_ptr<StreamedSequence> sequence;
  std::unique_ptr<Iatf> iatf;
};

/// Hand-authored key-frame TF: one band over the ring's raw-value range.
TransferFunction1D key_tf(const ArgonBubbleSource& truth,
                          std::pair<double, double> range, int index) {
  TransferFunction1D tf(range.first, range.second);
  const double c = truth.ring_band_center(Playback::sim_step(index));
  const double h = truth.ring_band_half_width();
  tf.add_band(c - h, c + h, 1.0, 0.5 * h);
  return tf;
}

/// Set-up: open the file, build the streamed sequence and the IATF, train
/// it to a fixed epoch count and warm the first step.
Pipeline set_up(const std::string& path, const ArgonBubbleSource& truth,
                double& train_ms) {
  Pipeline p;
  p.source = std::make_shared<TimingSource>(
      std::make_shared<CompressedFileSource>(path));
  StreamConfig config;
  const Dims d = p.source->dims();
  config.budget_bytes = kBudgetSteps * d.count() * sizeof(float);
  config.lookahead = 1;
  p.sequence = std::make_unique<StreamedSequence>(p.source, config);
  p.iatf = std::make_unique<Iatf>(*p.sequence);
  for (int k : Playback::kKeyFrames) {
    p.iatf->add_key_frame(k, key_tf(truth, p.sequence->value_range(), k));
  }
  const Clock::time_point start = Clock::now();
  p.iatf->train(kIatfEpochs);
  train_ms = ms_between(start, Clock::now());
  p.sequence->step(0);
  p.sequence->brick_index(0);
  return p;
}

struct FrameCounters {
  double samples = 0, skipped = 0, active_ratio = 0, render_ms = 0;
  int frames = 0;
  void add(const RenderStats& s, double ms) {
    samples += static_cast<double>(s.samples);
    skipped += static_cast<double>(s.samples_skipped);
    active_ratio += s.bricks_total == 0
                        ? 1.0
                        : static_cast<double>(s.bricks_active) /
                              static_cast<double>(s.bricks_total);
    render_ms += ms;
    ++frames;
  }
  double skip_rate() const {
    return samples + skipped > 0 ? skipped / (samples + skipped) : 0.0;
  }
};

}  // namespace

void run_playback(const Options& options, Result& out) {
  const std::string path = cvol_path(options.input_prefix);
  const ArgonBubbleSource truth(
      Playback::argon(options.data_seed, Playback::kEdge));

  Pipeline p;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Release the previous set-up (IATF before its sequence) first.
    p.iatf.reset();
    p.sequence.reset();
    p.source.reset();
    double train_ms = 0.0;
    const Clock::time_point start = Clock::now();
    p = set_up(path, truth, train_ms);
    out.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    out.sample("iatf.train_ms", train_ms);
  }
  StreamedSequence& seq = *p.sequence;
  const int steps = seq.num_steps();
  const TransferFunction1D keys[2] = {
      key_tf(truth, seq.value_range(), Playback::kKeyFrames[0]),
      key_tf(truth, seq.value_range(), Playback::kKeyFrames[1])};
  const int key_split =
      (Playback::kKeyFrames[0] + Playback::kKeyFrames[1]) / 2;

  // The tracked feature, grown once per run from the analytic ring mask.
  const Mask seeds = truth.feature_mask(Playback::sim_step(Playback::kSeedStep));
  AdaptiveTfCriterion criterion(*p.iatf, kTrackOpacityCut,
                                &seq.derived_cache());
  Tracker tracker(seq, criterion);
  TrackResult tracked;
  set_tracing(options.trace);
  {
    Span span("track", "grow");
    const Clock::time_point start = Clock::now();
    tracked = tracker.track_from_mask(seeds, Playback::kSeedStep);
    const double grow_ms = ms_between(start, Clock::now());
    double voxels = 0.0;
    for (const auto& [step, mask] : tracked.masks) {
      voxels += static_cast<double>(tracked.voxels_at(step));
    }
    out.values["track.grow_ms"] = grow_ms;
    out.values["track.voxels"] = voxels;
    out.values["track.voxels_per_s"] = voxels / (grow_ms / 1e3);
    out.values["track.steps_reached"] =
        static_cast<double>(tracked.masks.size());
  }
  const Mask no_feature(seq.dims());

  RenderSettings settings;
  settings.width = kImage;
  settings.height = kImage;
  const Raycaster caster(settings);
  const Camera camera(0.5, 0.35, 2.4);
  const ColorMap colors;

  const TimingSource::Counts io_before = p.source->counts();
  const StreamStats stream_before = seq.stats();
  FrameCounters static_frames, iatf_frames, overlay_frames;
  // The IATF frame of step seed % steps in the first pass is re-rendered
  // without skipping afterwards.
  const int check_step = static_cast<int>(options.seed % steps);
  ImageRgb8 check_image;
  TransferFunction1D check_tf = keys[0];
  bool check_kept = false;

  // The loop plays whole passes over the recorded steps, so every run
  // times the same steps whatever the machine's speed.
  const Clock::time_point begin = Clock::now();
  int n = 0;
  for (; another_op(n, steps, begin, options.seconds); ++n) {
    const int t = n % steps;
    set_current_op(n);
    out.attempted += 3;
    try {
      // Frame 1: hand-authored key-frame TF.
      Clock::time_point t0 = Clock::now();
      {
        Span frame("playback", "static_frame");
        {
          Span span("stream", "fetch");
          const Clock::time_point s = Clock::now();
          seq.step(t);
          out.sample("stream.fetch_wait_ms", ms_between(s, Clock::now()));
        }
        {
          Span span("volume", "brick_index");
          const Clock::time_point s = Clock::now();
          seq.brick_index(t);
          out.sample("volume.brick_index_ms", ms_between(s, Clock::now()));
        }
        Span span("render", "static");
        RenderStats stats;
        const Clock::time_point s = Clock::now();
        caster.render_step(seq, t, keys[t < key_split ? 0 : 1], colors, camera,
                           nullptr, &stats);
        if (t + 1 == steps) seq.prefetch_hint(0);  // playback loops
        static_frames.add(stats, ms_between(s, Clock::now()));
      }
      out.sample("playback.static_frame_ms_p50", ms_between(t0, Clock::now()));

      // Frame 2: the IATF TF re-synthesized for this step.
      t0 = Clock::now();
      TransferFunction1D tf = keys[0];
      {
        Span frame("playback", "iatf_frame");
        {
          Span span("volume", "cumhist");
          const Clock::time_point s = Clock::now();
          seq.cumulative_histogram(t);
          out.sample("volume.cumhist_ms", ms_between(s, Clock::now()));
        }
        {
          Span span("iatf", "evaluate");
          const Clock::time_point s = Clock::now();
          tf = p.iatf->evaluate(t);
          out.sample("iatf.evaluate_ms", ms_between(s, Clock::now()));
        }
        Span span("render", "iatf");
        RenderStats stats;
        const Clock::time_point s = Clock::now();
        ImageRgb8 image =
            caster.render_step(seq, t, tf, colors, camera, nullptr, &stats);
        iatf_frames.add(stats, ms_between(s, Clock::now()));
        if (n == check_step) {
          check_image = std::move(image);
          check_tf = tf;
          check_kept = true;
        }
      }
      out.op_ms.push_back(ms_between(t0, Clock::now()));

      // Frame 3: IATF frame with the tracked feature highlighted.
      t0 = Clock::now();
      {
        Span frame("playback", "overlay_frame");
        {
          Span span("iatf", "evaluate");
          tf = p.iatf->evaluate(t);
        }
        const auto it = tracked.masks.find(t);
        const HighlightLayer layer{
            it != tracked.masks.end() ? &it->second : &no_feature, &tf,
            Rgb{0.9, 0.05, 0.05}};
        Span span("render", "overlay");
        RenderStats stats;
        const Clock::time_point s = Clock::now();
        caster.render_step(seq, t, tf, colors, camera, &layer, &stats);
        overlay_frames.add(stats, ms_between(s, Clock::now()));
      }
      out.sample("playback.overlay_frame_ms_p50", ms_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      out.failed += 3;
      std::fprintf(stderr, "playback step %d failed: %s\n", n, e.what());
    }
  }
  const double wall_s = ms_between(begin, Clock::now()) / 1e3;
  report_peak_rss(out);
  set_tracing(false);
  out.ops_per_s = 3.0 * n / wall_s;

  // Per-layer values of the timed loop.
  report_io(io_before, p.source->counts(), out);
  report_stream(stream_before, seq.stats(), out);

  const double all_samples =
      static_frames.samples + iatf_frames.samples + overlay_frames.samples;
  const double all_ms =
      static_frames.render_ms + iatf_frames.render_ms + overlay_frames.render_ms;
  const int frames = static_frames.frames + iatf_frames.frames +
                     overlay_frames.frames;
  out.values["render.frame_ms"] =
      iatf_frames.frames > 0 ? iatf_frames.render_ms / iatf_frames.frames : 0;
  out.values["render.static_frame_ms"] =
      static_frames.frames > 0 ? static_frames.render_ms / static_frames.frames
                               : 0;
  out.values["render.overlay_ms"] =
      overlay_frames.frames > 0
          ? overlay_frames.render_ms / overlay_frames.frames
          : 0;
  out.values["render.samples"] = frames > 0 ? all_samples / frames : 0;
  out.values["render.samples_skipped"] =
      frames > 0 ? (static_frames.skipped + iatf_frames.skipped +
                    overlay_frames.skipped) / frames
                 : 0;
  out.values["render.skip_rate.static"] = static_frames.skip_rate();
  out.values["render.skip_rate.iatf"] = iatf_frames.skip_rate();
  out.values["render.ns_per_sample"] =
      all_samples > 0 ? all_ms * 1e6 / all_samples : 0;
  out.values["render.bricks_active_ratio"] =
      frames > 0 ? (static_frames.active_ratio + iatf_frames.active_ratio +
                    overlay_frames.active_ratio) / frames
                 : 0;

  // Output checks.
  check_decorator(path, p.source, static_cast<int>(options.seed % steps), out);
  if (check_kept) {
    RenderSettings plain = settings;
    plain.empty_space_skipping = false;
    const ImageRgb8 reference = Raycaster(plain).render_step(
        seq, check_step, check_tf, colors, camera, nullptr, nullptr, false);
    out.check("iatf_frame_bitwise", reference.pixels == check_image.pixels,
              "step " + std::to_string(check_step) +
                  " IATF frame vs empty_space_skipping=false re-render");
  } else {
    out.check("iatf_frame_bitwise", false,
              "the IATF frame of step " + std::to_string(check_step) +
                  " was not rendered");
  }
  double worst_dice = 1.0;
  for (int t = 0; t < steps; ++t) {
    const auto it = tracked.masks.find(t);
    const double dice =
        it == tracked.masks.end()
            ? 0.0
            : score_mask(it->second, truth.feature_mask(Playback::sim_step(t)))
                  .f1();
    worst_dice = std::min(worst_dice, dice);
  }
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "%zu of %d steps reached, worst Dice %.3f (floor %.2f)",
                tracked.masks.size(), steps, worst_dice, kDiceFloor);
  out.check("track_quality",
            static_cast<int>(tracked.masks.size()) == steps &&
                worst_dice >= kDiceFloor,
            detail);

  char line[200];
  std::snprintf(line, sizeof line,
                "playback_256: %d passes x %d steps x 3 frames of %dx%d from "
                "%dx%dx%d, skip rate key TF %.3f / IATF %.3f",
                n / steps, steps, kImage, kImage, seq.dims().x, seq.dims().y, seq.dims().z,
                static_frames.skip_rate(), iatf_frames.skip_rate());
  out.report.push_back(line);
}

}  // namespace perfbench
