// classify_256: data-space classification of reionization at 256^3. The
// classifier is trained in set-up on voxels painted from the ground-truth
// masks; each run then sweeps DataSpaceClassifier::classify over the
// streamed steps, with no rendering or tracking.
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/dataspace.hpp"
#include "eval/metrics.hpp"
#include "inputs.hpp"
#include "io/compressed.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ifet;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kTrainEpochs = 400;
/// Shell radius in 256^3 voxels; the generator grid is 4x coarser, so
/// this is the Fig 7 radius of 3 voxels scaled to the stored grid.
constexpr double kShellRadius = 12.0;
/// Decoded-step budget: the pinned window and one prefetched step, below
/// the recorded steps, so the sweep streams.
constexpr int kBudgetSteps = 4;
constexpr int kCheckedVoxels = 4096;
/// Fig 7 shape: large structures kept, tiny features suppressed.
constexpr double kMinLargeRecall = 0.8;
constexpr double kMaxSmallLeakage = 0.3;

struct Pipeline {
  std::shared_ptr<TimingSource> source;
  std::unique_ptr<StreamedSequence> sequence;
  std::unique_ptr<DataSpaceClassifier> classifier;
};

/// Emulated painting: `count` voxels drawn uniformly from a mask.
void paint(const Mask& mask, double certainty, std::size_t count, Rng& rng,
           std::vector<PaintedVoxel>& out) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) candidates.push_back(i);
  }
  for (std::size_t s = 0; s < count && !candidates.empty(); ++s) {
    out.push_back({mask.coord_of(candidates[rng.uniform_index(
                       candidates.size())]),
                   Classify::kPaintStep, certainty});
  }
}

Pipeline set_up(const std::string& path,
                const std::vector<PaintedVoxel>& painted, double& train_ms) {
  Pipeline p;
  p.source = std::make_shared<TimingSource>(
      std::make_shared<CompressedFileSource>(path));
  StreamConfig config;
  config.budget_bytes = kBudgetSteps * p.source->dims().count() * sizeof(float);
  config.lookahead = 1;
  p.sequence = std::make_unique<StreamedSequence>(p.source, config);
  DataSpaceConfig dc;
  dc.spec.shell_radius = kShellRadius;
  dc.spec.use_time = false;  // trained on one step, applied to its neighbours
  const auto [lo, hi] = p.sequence->value_range();
  p.classifier = std::make_unique<DataSpaceClassifier>(
      p.sequence->num_steps(), lo, hi, dc);
  p.classifier->add_samples(*p.sequence, Classify::kPaintStep, painted);
  const Clock::time_point start = Clock::now();
  p.classifier->train(kTrainEpochs);
  train_ms = ms_between(start, Clock::now());
  return p;
}

}  // namespace

void run_classify(const Options& options, Result& out) {
  const std::string path = cvol_path(options.input_prefix);
  const auto [large, small] = read_classify_masks(options.input_prefix);
  Mask background(large.dims());
  for (std::size_t i = 0; i < background.size(); ++i) {
    background[i] = !large[i] && !small[i] ? 1 : 0;
  }
  std::vector<PaintedVoxel> painted;
  Rng rng(mix_seed(options.seed, 20));
  paint(large, 1.0, 500, rng, painted);
  paint(small, 0.0, 350, rng, painted);
  paint(background, 0.0, 350, rng, painted);

  Pipeline p;
  for (int r = 0; r < kSetupRepeats; ++r) {
    p.classifier.reset();
    p.sequence.reset();
    p.source.reset();
    double train_ms = 0.0;
    const Clock::time_point start = Clock::now();
    p = set_up(path, painted, train_ms);
    out.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    out.sample("classify.train_ms", train_ms);
  }
  StreamedSequence& seq = *p.sequence;
  const DataSpaceClassifier& clf = *p.classifier;
  const int steps = seq.num_steps();
  const double voxels = static_cast<double>(seq.dims().count());

  const TimingSource::Counts io_before = p.source->counts();
  const StreamStats stream_before = seq.stats();
  VolumeF checked;  // last certainty volume of the painted step

  // The sweep runs whole passes over the recorded steps, so every run
  // times the same steps whatever the machine's speed.
  set_tracing(options.trace);
  const Clock::time_point begin = Clock::now();
  int n = 0;
  for (; another_op(n, steps, begin, options.seconds); ++n) {
    const int t = n % steps;
    set_current_op(n);
    ++out.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      VolumeF certainty;
      {
        Span op("classify_256", "step");
        {
          Span span("stream", "fetch");
          const Clock::time_point s = Clock::now();
          seq.step(t);
          out.sample("stream.fetch_wait_ms", ms_between(s, Clock::now()));
        }
        Span span("classify", "classify");
        const Clock::time_point s = Clock::now();
        certainty = clf.classify(seq, t);
        if (t + 1 == steps) seq.prefetch_hint(0);  // the sweep loops
        out.sample("classify.ms", ms_between(s, Clock::now()));
      }
      out.op_ms.push_back(ms_between(t0, Clock::now()));
      if (t == Classify::kPaintStep) checked = std::move(certainty);
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "classify step %d failed: %s\n", n, e.what());
    }
  }
  const double wall_s = ms_between(begin, Clock::now()) / 1e3;
  report_peak_rss(out);
  set_tracing(false);
  out.ops_per_s = n / wall_s;

  report_io(io_before, p.source->counts(), out);
  report_stream(stream_before, seq.stats(), out);
  const double median_ms = median(out.samples["classify.ms"]);
  out.values["classify.voxels_per_s"] =
      median_ms > 0 ? voxels / (median_ms / 1e3) : 0;

  // Output checks.
  check_decorator(path, p.source, static_cast<int>(options.seed % steps), out);
  if (checked.size() == 0) {
    out.check("classify_voxel_bitwise", false,
              "the painted step was not classified");
    return;
  }
  const VolumeF& volume = seq.step(Classify::kPaintStep);
  Rng pick(mix_seed(options.seed, 21));
  int mismatches = 0;
  for (int i = 0; i < kCheckedVoxels; ++i) {
    const Index3 v = checked.coord_of(pick.uniform_index(checked.size()));
    const float expected = static_cast<float>(
        clf.classify_voxel(volume, Classify::kPaintStep, v.x, v.y, v.z));
    const float got = checked.at(v);
    if (std::memcmp(&expected, &got, sizeof(float)) != 0) ++mismatches;
  }
  out.check("classify_voxel_bitwise", mismatches == 0,
            std::to_string(mismatches) + " of " +
                std::to_string(kCheckedVoxels) +
                " sampled voxels differ from classify_voxel");

  Mask extracted(checked.dims());
  for (std::size_t i = 0; i < extracted.size(); ++i) {
    extracted[i] = checked[i] >= 0.5f ? 1 : 0;
  }
  const double recall = coverage(extracted, large);
  const double leakage = coverage(extracted, small);
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "large recall %.3f (> %.2f), small leakage %.3f (< %.2f)",
                recall, kMinLargeRecall, leakage, kMaxSmallLeakage);
  out.check("fig7_shape", recall > kMinLargeRecall && leakage < kMaxSmallLeakage,
            detail);

  char line[160];
  std::snprintf(line, sizeof line,
                "classify_256: %d passes over %d streamed %dx%dx%d steps",
                n / steps, steps, seq.dims().x, seq.dims().y, seq.dims().z);
  out.report.push_back(line);
}

}  // namespace perfbench
