// Section 7 classification gates: the correctness contracts of the batched
// FlatMlp engine behind data-space classification. Throughput at the
// paper's operating point (a 256^3 classification; the paper's budget is
// 10 s) is measured end to end by perfbench's classify_256 workload; this
// binary only checks.
//
// Gates (exit nonzero on failure):
//   - a warm FlatMlp::forward_batch makes zero heap allocations and is
//     bitwise identical to Mlp::forward;
//   - perturbed replay: classify and chunked forward_batch digest
//     identically across pool widths, cache temperatures and chunk orders;
//   - the batched classify() is bitwise identical to classify_scalar() on
//     a 64^3 reionization volume.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "core/dataspace.hpp"
#include "flowsim/datasets.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "util/alloc_guard.hpp"
#include "util/determinism.hpp"
#include "util/rng.hpp"

// Counting operator new/delete for this binary so the steady-state
// sections below can assert zero allocations (docs/STATIC_ANALYSIS.md).
IFET_ALLOC_GUARD_INSTALL();

namespace {

using namespace ifet;

std::unique_ptr<DataSpaceClassifier> make_trained_classifier(
    const VolumeF& volume, int shell_samples) {
  DataSpaceConfig cfg;
  cfg.spec.shell_samples = shell_samples;
  auto clf = std::make_unique<DataSpaceClassifier>(1, 0.0, 1.0, cfg);
  std::vector<PaintedVoxel> painted;
  const Dims d = volume.dims();
  for (int s = 0; s < 200; ++s) {
    Index3 p{(s * 7) % d.x, (s * 13) % d.y, (s * 29) % d.z};
    painted.push_back({p, 0, s % 2 == 0 ? 1.0 : 0.0});
  }
  clf->add_samples(volume, 0, painted);
  clf->train(50);
  return clf;
}

/// Scalar-vs-flat parity on the 64^3 reionization case: the batched
/// classify() must be bitwise identical to the classify_scalar() reference,
/// one Mlp::forward per voxel.
int check_flat_matches_scalar() {
  ReionizationConfig cfg;
  cfg.dims = Dims{64, 64, 64};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);

  VolumeF scalar_out = clf->classify_scalar(volume, 0);
  VolumeF flat_out = clf->classify(volume, 0);
  const bool identical =
      scalar_out.size() == flat_out.size() &&
      std::memcmp(scalar_out.data().data(), flat_out.data().data(),
                  scalar_out.size() * sizeof(float)) == 0;
  if (!identical) {
    std::cerr << "bench_perf_classify: batched classify() is NOT bitwise "
                 "identical to classify_scalar() on the 64^3 case\n";
    return 1;
  }
  std::cout << "equivalence check: batched classify() is bitwise equal to "
               "classify_scalar() on the 64^3 reionization case\n";
  return 0;
}

/// Steady-state allocation contract on the IFET_HOT inference kernel: a
/// warm FlatMlp::forward_batch with a caller-owned Scratch must touch the
/// heap zero times (the lint-side guarantee, proven at runtime by the
/// shared AllocGuard), while staying bitwise identical to Mlp::forward.
int check_steady_state_allocations() {
  Rng rng(0x90df);
  Mlp net({19, 16, 1}, rng);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;
  const int n = 6 * FlatMlp::kTileRows + 7;  // several tiles + ragged tail
  std::vector<double> in(static_cast<std::size_t>(n) * 19);
  for (double& x : in) x = rng.uniform(-1.5, 1.5);
  std::vector<double> out(static_cast<std::size_t>(n));
  flat.forward_batch(in.data(), n, out.data(), scratch);  // warm the scratch

  for (int r = 0; r < n; ++r) {
    const auto ref = net.forward(std::span<const double>(
        in.data() + static_cast<std::size_t>(r) * 19, 19));
    if (out[static_cast<std::size_t>(r)] != ref[0]) {
      std::cerr << "bench_perf_classify: forward_batch row " << r
                << " is NOT bitwise identical to Mlp::forward\n";
      return 1;
    }
  }

  ifet::DenyAllocScope guard;
  for (int pass = 0; pass < 8; ++pass) {
    flat.forward_batch(in.data(), n, out.data(), scratch);
  }
  if (guard.allocations() != 0) {
    std::cerr << "bench_perf_classify: warm forward_batch performed "
              << guard.allocations() << " heap allocations (expected 0)\n";
    return 1;
  }
  std::cout << "alloc check: warm FlatMlp::forward_batch made 0 heap "
               "allocations over 8 passes, bitwise equal to Mlp::forward\n";
  return 0;
}

/// Perturbed-replay check on the IFET_DETERMINISTIC classification
/// kernels (util/determinism.hpp): the whole-volume classify and a
/// chunked FlatMlp::forward_batch must produce bitwise-identical outputs
/// across pool widths {1, 4, hardware}, cold and warm caches, and
/// shuffled chunk submission order. This is the dynamic counterpart of
/// ifet_lint's det-* pass: the lint proves no code reachable from the
/// annotation observes an ordering source, this proves the schedule
/// cannot tell the difference either.
int run_replay_check() {
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);

  Rng rng(0x90df);
  Mlp net({19, 16, 1}, rng);
  FlatMlp flat(net);
  const int rows = 6 * FlatMlp::kTileRows + 7;
  std::vector<double> in(static_cast<std::size_t>(rows) * 19);
  for (double& x : in) x = rng.uniform(-1.5, 1.5);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ReplayCheck check("flat_mlp_classify", {1, 4, hw});
  ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    DigestSink sink;

    // Whole-volume classify: the pool partitions voxel rows differently
    // at every width; the certainty field must not notice.
    VolumeF certainty = clf->classify(volume, 0);
    sink.span(certainty.data().data(), certainty.size());

    // Chunked forward_batch into one output buffer, chunks visited in a
    // deterministic shuffle when the trial asks for it: the batched
    // engine's per-row results must not depend on submission order.
    constexpr int kChunk = 48;
    const std::size_t chunks =
        (static_cast<std::size_t>(rows) + kChunk - 1) / kChunk;
    std::vector<std::size_t> order(chunks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (trial.shuffled) order = replay_permutation(chunks, 0x1FE7);
    std::vector<double> out(static_cast<std::size_t>(rows));
    FlatMlp::Scratch scratch;
    for (const std::size_t c : order) {
      const std::size_t lo = c * kChunk;
      const int cnt = static_cast<int>(
          std::min<std::size_t>(kChunk, static_cast<std::size_t>(rows) - lo));
      flat.forward_batch(in.data() + lo * 19, cnt, out.data() + lo, scratch);
    }
    sink.span(out.data(), out.size());
    return sink.value();
  });
  std::cout << report.summary();
  return report.ok ? 0 : 1;
}

}  // namespace

// Every gate runs on each invocation; the exit status is nonzero if any
// failed.
int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0] << " (takes no options)\n";
    return 2;
  }
  int rc = check_steady_state_allocations();
  rc |= run_replay_check();
  rc |= check_flat_matches_scalar();
  return rc;
}
