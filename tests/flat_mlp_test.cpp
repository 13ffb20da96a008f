// Contract tests of the flat batched inference engine (nn/flat_mlp.hpp):
//  * forward_batch is BITWISE identical to Mlp::forward per row, across
//    topologies, activations, batch sizes, and scratch reuse;
//  * FlatMlpCache rebuilds exactly when Mlp::params_hash changes;
//  * a save/load round-trip of the source Mlp reproduces an identical
//    flat engine;
//  * every ported consumer (dataspace, multiclass, multivariate, IATF)
//    matches its scalar reference path exactly;
//  * steady-state inference performs zero heap allocations (shared
//    AllocGuard interposer, util/alloc_guard.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "core/dataspace.hpp"
#include "core/feature_vector.hpp"
#include "core/iatf.hpp"
#include "core/multiclass.hpp"
#include "core/multivariate.hpp"
#include "core/sweep.hpp"
#include "flowsim/datasets.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/streamed_sequence.hpp"
#include "test_helpers.hpp"
#include "util/alloc_guard.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Counting operator new/delete for this binary; DenyAllocScope below
// brackets the regions of interest.
IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

std::vector<double> random_input(Rng& rng, int width) {
  std::vector<double> in(static_cast<std::size_t>(width));
  for (double& x : in) x = rng.uniform(-1.5, 1.5);
  return in;
}

// -------------------------------------------------------------------------
// Bitwise forward parity.

struct Topology {
  std::vector<int> sizes;
  Activation hidden;
};

class FlatMlpParityTest : public ::testing::TestWithParam<Topology> {};

TEST_P(FlatMlpParityTest, MatchesMlpForwardBitwise) {
  const Topology& topo = GetParam();
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(topo.sizes.front()));
  Mlp net(topo.sizes, rng, topo.hidden);
  FlatMlp flat(net);
  EXPECT_EQ(flat.num_inputs(), net.num_inputs());
  EXPECT_EQ(flat.num_outputs(), net.num_outputs());

  FlatMlp::Scratch scratch;
  std::vector<double> out(static_cast<std::size_t>(net.num_outputs()));
  for (int trial = 0; trial < 16; ++trial) {
    const auto in = random_input(rng, net.num_inputs());
    const auto ref = net.forward(in);
    flat.forward_batch(in.data(), 1, out.data(), scratch);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j) {
      // EXPECT_EQ on doubles: exact (bitwise) equality, not a tolerance.
      EXPECT_EQ(out[j], ref[j]) << "unit " << j << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FlatMlpParityTest,
    ::testing::Values(Topology{{1, 2, 1}, Activation::kSigmoid},
                      Topology{{5, 8, 1}, Activation::kSigmoid},
                      Topology{{19, 12, 1}, Activation::kSigmoid},
                      Topology{{3, 10, 4, 2}, Activation::kTanh},
                      Topology{{7, 16, 16, 3}, Activation::kTanh}));

TEST(FlatMlp, BatchMatchesPerRowEvaluation) {
  Rng rng(77);
  Mlp net({9, 11, 2}, rng);
  FlatMlp flat(net);
  // 257 rows: crosses several kTileRows tiles plus a ragged tail.
  const int n = 4 * FlatMlp::kTileRows + 1;
  const int in_w = net.num_inputs();
  const int out_w = net.num_outputs();
  std::vector<double> in(static_cast<std::size_t>(n) * in_w);
  for (double& x : in) x = rng.uniform(-2.0, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n) * out_w);
  FlatMlp::Scratch scratch;
  flat.forward_batch(in.data(), n, out.data(), scratch);
  for (int r = 0; r < n; ++r) {
    const auto ref = net.forward(std::span<const double>(
        in.data() + static_cast<std::size_t>(r) * in_w,
        static_cast<std::size_t>(in_w)));
    for (int j = 0; j < out_w; ++j) {
      EXPECT_EQ(out[static_cast<std::size_t>(r) * out_w + j],
                ref[static_cast<std::size_t>(j)])
          << "row " << r;
    }
  }
}

TEST(FlatMlp, ColsMatchesRowMajorBitwise) {
  Rng rng(123);
  Mlp net({19, 12, 1}, rng);
  FlatMlp flat(net);
  const int in_w = net.num_inputs();
  const int out_w = net.num_outputs();
  FlatMlp::Scratch scratch;
  // Ragged batch sizes and an ld larger than n: the column-major entry
  // point must match forward_batch (and hence Mlp::forward) bit for bit.
  for (int n : {1, 7, FlatMlp::kTileRows, FlatMlp::kTileRows + 5, 200}) {
    const int ld = n + 13;
    std::vector<double> rows(static_cast<std::size_t>(n) * in_w);
    for (double& x : rows) x = rng.uniform(-2.0, 2.0);
    std::vector<double> cols(static_cast<std::size_t>(ld) * in_w, 0.0);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < in_w; ++c) {
        cols[static_cast<std::size_t>(c) * ld + r] =
            rows[static_cast<std::size_t>(r) * in_w + c];
      }
    }
    std::vector<double> out_rows(static_cast<std::size_t>(n) * out_w);
    std::vector<double> out_cols(static_cast<std::size_t>(n) * out_w);
    flat.forward_batch(rows.data(), n, out_rows.data(), scratch);
    flat.forward_batch_cols(cols.data(), ld, n, out_cols.data(), scratch);
    for (std::size_t i = 0; i < out_rows.size(); ++i) {
      EXPECT_EQ(out_cols[i], out_rows[i]) << "n=" << n << " idx " << i;
    }
  }
}

TEST(FlatMlp, ScratchReusableAcrossBatchSizes) {
  Rng rng(31);
  Mlp net({6, 9, 5, 1}, rng, Activation::kTanh);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;  // one scratch across every size below
  for (int n : {1, 200, 7, FlatMlp::kTileRows, FlatMlp::kTileRows + 1, 3}) {
    std::vector<double> in(static_cast<std::size_t>(n) * 6);
    for (double& x : in) x = rng.uniform(-1.0, 1.0);
    std::vector<double> out(static_cast<std::size_t>(n));
    flat.forward_batch(in.data(), n, out.data(), scratch);
    for (int r = 0; r < n; ++r) {
      const auto ref = net.forward(std::span<const double>(
          in.data() + static_cast<std::size_t>(r) * 6, 6));
      EXPECT_EQ(out[static_cast<std::size_t>(r)], ref[0])
          << "n=" << n << " row " << r;
    }
  }
}

TEST(FlatMlp, ValidatesArguments) {
  FlatMlp uninitialized;
  FlatMlp::Scratch scratch;
  double x = 0.0;
  EXPECT_FALSE(uninitialized.valid());
  EXPECT_THROW(uninitialized.forward_batch(&x, 1, &x, scratch), Error);
  EXPECT_THROW(Mlp uninit_net; FlatMlp flat(uninit_net), Error);

  Rng rng(1);
  Mlp net({2, 3, 1}, rng);
  FlatMlp flat(net);
  EXPECT_TRUE(flat.valid());
  EXPECT_THROW(flat.forward_batch(nullptr, 1, &x, scratch), Error);
  EXPECT_THROW(flat.forward_batch(&x, -1, &x, scratch), Error);
  flat.forward_batch(nullptr, 0, nullptr, scratch);  // empty batch is a no-op
}

// -------------------------------------------------------------------------
// Cache rebuild policy.

TEST(FlatMlpCache, RebuildsOnlyOnParamsHashChange) {
  Rng rng(5);
  Mlp net({4, 6, 1}, rng);
  FlatMlpCache cache;
  EXPECT_EQ(cache.rebuilds(), 0u);

  auto first = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(first->source_params_hash(), net.params_hash());

  // Unchanged weights: same engine, no rebuild.
  auto again = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(first.get(), again.get());

  // Training changes params_hash -> rebuild with the new weights.
  const std::uint64_t before = net.params_hash();
  std::vector<double> in{0.2, 0.4, 0.6, 0.8}, target{0.9};
  net.train_sample(in, target, BackpropConfig{0.5, 0.0});
  EXPECT_NE(net.params_hash(), before);
  auto rebuilt = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_NE(first.get(), rebuilt.get());
  EXPECT_EQ(rebuilt->source_params_hash(), net.params_hash());
  // The old shared_ptr stays usable (DerivedCache lifetime rule).
  FlatMlp::Scratch scratch;
  double old_out = 0.0, new_out = 0.0;
  first->forward_batch(in.data(), 1, &old_out, scratch);
  rebuilt->forward_batch(in.data(), 1, &new_out, scratch);
  EXPECT_NE(old_out, new_out);
  EXPECT_EQ(new_out, net.forward_scalar(in));
}

TEST(FlatMlp, SaveLoadRoundTripReproducesIdenticalEngine) {
  Rng rng(13);
  Mlp net({5, 7, 2}, rng, Activation::kTanh);
  std::vector<double> in{0.1, -0.3, 0.5, 0.7, -0.9}, target{0.8, 0.2};
  for (int i = 0; i < 25; ++i) {
    net.train_sample(in, target, BackpropConfig{0.3, 0.5});
  }

  std::stringstream stream;
  net.save(stream);
  Mlp reloaded = Mlp::load(stream);
  EXPECT_EQ(reloaded.params_hash(), net.params_hash());

  FlatMlp flat_orig(net);
  FlatMlp flat_loaded(reloaded);
  FlatMlp::Scratch scratch;
  Rng input_rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const auto probe = random_input(input_rng, 5);
    double a[2], b[2];
    flat_orig.forward_batch(probe.data(), 1, a, scratch);
    flat_loaded.forward_batch(probe.data(), 1, b, scratch);
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
  }
}

// -------------------------------------------------------------------------
// Consumer parity: every ported per-voxel pass against its scalar reference.

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, int step,
                                    double certainty) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back(PaintedVoxel{Index3{i, j, k}, step, certainty});
      }
    }
  }
  return out;
}

// Every column of `voxels`, assembled in batches of `batch` voxels, must
// equal the scalar assemble_feature_vector component bit for bit.
void expect_cols_match_vector(const VolumeF& v, const FeatureVectorSpec& spec,
                              const std::vector<Index3>& voxels, int batch) {
  const FeatureContext ctx{&v, 2, 5, 0.0, 1.0};
  const FeatureBlockAssembler assembler(spec, ctx);
  const int w = assembler.width();
  const int ld = batch + 5;
  std::vector<double> cols(static_cast<std::size_t>(ld) * w);
  const int total = static_cast<int>(voxels.size());
  for (int b0 = 0; b0 < total; b0 += batch) {
    const int n = std::min(batch, total - b0);
    std::fill(cols.begin(), cols.end(), -1.0);
    assembler.assemble_feature_cols(voxels.data() + b0, n, cols.data(), ld);
    for (int r = 0; r < n; ++r) {
      const Index3 p = voxels[static_cast<std::size_t>(b0 + r)];
      const std::vector<double> ref =
          assemble_feature_vector(spec, ctx, p.x, p.y, p.z);
      ASSERT_EQ(ref.size(), static_cast<std::size_t>(w));
      for (int c = 0; c < w; ++c) {
        const double got = cols[static_cast<std::size_t>(c) * ld + r];
        ASSERT_EQ(std::memcmp(&got, &ref[static_cast<std::size_t>(c)],
                              sizeof(double)),
                  0)
            << "dims " << v.dims().x << "x" << v.dims().y << "x"
            << v.dims().z << " voxel (" << p.x << "," << p.y << "," << p.z
            << ") component " << c << ": " << got << " vs "
            << ref[static_cast<std::size_t>(c)];
      }
    }
  }
}

std::vector<Index3> x_fastest_voxels(const Dims& d) {
  std::vector<Index3> voxels;
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) voxels.push_back({i, j, k});
    }
  }
  return voxels;
}

TEST(ConsumerParity, AssembleColsMatchesScalarVectorBitwise) {
  const Dims d{13, 11, 9};
  VolumeF v = testing::random_volume(d, 37);
  FeatureVectorSpec spec;  // defaults: value + 14-shell + position + time
  spec.use_gradient = true;

  // Strided voxel list with heavy border coverage (every corner/edge
  // region): runs of length one, each through the clamped-x edge path.
  std::vector<Index3> voxels;
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; j += 2) {
      for (int i = 0; i < d.x; i += 3) voxels.push_back({i, j, k});
    }
  }
  expect_cols_match_vector(v, spec, voxels,
                           static_cast<int>(voxels.size()));
  // Consecutive x on different rows (y or z steps) are separate runs.
  std::vector<Index3> stairs;
  for (int i = 0; i < d.x; ++i) stairs.push_back({i, i % d.y, 0});
  for (int i = 0; i < d.x; ++i) stairs.push_back({i, 0, i % d.z});
  expect_cols_match_vector(v, spec, stairs, static_cast<int>(stairs.size()));

  // The sweep's x-fastest order in its 256-voxel batches: whole-row runs,
  // each split into an in-range span and clamped ends.
  struct Case {
    Dims d;
    double radius;
    int shell_samples;
  };
  const Case cases[] = {
      {d, 3.0, 14},
      // Narrower than the shell's reach in x: no run has an in-range span.
      {{5, 7, 9}, 6.0, 26},
      // Width-1 axes: every corner on that axis is clamped.
      {{1, 6, 7}, 2.0, 14},
      {{6, 1, 7}, 2.0, 14},
      {{6, 7, 1}, 2.0, 14},
      // Batches split rows mid-run.
      {{37, 9, 4}, 3.0, 26},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.d.x << "x" << c.d.y << "x"
                                      << c.d.z << " r" << c.radius);
    const VolumeF cv = testing::random_volume(c.d, 71);
    spec.shell_radius = c.radius;
    spec.shell_samples = c.shell_samples;
    expect_cols_match_vector(cv, spec, x_fastest_voxels(c.d), kSweepBatch);
  }
}

TEST(ConsumerParity, ClassifyMatchesScalarReferenceBitwise) {
  const Dims d{13, 11, 9};  // odd dims: ragged batches at every seam
  VolumeF v = testing::random_volume(d, 21);
  DataSpaceConfig cfg;
  cfg.spec.use_gradient = true;
  DataSpaceClassifier clf(3, 0.0, 1.0, cfg);
  clf.add_samples(v, 1, paint_box({1, 1, 1}, {3, 3, 3}, 1, 1.0));
  clf.add_samples(v, 1, paint_box({8, 8, 6}, {10, 10, 8}, 1, 0.0));
  clf.train(40);

  const VolumeF batched = clf.classify(v, 1);
  const VolumeF scalar = clf.classify_scalar(v, 1);
  ASSERT_EQ(batched.size(), scalar.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i], scalar[i]) << "voxel " << i;
  }
  // Spot-check the public single-voxel probe as well.
  for (int k = 0; k < d.z; k += 4) {
    EXPECT_EQ(batched.at(2, 3, k),
              static_cast<float>(clf.classify_voxel(v, 1, 2, 3, k)));
  }

  // Border shapes of the assembler's edge path: no in-range x-span (5 wide
  // at radius 6), a width-1 axis, and rows split by batches (d.x = 37).
  struct Case {
    Dims d;
    double radius;
  };
  const Case cases[] = {{{5, 7, 9}, 6.0}, {{1, 6, 7}, 2.0}, {{37, 5, 3}, 3.0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.d.x << "x" << c.d.y << "x"
                                      << c.d.z);
    const VolumeF cv = testing::random_volume(c.d, 23);
    DataSpaceConfig ccfg;
    ccfg.spec.shell_radius = c.radius;
    DataSpaceClassifier cclf(1, 0.0, 1.0, ccfg);
    const Index3 far{c.d.x - 1, c.d.y - 1, c.d.z - 1};
    cclf.add_samples(cv, 0, paint_box({0, 0, 0}, {0, 1, 1}, 0, 1.0));
    cclf.add_samples(cv, 0, paint_box(far, far, 0, 0.0));
    cclf.train(10);
    const VolumeF cb = cclf.classify(cv, 0);
    const VolumeF cs = cclf.classify_scalar(cv, 0);
    ASSERT_EQ(cb.size(), cs.size());
    EXPECT_EQ(std::memcmp(cb.data().data(), cs.data().data(),
                          cb.size() * sizeof(float)),
              0);
  }
}

TEST(ConsumerParity, ClassifySliceMatchesVoxelProbe) {
  struct Case {
    Dims d;
    double radius;
  };
  // The last case is narrower than the shell's reach on every axis.
  const Case cases[] = {{{8, 10, 12}, 3.0}, {{5, 7, 9}, 6.0}};
  for (const Case& c : cases) {
    const Dims d = c.d;
    VolumeF v = testing::random_volume(d, 16);
    DataSpaceConfig cfg;
    cfg.spec.shell_radius = c.radius;
    DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
    clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 1.0));
    clf.train(10);
    for (int axis : {0, 1, 2}) {
      int width = 0, height = 0, extent = 0;
      switch (axis) {
        case 0: width = d.y; height = d.z; extent = d.x; break;
        case 1: width = d.x; height = d.z; extent = d.y; break;
        default: width = d.x; height = d.y; extent = d.z; break;
      }
      for (int slice : {0, 2, extent - 1}) {
        auto img = clf.classify_slice(v, 0, axis, slice);
        ASSERT_EQ(img.size(), static_cast<std::size_t>(width) * height);
        for (int row = 0; row < height; ++row) {
          for (int col = 0; col < width; ++col) {
            int i = 0, j = 0, k = 0;
            switch (axis) {
              case 0: i = slice; j = col; k = row; break;
              case 1: i = col; j = slice; k = row; break;
              default: i = col; j = row; k = slice; break;
            }
            const float expected =
                static_cast<float>(clf.classify_voxel(v, 0, i, j, k));
            const float got = img[static_cast<std::size_t>(row) * width + col];
            ASSERT_EQ(std::memcmp(&got, &expected, sizeof(float)), 0)
                << "dims " << d.x << "x" << d.y << "x" << d.z << " axis "
                << axis << " (" << i << "," << j << "," << k << ")";
          }
        }
      }
    }
  }
}

TEST(ConsumerParity, ClassifySliceValidatesUpFront) {
  const Dims d{8, 10, 12};
  VolumeF v = testing::random_volume(d, 16);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 1.0));
  clf.train(5);
  EXPECT_THROW(clf.classify_slice(v, 0, 3, 0), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, -1, 0), Error);
  // Slice index checked against the *selected axis* extent, before any
  // worker runs: d.x=8, d.y=10, d.z=12.
  EXPECT_THROW(clf.classify_slice(v, 0, 0, 8), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 1, 10), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 2, 12), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 2, -1), Error);
  EXPECT_EQ(clf.classify_slice(v, 0, 0, 7).size(),
            static_cast<std::size_t>(d.y) * d.z);
}

TEST(ConsumerParity, MultiClassMatchesVoxelProbe) {
  const Dims d{9, 9, 9};
  VolumeF v = testing::random_volume(d, 33);
  MultiClassConfig cfg;
  cfg.spec.shell_samples = 6;
  MultiClassClassifier clf(3, 1, 0.0, 1.0, cfg);
  auto paint_class = [](Index3 lo, Index3 hi, int class_id) {
    std::vector<ClassSample> out;
    for (int k = lo.z; k <= hi.z; ++k) {
      for (int j = lo.y; j <= hi.y; ++j) {
        for (int i = lo.x; i <= hi.x; ++i) {
          out.push_back(ClassSample{Index3{i, j, k}, 0, class_id});
        }
      }
    }
    return out;
  };
  clf.add_samples(v, 0, paint_class({0, 0, 0}, {1, 1, 1}, 0));
  clf.add_samples(v, 0, paint_class({4, 4, 4}, {5, 5, 5}, 1));
  clf.add_samples(v, 0, paint_class({7, 7, 7}, {8, 8, 8}, 2));
  clf.train(30);

  std::vector<VolumeF> certainty;
  for (int c = 0; c < 3; ++c) certainty.push_back(clf.class_certainty(v, 0, c));
  const Volume<std::uint8_t> labels = clf.label_volume(v, 0);
  for (int k = 0; k < d.z; k += 2) {
    for (int j = 0; j < d.y; j += 2) {
      for (int i = 0; i < d.x; i += 2) {
        const auto scores = clf.classify_voxel(v, 0, i, j, k);
        int best = 0;
        for (int c = 0; c < 3; ++c) {
          EXPECT_EQ(certainty[static_cast<std::size_t>(c)].at(i, j, k),
                    static_cast<float>(scores[static_cast<std::size_t>(c)]));
          if (scores[static_cast<std::size_t>(c)] >
              scores[static_cast<std::size_t>(best)]) {
            best = c;
          }
        }
        EXPECT_EQ(labels.at(i, j, k), static_cast<std::uint8_t>(best));
      }
    }
  }
}

TEST(ConsumerParity, MultivariateMatchesVoxelProbe) {
  const Dims d{10, 8, 6};
  VolumeF a = testing::random_volume(d, 41);
  VolumeF b = testing::random_volume(d, 42);
  std::vector<const VolumeF*> vars{&a, &b};
  MultivariateConfig cfg;
  cfg.spec.num_variables = 2;
  cfg.spec.shell_samples = 6;
  MultivariateClassifier clf(1, {{0.0, 1.0}, {0.0, 1.0}}, cfg);
  clf.add_samples(vars, 0, paint_box({1, 1, 1}, {2, 2, 2}, 0, 1.0));
  clf.add_samples(vars, 0, paint_box({6, 5, 3}, {8, 6, 4}, 0, 0.0));
  clf.train(30);

  const VolumeF certainty = clf.classify(vars, 0);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; j += 2) {
      for (int i = 0; i < d.x; i += 2) {
        EXPECT_EQ(certainty.at(i, j, k),
                  static_cast<float>(clf.classify_voxel(vars, 0, i, j, k)));
      }
    }
  }
}

TEST(ConsumerParity, IatfEvaluateMatchesScalarOpacity) {
  Dims d{12, 12, 12};
  auto source = std::make_shared<CallbackSource>(
      d, 6, std::pair<double, double>{0.0, 1.0}, [d](int step) {
        return testing::random_volume(d, 100 + static_cast<std::uint64_t>(step));
      });
  StreamedSequence seq(source);
  Iatf iatf(seq);
  TransferFunction1D key(0.0, 1.0);
  key.add_band(0.3, 0.6, 0.9, 0.05);
  iatf.add_key_frame(0, key);
  iatf.add_key_frame(5, key);
  iatf.train(25);

  for (int step : {0, 2, 5}) {
    const TransferFunction1D tf = iatf.evaluate(step);
    for (int e = 0; e < TransferFunction1D::kEntries; e += 7) {
      // opacity() is the scalar forward_scalar reference path.
      EXPECT_EQ(tf.opacity_entry(e), iatf.opacity(tf.entry_value(e), step))
          << "step " << step << " entry " << e;
    }
  }
}

// -------------------------------------------------------------------------
// Allocation contract.

TEST(AllocationContract, WarmForwardBatchAllocatesNothing) {
  Rng rng(61);
  Mlp net({19, 12, 1}, rng);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;
  const int n = 300;
  std::vector<double> in(static_cast<std::size_t>(n) * 19);
  for (double& x : in) x = rng.uniform(0.0, 1.0);
  std::vector<double> out(static_cast<std::size_t>(n));
  flat.forward_batch(in.data(), n, out.data(), scratch);  // warm the scratch

  DenyAllocScope guard;
  for (int pass = 0; pass < 4; ++pass) {
    flat.forward_batch(in.data(), n, out.data(), scratch);
  }
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(AllocationContract, WarmClassifyAllocationsAreBoundedPerCall) {
  const Dims d{16, 16, 16};
  VolumeF v = testing::random_volume(d, 55);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({2, 2, 2}, {4, 4, 4}, 0, 1.0));
  clf.train(20);
  auto per_call = [&clf](const VolumeF& volume) {
    (void)clf.classify(volume, 0);  // warm: builds the flat engine
    DenyAllocScope guard;
    (void)clf.classify(volume, 0);
    return guard.allocations();
  };
  // Per call: the output volume, the assembler's direction table, a handful
  // of per-task batch buffers, and the pool's task plumbing — all
  // independent of the 4096 voxels classified. The bound scales with the
  // worker count, never with the voxel count.
  const std::size_t bound = 128 + 64 * ThreadPool::global().size();
  EXPECT_LE(per_call(v), bound);

  // Taller volumes are more sweep chunks (4 and 16 here), but the batch
  // buffers are allocated per task, not per chunk: at a fixed pool width
  // the count does not grow with d.z. A task that finds no chunk left
  // skips its FlatMlp::Scratch warm-up (two buffers), hence the slack.
  const VolumeF tall = testing::random_volume(Dims{16, 16, 64}, 56);
  const VolumeF taller = testing::random_volume(Dims{16, 16, 256}, 57);
  EXPECT_LE(per_call(tall), bound);
  ThreadPool::ScopedGlobalWidth width(2);
  const std::size_t tasks = 3;  // pool width + the calling thread
  EXPECT_LE(per_call(taller), per_call(tall) + 2 * tasks);
}

}  // namespace
}  // namespace ifet
