#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/normalizer.hpp"
#include "nn/training.hpp"
#include "util/alloc_guard.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

// Counting operator new/delete, so the hostile-stream tests can bound what
// Mlp::load allocates before it rejects a header.
IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

TEST(Mlp, ConstructionValidatesTopology) {
  Rng rng(1);
  EXPECT_THROW(Mlp({3}, rng), Error);
  EXPECT_THROW(Mlp({3, 0, 1}, rng), Error);
  Mlp net({3, 8, 1}, rng);
  EXPECT_EQ(net.num_inputs(), 3);
  EXPECT_EQ(net.num_outputs(), 1);
  // 3*8 + 8 + 8*1 + 1 parameters.
  EXPECT_EQ(net.parameter_count(), 41u);
}

TEST(Mlp, OutputsAreSigmoidBounded) {
  Rng rng(2);
  Mlp net({4, 6, 2}, rng);
  std::vector<double> in{0.1, -5.0, 3.0, 0.7};
  auto out = net.forward(in);
  ASSERT_EQ(out.size(), 2u);
  for (double o : out) {
    EXPECT_GT(o, 0.0);
    EXPECT_LT(o, 1.0);
  }
}

TEST(Mlp, ForwardRejectsWrongWidth) {
  Rng rng(3);
  Mlp net({3, 4, 1}, rng);
  std::vector<double> in{0.1, 0.2};
  EXPECT_THROW(net.forward(in), Error);
}

TEST(Mlp, ForwardScalarRequiresSingleOutput) {
  Rng rng(4);
  Mlp net({2, 4, 2}, rng);
  std::vector<double> in{0.1, 0.2};
  EXPECT_THROW(net.forward_scalar(in), Error);
}

TEST(Mlp, DeterministicForSeed) {
  Rng rng1(9), rng2(9);
  Mlp a({3, 5, 1}, rng1);
  Mlp b({3, 5, 1}, rng2);
  std::vector<double> in{0.3, 0.6, 0.9};
  EXPECT_DOUBLE_EQ(a.forward_scalar(in), b.forward_scalar(in));
}

TEST(Mlp, TrainSampleReducesErrorOnRepeat) {
  Rng rng(5);
  Mlp net({2, 6, 1}, rng);
  std::vector<double> in{0.2, 0.8};
  std::vector<double> target{0.9};
  BackpropConfig cfg{0.5, 0.0};
  double first = net.train_sample(in, target, cfg);
  double last = first;
  for (int i = 0; i < 200; ++i) last = net.train_sample(in, target, cfg);
  EXPECT_LT(last, first * 0.1);
}

// Gradient check across topologies and activations: backprop must agree
// with finite differences (the canonical property test for NN code).
struct GradCase {
  std::vector<int> sizes;
  Activation hidden;
};

class GradientCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradientCheckTest, BackpropMatchesNumericGradient) {
  const auto& param = GetParam();
  Rng rng(17);
  Mlp net(param.sizes, rng, param.hidden);
  Sample sample;
  Rng srng(18);
  for (int i = 0; i < param.sizes.front(); ++i) {
    sample.input.push_back(srng.uniform());
  }
  for (int i = 0; i < param.sizes.back(); ++i) {
    sample.target.push_back(srng.uniform());
  }
  EXPECT_LT(gradient_check(net, sample), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, GradientCheckTest,
    ::testing::Values(GradCase{{2, 4, 1}, Activation::kSigmoid},
                      GradCase{{3, 8, 1}, Activation::kSigmoid},
                      GradCase{{3, 8, 1}, Activation::kTanh},
                      GradCase{{5, 7, 3}, Activation::kSigmoid},
                      GradCase{{4, 6, 5, 2}, Activation::kSigmoid},
                      GradCase{{1, 3, 1}, Activation::kTanh}));

TEST(Trainer, LearnsXor) {
  Rng rng(21);
  Mlp net({2, 8, 1}, rng);
  TrainingSet set;
  set.add({0, 0}, {0});
  set.add({0, 1}, {1});
  set.add({1, 0}, {1});
  set.add({1, 1}, {0});
  Trainer trainer(net, BackpropConfig{0.6, 0.8}, 22);
  trainer.run_epochs(set, 4000);
  EXPECT_LT(net.forward_scalar(std::vector<double>{0.0, 0.0}), 0.2);
  EXPECT_GT(net.forward_scalar(std::vector<double>{0.0, 1.0}), 0.8);
  EXPECT_GT(net.forward_scalar(std::vector<double>{1.0, 0.0}), 0.8);
  EXPECT_LT(net.forward_scalar(std::vector<double>{1.0, 1.0}), 0.2);
}

TEST(Trainer, RunForRespectsEpochCap) {
  Rng rng(23);
  Mlp net({2, 4, 1}, rng);
  TrainingSet set;
  set.add({0.5, 0.5}, {0.5});
  Trainer trainer(net, BackpropConfig{}, 24);
  trainer.run_for(set, 1e9, 5);  // huge budget, capped at 5 epochs
  EXPECT_EQ(trainer.epochs_run(), 5);
}

TEST(Trainer, MseDecreasesOnLearnableProblem) {
  Rng rng(25);
  Mlp net({1, 6, 1}, rng);
  TrainingSet set;
  for (int i = 0; i <= 10; ++i) {
    double x = i / 10.0;
    set.add({x}, {x > 0.5 ? 0.9 : 0.1});
  }
  Trainer trainer(net, BackpropConfig{0.4, 0.7}, 26);
  double early = trainer.run_epochs(set, 5);
  double late = trainer.run_epochs(set, 500);
  EXPECT_LT(late, early);
}

TEST(TrainingSet, RejectsInconsistentWidths) {
  TrainingSet set;
  set.add({1.0, 2.0}, {0.5});
  EXPECT_THROW(set.add({1.0}, {0.5}), Error);
  EXPECT_THROW(set.add({1.0, 2.0}, {0.5, 0.5}), Error);
  EXPECT_EQ(set.input_width(), 2u);
}

TEST(Mlp, SaveLoadRoundTripsExactly) {
  Rng rng(31);
  Mlp net({3, 7, 2}, rng, Activation::kTanh);
  // Perturb with some training so weights are not just initialization.
  BackpropConfig cfg{0.3, 0.5};
  std::vector<double> in{0.1, 0.5, 0.9};
  std::vector<double> tgt{0.2, 0.7};
  for (int i = 0; i < 50; ++i) net.train_sample(in, tgt, cfg);

  std::stringstream stream;
  net.save(stream);
  Mlp loaded = Mlp::load(stream);
  EXPECT_EQ(loaded.layer_sizes(), net.layer_sizes());
  EXPECT_EQ(loaded.hidden_activation(), net.hidden_activation());
  auto a = net.forward(in);
  auto b = loaded.forward(in);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream bad("not-a-network 1\n");
  EXPECT_THROW(Mlp::load(bad), CorruptDataError);
}

// A malformed model stream fails typed, and before anything sized by its
// header is allocated: well under 1 MB, where a {2e9, 2e9} network would
// ask for 16 GB per weight row.
void expect_corrupt_and_small(const std::string& text) {
  std::stringstream stream(text);
  DenyAllocScope scope;
  EXPECT_THROW(Mlp::load(stream), CorruptDataError) << text;
  EXPECT_LT(scope.bytes(), 1u << 20) << text;
}

TEST(Mlp, LoadRejectsHugeLayerSizes) {
  expect_corrupt_and_small("ifet-mlp 1 2 2000000000 2000000000 0\n");
  expect_corrupt_and_small("ifet-mlp 1 3 4 99999999999 1 0\n");
  // Every width in range, but the parameter total exceeds the bound.
  const std::string w = std::to_string(Mlp::kMaxLayerWidth);
  expect_corrupt_and_small("ifet-mlp 1 3 " + w + " " + w + " " + w + " 0\n");
}

TEST(Mlp, LoadRejectsNegativeAndZeroSizes) {
  expect_corrupt_and_small("ifet-mlp 1 3 4 -5 1 0\n");
  expect_corrupt_and_small("ifet-mlp 1 3 4 0 1 0\n");
  expect_corrupt_and_small("ifet-mlp 1 -2 4 1 0\n");
  expect_corrupt_and_small("ifet-mlp 1 0 0\n");
}

TEST(Mlp, LoadRejectsTruncatedStreams) {
  Rng rng(33);
  Mlp net({3, 7, 2}, rng);
  std::stringstream full;
  net.save(full);
  const std::string text = full.str();
  // Cut inside the weights, before the activation id, and before the
  // layer sizes.
  for (const std::size_t keep :
       {text.size() / 2, text.find('\n', 12) + 1, std::size_t{11}}) {
    expect_corrupt_and_small(text.substr(0, keep));
  }
  expect_corrupt_and_small("ifet-mlp 1 3 3 7 2 9\n");  // unknown activation
}

TEST(Mlp, ResizedInputsTransfersSurvivingWeights) {
  Rng rng(41);
  Mlp net({3, 5, 1}, rng);
  // Map: new input 0 <- old input 2, new input 1 <- old input 0.
  Rng rng2(42);
  Mlp small = net.resized_inputs({2, 0}, rng2);
  EXPECT_EQ(small.num_inputs(), 2);
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(small.weights()[0][j][0], net.weights()[0][j][2]);
    EXPECT_DOUBLE_EQ(small.weights()[0][j][1], net.weights()[0][j][0]);
  }
  // Deeper layers copied verbatim.
  EXPECT_EQ(small.weights()[1], net.weights()[1]);
  EXPECT_EQ(small.biases()[1], net.biases()[1]);
}

TEST(Mlp, ResizedInputsEquivalentWhenDroppedInputWasIgnorable) {
  // If the dropped input fed only zero weights, the resized network must
  // produce identical outputs on the surviving inputs.
  Rng rng(43);
  Mlp net({2, 4, 1}, rng);
  for (std::size_t j = 0; j < 4; ++j) net.mutable_weights()[0][j][1] = 0.0;
  Rng rng2(44);
  Mlp one = net.resized_inputs({0}, rng2);
  std::vector<double> full{0.37, 0.99};
  std::vector<double> kept{0.37};
  EXPECT_NEAR(one.forward_scalar(kept), net.forward_scalar(full), 1e-12);
}

TEST(Mlp, ResizedInputsValidatesMapping) {
  Rng rng(45);
  Mlp net({2, 3, 1}, rng);
  EXPECT_THROW(net.resized_inputs({5}, rng), Error);
  EXPECT_THROW(net.resized_inputs({}, rng), Error);
}

TEST(Mlp, EvaluateMseMatchesManualComputation) {
  Rng rng(46);
  Mlp net({1, 3, 1}, rng);
  std::vector<std::vector<double>> ins{{0.2}, {0.8}};
  std::vector<std::vector<double>> tgts{{0.0}, {1.0}};
  double mse = net.evaluate_mse(ins, tgts);
  double manual = 0.0;
  for (int s = 0; s < 2; ++s) {
    double o = net.forward_scalar(ins[static_cast<size_t>(s)]);
    double e = o - tgts[static_cast<size_t>(s)][0];
    manual += e * e;
  }
  manual /= 2.0;
  EXPECT_NEAR(mse, manual, 1e-12);
}

TEST(InputNormalizer, MapsKnownRanges) {
  InputNormalizer norm({0.0, -1.0}, {10.0, 1.0});
  auto out = norm.apply(std::vector<double>{5.0, 0.0});
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  auto clamped = norm.apply(std::vector<double>{-5.0, 9.0});
  EXPECT_DOUBLE_EQ(clamped[0], 0.0);
  EXPECT_DOUBLE_EQ(clamped[1], 1.0);
}

TEST(InputNormalizer, FitLearnsRanges) {
  std::vector<std::vector<double>> inputs{{1.0, 5.0}, {3.0, 5.0}, {2.0, 5.0}};
  InputNormalizer norm = InputNormalizer::fit(inputs);
  auto out = norm.apply(std::vector<double>{2.0, 5.0});
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], 0.5);  // degenerate feature maps to center
}

TEST(InputNormalizer, WidthMismatchThrows) {
  InputNormalizer norm({0.0}, {1.0});
  EXPECT_THROW(norm.apply(std::vector<double>{1.0, 2.0}), Error);
}

}  // namespace
}  // namespace ifet
