#include "core/iatf.hpp"

#include <array>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "stream/derived_cache.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

namespace ifet {

namespace {
int count_inputs(const IatfConfig& c) {
  int n = 0;
  if (c.use_value) ++n;
  if (c.use_cumulative_histogram) ++n;
  if (c.use_time) ++n;
  return n;
}

// Classic BPN practice: train towards soft targets instead of the sigmoid
// asymptotes. Hard 0/1 targets drive the output units into saturation
// where f'(z) ~ 0, which freezes learning — in particular the network
// could never *unlearn* a key frame the user later revises.
double soft_target(double opacity) { return clamp(opacity, 0.05, 0.95); }
}  // namespace

Iatf::Iatf(const VolumeSequence& sequence, const IatfConfig& config)
    : sequence_(sequence),
      config_(config),
      input_width_(count_inputs(config)),
      network_(),
      normalizer_(),
      trainer_(network_, config.backprop, config.seed ^ 0x5151ULL) {
  IFET_REQUIRE(input_width_ > 0, "Iatf: at least one input must be enabled");
  IFET_REQUIRE(config_.hidden_units > 0, "Iatf: hidden_units must be > 0");
  Rng rng(config_.seed);
  network_ = Mlp({input_width_, config_.hidden_units, 1}, rng);

  // Fixed, known feature ranges: raw value spans the sequence-global range,
  // the cumulative fraction is already in [0,1], time spans the sequence.
  std::vector<double> lo, hi;
  auto [vlo, vhi] = sequence_.value_range();
  if (config_.use_value) {
    lo.push_back(vlo);
    hi.push_back(vhi);
  }
  if (config_.use_cumulative_histogram) {
    lo.push_back(0.0);
    hi.push_back(1.0);
  }
  if (config_.use_time) {
    lo.push_back(0.0);
    hi.push_back(static_cast<double>(sequence_.num_steps() - 1));
  }
  normalizer_ = InputNormalizer(std::move(lo), std::move(hi));
}

std::vector<double> Iatf::make_input(double value, double cumhist_fraction,
                                     int step) const {
  std::vector<double> raw;
  raw.reserve(static_cast<std::size_t>(input_width_));
  if (config_.use_value) raw.push_back(value);
  if (config_.use_cumulative_histogram) raw.push_back(cumhist_fraction);
  if (config_.use_time) raw.push_back(static_cast<double>(step));
  return normalizer_.apply(raw);
}

void Iatf::add_key_frame(int step, const TransferFunction1D& tf) {
  IFET_REQUIRE(step >= 0 && step < sequence_.num_steps(),
               "Iatf: key frame step outside the sequence");
  auto [vlo, vhi] = sequence_.value_range();
  IFET_REQUIRE(tf.value_lo() == vlo && tf.value_hi() == vhi,
               "Iatf: key-frame TF must span the sequence value range");
  key_frames_.add(step, tf);
  const CumulativeHistogram& ch = sequence_.cumulative_histogram(step);
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    const double value = tf.entry_value(e);
    training_set_.add(make_input(value, ch.fraction_at(value), step),
                      {soft_target(tf.opacity_entry(e))});
  }
}

void Iatf::set_key_frame(int step, const TransferFunction1D& tf) {
  IFET_REQUIRE(step >= 0 && step < sequence_.num_steps(),
               "Iatf: key frame step outside the sequence");
  bool exists = false;
  for (const auto& frame : key_frames_.frames()) {
    if (frame.step == step) {
      exists = true;
      break;
    }
  }
  if (!exists) {
    add_key_frame(step, tf);
    return;
  }
  key_frames_.set(step, tf);
  rebuild_training_set();
}

bool Iatf::remove_key_frame(int step) {
  if (!key_frames_.remove(step)) return false;
  rebuild_training_set();
  return true;
}

void Iatf::rebuild_training_set() {
  training_set_.clear();
  for (const auto& frame : key_frames_.frames()) {
    const CumulativeHistogram& ch =
        sequence_.cumulative_histogram(frame.step);
    for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
      const double value = frame.tf.entry_value(e);
      training_set_.add(
          make_input(value, ch.fraction_at(value), frame.step),
          {soft_target(frame.tf.opacity_entry(e))});
    }
  }
}

double Iatf::train(int epochs) {
  IFET_REQUIRE(!training_set_.empty(), "Iatf::train: add key frames first");
  return trainer_.run_epochs(training_set_, epochs);
}

double Iatf::train_for(double budget_ms) {
  IFET_REQUIRE(!training_set_.empty(),
               "Iatf::train_for: add key frames first");
  return trainer_.run_for(training_set_, budget_ms);
}

TransferFunction1D Iatf::evaluate(int step) const {
  IFET_REQUIRE(step >= 0 && step < sequence_.num_steps(),
               "Iatf::evaluate: step out of range");
  auto [vlo, vhi] = sequence_.value_range();
  TransferFunction1D tf(vlo, vhi);
  const CumulativeHistogram& ch = sequence_.cumulative_histogram(step);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  // All 256 entries form one inference batch. The scratch is stack-local —
  // TF synthesis is per step, not per voxel, and a member scratch would
  // race concurrent const evaluate() calls.
  FlatMlp::Scratch scratch;
  constexpr int kEntries = TransferFunction1D::kEntries;
  std::vector<double> inputs(static_cast<std::size_t>(kEntries) *
                             static_cast<std::size_t>(input_width_));
  std::vector<double> opacities(kEntries);
  for (int e = 0; e < kEntries; ++e) {
    const double value = tf.entry_value(e);
    std::array<double, 3> raw{};
    int n = 0;
    if (config_.use_value) raw[static_cast<std::size_t>(n++)] = value;
    if (config_.use_cumulative_histogram) {
      raw[static_cast<std::size_t>(n++)] = ch.fraction_at(value);
    }
    if (config_.use_time) {
      raw[static_cast<std::size_t>(n++)] = static_cast<double>(step);
    }
    normalizer_.apply_into(
        std::span<const double>(raw.data(), static_cast<std::size_t>(n)),
        inputs.data() + static_cast<std::size_t>(e) * input_width_);
  }
  flat->forward_batch(inputs.data(), kEntries, opacities.data(), scratch);
  for (int e = 0; e < kEntries; ++e) {
    tf.set_opacity_entry(e, opacities[e]);
  }
  return tf;
}

std::uint64_t Iatf::params_hash() const {
  // Keyed by what evaluate() actually depends on besides the step: the
  // live network weights (Mlp::params_hash), the input configuration, and
  // the normalizer ranges. Counts alone (epochs run, key-frame count) are
  // NOT enough once this hash keys a DerivedCache SHARED between client
  // sessions: two differently-trained networks with equal counts must
  // never collide, or one tenant would read another's synthesized TFs
  // (docs/SERVER.md). Conversely, two sessions that replayed the same
  // deterministic script reach identical weights and identical hashes —
  // which is exactly the cross-client dedup the server tier wants.
  std::uint64_t h = network_.params_hash();
  h = hash_combine(h, (static_cast<std::uint64_t>(config_.use_value) << 2) |
                          (static_cast<std::uint64_t>(
                               config_.use_cumulative_histogram)
                           << 1) |
                          static_cast<std::uint64_t>(config_.use_time));
  for (std::size_t f = 0; f < normalizer_.width(); ++f) {
    h = hash_combine(h, hash_double(normalizer_.lo(f)));
    h = hash_combine(h, hash_double(normalizer_.hi(f)));
  }
  return h;
}

double Iatf::opacity(double value, int step) const {
  const CumulativeHistogram& ch = sequence_.cumulative_histogram(step);
  return network_.forward_scalar(
      make_input(value, ch.fraction_at(value), step));
}

void Iatf::save(std::ostream& os) const {
  os << "ifet-iatf 1\n";
  os << static_cast<int>(config_.use_value) << ' '
     << static_cast<int>(config_.use_cumulative_histogram) << ' '
     << static_cast<int>(config_.use_time) << ' ' << config_.hidden_units
     << '\n';
  auto [vlo, vhi] = sequence_.value_range();
  os << std::setprecision(17) << vlo << ' ' << vhi << ' '
     << sequence_.num_steps() << '\n';
  network_.save(os);
}

std::unique_ptr<Iatf> Iatf::load(std::istream& is,
                                 const VolumeSequence& sequence) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (!is || magic != "ifet-iatf" || version != 1) {
    throw CorruptDataError("Iatf::load: not an ifet-iatf v1 stream");
  }
  IatfConfig config;
  int use_value = 0, use_ch = 0, use_time = 0;
  is >> use_value >> use_ch >> use_time >> config.hidden_units;
  config.use_value = use_value != 0;
  config.use_cumulative_histogram = use_ch != 0;
  config.use_time = use_time != 0;
  double vlo = 0.0, vhi = 0.0;
  int num_steps = 0;
  is >> vlo >> vhi >> num_steps;
  if (!is) throw CorruptDataError("Iatf::load: truncated header");
  // Checked before the Iatf below builds its network of this width.
  if (config.hidden_units < 1 || config.hidden_units > Mlp::kMaxLayerWidth) {
    throw CorruptDataError("Iatf::load: hidden width outside [1, " +
                           std::to_string(Mlp::kMaxLayerWidth) + "]");
  }
  auto [slo, shi] = sequence.value_range();
  IFET_REQUIRE(std::fabs(slo - vlo) < 1e-9 && std::fabs(shi - vhi) < 1e-9,
               "Iatf::load: sequence value range differs from the trained "
               "range");
  IFET_REQUIRE(sequence.num_steps() == num_steps,
               "Iatf::load: sequence step count differs from the trained "
               "count");
  auto out = std::make_unique<Iatf>(sequence, config);
  out->network_ = Mlp::load(is);
  if (out->network_.num_inputs() != out->input_width_) {
    throw CorruptDataError(
        "Iatf::load: network width inconsistent with input flags");
  }
  return out;
}

}  // namespace ifet
