// Shared pieces of the benchmark driver: run options, the raw result a
// workload reports to run.py, and the timing VolumeSource decorator that
// counts and times .cvol decodes from outside the io layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/stream_stats.hpp"
#include "trace.hpp"
#include "volume/sequence.hpp"

namespace perfbench {

/// Width of the global pool and the server command pool: the benchmark
/// is sized for a 4-core machine with one load-generating thread.
constexpr std::size_t kPoolWidth = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Seed the prepared input was generated from (--data-seed; the run seed
  /// when absent). Several run seeds share one prepared input.
  std::uint64_t data_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input_prefix;  ///< prepared files are <prefix>.cvol, ...
  std::string trace_out;     ///< Chrome trace path (trace runs only)
};

/// What one workload run hands back to run.py, which derives the reported
/// metrics (medians, tails, self times) from it. Timings are milliseconds
/// unless the name says otherwise.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end op latencies: the IATF frame, the classify step or the
  /// server command. A traced run traces every op; run.py compares it with
  /// an untraced run of the same seed for the tracing overhead.
  std::vector<double> op_ms;
  double ops_per_s = 0.0;
  std::vector<double> setup_s;
  /// Per-layer samples; run.py reports their median.
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer values reported as they are.
  std::map<std::string, double> values;
  /// Per-client digest sequences (server_mix_128) for the cross-run check.
  std::vector<std::vector<std::uint32_t>> digests;
  /// Human-readable report lines printed before the JSON line.
  std::vector<std::string> report;

  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  void sample(const std::string& name, double v) { samples[name].push_back(v); }

  /// Single-line JSON for run.py.
  std::string to_json() const;
};

/// Median of a sample set (0 when empty).
double median(std::vector<double> v);

/// Loop condition of a timed loop that plays whole passes of `steps` ops:
/// true within a pass; at a pass boundary, true while the run would end
/// nearer to `seconds` after one more pass than now. Every run so times
/// whole passes, and at most half a pass more or less than `seconds`.
inline bool another_op(int n, int steps, Clock::time_point begin,
                       double seconds) {
  if (n == 0 || n % steps != 0) return true;
  const double elapsed_ms = ms_between(begin, Clock::now());
  const double pass_ms = elapsed_ms / (n / steps);
  return elapsed_ms + 0.5 * pass_ms < seconds * 1e3;
}

/// Decorator over the .cvol source that times every decode and brick
/// record read from outside the io layer. It is what StreamedSequence and
/// StreamTier read through, so decodes on prefetch threads are counted
/// too. brick_metadata() is forwarded unchanged.
class TimingSource final : public ifet::VolumeSource {
 public:
  explicit TimingSource(std::shared_ptr<const ifet::VolumeSource> inner)
      : inner_(std::move(inner)) {}

  ifet::Dims dims() const override { return inner_->dims(); }
  int num_steps() const override { return inner_->num_steps(); }
  std::pair<double, double> value_range() const override {
    return inner_->value_range();
  }

  ifet::VolumeF generate(int step) const override {
    Span span("io", "decode");
    const Clock::time_point start = Clock::now();
    ifet::VolumeF volume = inner_->generate(step);
    add(decode_calls_, decode_ns_, start);
    return volume;
  }

  std::shared_ptr<const ifet::BrickIndex> brick_metadata(
      int step) const override {
    Span span("io", "brick_record");
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const ifet::BrickIndex> bricks =
        inner_->brick_metadata(step);
    add(brick_calls_, brick_ns_, start);
    return bricks;
  }

  struct Counts {
    std::uint64_t decode_calls = 0;
    std::uint64_t decode_ns = 0;
    std::uint64_t brick_calls = 0;
    std::uint64_t brick_ns = 0;
  };
  Counts counts() const {
    return {decode_calls_.load(), decode_ns_.load(), brick_calls_.load(),
            brick_ns_.load()};
  }

 private:
  static void add(std::atomic<std::uint64_t>& calls,
                  std::atomic<std::uint64_t>& ns, Clock::time_point start) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                 std::memory_order_relaxed);
  }

  std::shared_ptr<const ifet::VolumeSource> inner_;
  mutable std::atomic<std::uint64_t> decode_calls_{0};
  mutable std::atomic<std::uint64_t> decode_ns_{0};
  mutable std::atomic<std::uint64_t> brick_calls_{0};
  mutable std::atomic<std::uint64_t> brick_ns_{0};
};

/// Reports the peak resident set of this process, which runs only the
/// workload; called when the timed loop ends, before the output checks.
void report_peak_rss(Result& out);

/// Reports the io.* values of the decodes made since `before`.
void report_io(const TimingSource::Counts& before,
               const TimingSource::Counts& after, Result& out);

/// Reports the stream.* counters of the timed loop: the difference of two
/// StreamStats snapshots (StreamedSequence::stats or StreamTier::stats).
void report_stream(const ifet::StreamStats& before,
                   const ifet::StreamStats& after, Result& out);

/// Checks that `step` read by a StreamedSequence through the timing
/// decorator equals the same step read through StreamedSequence::open_cvol.
void check_decorator(const std::string& cvol_path,
                     std::shared_ptr<const TimingSource> decorated, int step,
                     Result& out);

/// Workload entry points (set-up, timed loop, output checks).
void run_playback(const Options& options, Result& out);
void run_classify(const Options& options, Result& out);
void run_server_mix(const Options& options, Result& out);

}  // namespace perfbench
