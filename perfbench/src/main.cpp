// ifet_perfbench: the compiled half of the repository benchmark.
//
//   ifet_perfbench prepare --workload W --seed N --prefix P
//   ifet_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --prefix P [--data-seed D] [--trace-out FILE]
//
// `prepare` writes a workload's procedural inputs; `run` sets the workload
// up, runs its timed loop, checks its outputs and prints a report followed
// by one JSON line of raw samples. perfbench/run.py drives both and turns
// the samples into the reported metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "bench.hpp"
#include "inputs.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/streamed_sequence.hpp"

namespace perfbench {

namespace {

void json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void json_number(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void json_array(std::ostringstream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    json_number(os, v[i]);
  }
  os << ']';
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"op_ms\":";
  json_array(os, op_ms);
  os << ",\"ops_per_s\":";
  json_number(os, ops_per_s);
  os << ",\"setup_s\":";
  json_array(os, setup_s);
  os << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, v] : samples) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_array(os, v);
  }
  os << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : values) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    json_number(os, v);
  }
  os << "},\"digests\":[";
  for (std::size_t c = 0; c < digests.size(); ++c) {
    if (c != 0) os << ',';
    os << '[';
    for (std::size_t i = 0; i < digests[c].size(); ++i) {
      if (i != 0) os << ',';
      os << digests[c][i];
    }
    os << ']';
  }
  os << "],\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"name\":";
    json_string(os, checks[i].name);
    os << ",\"ok\":" << (checks[i].ok ? "true" : "false") << ",\"detail\":";
    json_string(os, checks[i].detail);
    os << '}';
  }
  os << "]}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void report_peak_rss(Result& out) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void report_io(const TimingSource::Counts& before,
               const TimingSource::Counts& after, Result& out) {
  const double calls =
      static_cast<double>(after.decode_calls - before.decode_calls);
  const double bricks =
      static_cast<double>(after.brick_calls - before.brick_calls);
  out.values["io.decode_calls"] = calls;
  out.values["io.decode_ms"] =
      calls > 0 ? static_cast<double>(after.decode_ns - before.decode_ns) /
                      1e6 / calls
                : 0.0;
  out.values["io.brick_record_ms"] =
      bricks > 0
          ? static_cast<double>(after.brick_ns - before.brick_ns) / 1e6 / bricks
          : 0.0;
}

void report_stream(const ifet::StreamStats& before,
                   const ifet::StreamStats& after, Result& out) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double prefetched = delta(after.prefetch_hits, before.prefetch_hits);
  const double demand = delta(after.demand_loads, before.demand_loads);
  const double derived_hits = delta(after.derived_hits, before.derived_hits);
  const double derived_all =
      derived_hits + delta(after.derived_misses, before.derived_misses);
  out.values["stream.prefetch_hit_ratio"] =
      prefetched + demand > 0 ? prefetched / (prefetched + demand) : 0.0;
  out.values["stream.demand_loads"] = demand;
  out.values["stream.evictions"] = delta(after.evictions, before.evictions);
  out.values["stream.derived_hit_ratio"] =
      derived_all > 0 ? derived_hits / derived_all : 0.0;
}

void check_decorator(const std::string& cvol_path,
                     std::shared_ptr<const TimingSource> decorated, int step,
                     Result& out) {
  const ifet::StreamedSequence through(std::move(decorated));
  auto direct = ifet::StreamedSequence::open_cvol(cvol_path);
  const ifet::VolumeF& a = through.step(step);
  const ifet::VolumeF& b = direct->step(step);
  const bool same = a.size() == b.size() &&
                    std::memcmp(a.data().data(), b.data().data(),
                                a.size() * sizeof(float)) == 0;
  out.check("decorator_bitwise", same,
            "step " + std::to_string(step) +
                " through the timing source vs open_cvol");
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ifet_perfbench prepare --workload W --seed N "
               "--prefix P\n"
               "       ifet_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --prefix P [--data-seed D] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options options;
  bool data_seed_given = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--data-seed") {
      options.data_seed = std::strtoull(value.c_str(), nullptr, 10);
      data_seed_given = true;
    } else if (key == "--prefix") {
      options.input_prefix = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  if (!data_seed_given) options.data_seed = options.seed;
  if (options.workload.empty() || options.input_prefix.empty() ||
      !(options.seconds > 0.0)) {
    return usage();
  }

  try {
    ifet::ThreadPool::ScopedGlobalWidth width(kPoolWidth);
    if (mode == "prepare") {
      prepare_inputs(options.workload, options.seed, options.input_prefix);
      return 0;
    }
    if (mode != "run") return usage();

    Result result;
    if (options.workload == "playback_256") {
      run_playback(options, result);
    } else if (options.workload == "classify_256") {
      run_classify(options, result);
    } else if (options.workload == "server_mix_128") {
      run_server_mix(options, result);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
      return 2;
    }
    set_tracing(false);
    if (options.trace) {
      const bool written = !options.trace_out.empty() &&
                           write_chrome_trace(options.trace_out);
      result.check("trace_written", written,
                   std::to_string(span_count()) + " spans to " +
                       options.trace_out);
    }

    bool ok = true;
    for (const std::string& line : result.report) {
      std::printf("%s\n", line.c_str());
    }
    for (const Result::Check& c : result.checks) {
      std::printf("  [%s] %s: %s\n", c.ok ? "check OK  " : "check FAIL",
                  c.name.c_str(), c.detail.c_str());
      ok = ok && c.ok;
    }
    std::printf("%s\n", result.to_json().c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ifet_perfbench: %s\n", e.what());
    return 2;
  }
}
