// Multi-tenant server load generator (docs/SERVER.md): N concurrent
// scripted clients over ONE tight-budget shared streaming tier, measured
// against each client running alone on an unlimited-budget tier.
//
// Each client is a closed loop on its session's strand: the completion
// callback of command i submits command i+1, so no client queues behind
// itself, while the N strands contend for the shared cache, the admission
// quotas, and the derived-product memoization the whole time.
//
// Shape claims (exit nonzero on failure):
//   - every scripted command succeeds on every concurrent client;
//   - the concurrent tight-budget results are bitwise identical to the
//     isolated unlimited-budget serial reference (admission shapes
//     residency, never data);
//   - the cross-client dedup hit rate on derived products is > 0 and the
//     shared cache holds fewer unique entries than requests served;
//   - the tight budget actually evicts;
//   - no client's pinned bytes ever exceed its admission quota, and the
//     quota visibly denied pins.
//
// The fleet is 4 clients over 8 steps of 16^3, sized to stay quick under
// TSan. Command latency under a paper-size load is measured by perfbench's
// server_mix_128 workload, which replays canonical_script below.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "server/session_manager.hpp"
#include "stream/fault_injection.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "volume/sequence.hpp"

namespace {

using namespace ifet;

/// A blob drifting +x one voxel per step: enough structure for IATF
/// synthesis, classification, and tracking alike. Deterministic.
std::shared_ptr<CallbackSource> blob_source(Dims dims, int steps) {
  return std::make_shared<CallbackSource>(
      dims, steps, std::pair<double, double>{0.0, 1.0}, [dims](int step) {
        VolumeF v(dims);
        for (int k = 0; k < dims.z; ++k) {
          for (int j = 0; j < dims.y; ++j) {
            for (int i = 0; i < dims.x; ++i) {
              const double dx = i - (dims.x / 4 + step);
              const double dy = j - dims.y / 2;
              const double dz = k - dims.z / 2;
              const double r2 = dx * dx + dy * dy + dz * dz;
              v.at(i, j, k) =
                  static_cast<float>(clamp(1.0 - r2 / 9.0, 0.0, 1.0));
            }
          }
        }
        return v;
      });
}

/// The canonical scripted client (the full extraction workflow): window
/// hint, key frame, TF training, per-step TF + histogram queries,
/// painting, classifier training, classification, adaptive tracking,
/// rendering. Epoch-counted training only — deterministic end to end.
/// Every client runs the SAME script, which makes the isolated reference
/// shared across clients and maximizes the derived-product overlap the
/// dedup metric measures.
std::vector<Command> canonical_script(Dims dims, int steps) {
  std::vector<Command> script;
  Command c;

  c.kind = CommandKind::kHintWindow;
  c.window_lo = 0;
  c.window_hi = 2;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kSetKeyFrame;
  c.step = 0;
  c.band_lo = 0.55;
  c.band_hi = 1.0;
  c.band_peak = 0.95;
  c.band_skirt = 0.05;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrainTf;
  c.epochs = 20;
  script.push_back(c);

  for (int s = 0; s < steps; ++s) {
    c = Command{};
    c.kind = CommandKind::kQueryTf;
    c.step = s;
    script.push_back(c);
    c.kind = CommandKind::kHistogram;
    script.push_back(c);
  }

  c = Command{};
  c.kind = CommandKind::kPaint;
  c.step = 1;
  c.stroke.axis = 2;
  c.stroke.slice = dims.z / 2;
  c.stroke.u = dims.x / 4 + 1;
  c.stroke.v = dims.y / 2;
  c.stroke.radius = 1.5;
  c.stroke.certainty = 1.0;
  script.push_back(c);

  c.stroke.u = dims.x - 1;
  c.stroke.v = dims.y - 1;
  c.stroke.radius = 1.0;
  c.stroke.certainty = 0.0;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrainClassifier;
  c.epochs = 10;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kClassify;
  c.step = 1;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrack;
  c.step = 1;
  c.seed = Index3{dims.x / 4 + 1, dims.y / 2, dims.z / 2};
  c.opacity_cut = 0.25;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kRender;
  c.step = 1;
  c.image_size = 24;
  script.push_back(c);

  return script;
}

/// One concurrent client's recorded run.
struct ClientRun {
  int id = -1;
  std::vector<ServerResult> results;
};

/// Shared state of the closed-loop load generator.
struct LoadGen {
  SessionManager& manager;
  const std::vector<Command>& script;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t finished = 0;
};

/// Submit command `index` of `run`'s script; the completion callback
/// records the result, then chains the next command. The submit happens
/// inside the strand's drain loop, so the queue never holds more than the
/// in-flight command.
void submit_from(LoadGen& gen, ClientRun& run, std::size_t index) {
  if (index == gen.script.size()) {
    std::lock_guard<std::mutex> lock(gen.done_mutex);
    ++gen.finished;
    gen.done_cv.notify_all();
    return;
  }
  gen.manager.submit(run.id, gen.script[index],
                     [&gen, &run, index](const ServerResult& r) {
                       run.results[index] = r;
                       submit_from(gen, run, index + 1);
                     });
}

/// One client alone running `script` serially with no faults and an
/// unlimited budget: the reference every loaded run must match bitwise.
struct SerialReference {
  bool ok = true;       ///< Every reference command succeeded.
  bool runs_ok = true;  ///< Every command of every run succeeded.
  bool bitwise = true;  ///< Every run matched the reference exactly.
};

/// Runs the serial reference and compares `runs` (anything with `id` and
/// `results`) with it command by command, printing each failed run
/// command and each mismatch.
template <typename Run>
SerialReference compare_with_serial_reference(
    Dims dims, int steps, const std::vector<Command>& script,
    const std::vector<std::unique_ptr<Run>>& runs) {
  SerialReference out;
  SessionManagerConfig iso;  // budget 0 = fully resident, no overload
  SessionManager manager(blob_source(dims, steps), iso);
  const int id = manager.create_session();
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ServerResult reference = manager.execute(id, script[i]);
    if (!reference.ok) out.ok = false;
    for (const auto& run : runs) {
      const ServerResult& result = run->results[i];
      if (!result.ok) {
        std::cout << "  client " << run->id << " command " << i
                  << " failed: " << result.error << "\n";
        out.runs_ok = false;
      }
      if (result.ok != reference.ok || result.digest != reference.digest ||
          result.value != reference.value) {
        std::cout << "  mismatch: client " << run->id << " command " << i
                  << "\n";
        out.bitwise = false;
      }
    }
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// --overload: the deterministic overload harness (docs/ROBUSTNESS.md,
// "Overload and deadlines").
//
// Same canonical script, but the tier now sits on a uniformly SLOW device
// (FaultInjectingSource slow@all), the strand queues are bounded with
// kShedOldest, the pressure monitor is live, and every session is
// simultaneously flooded by an open-loop spam thread of read-only
// commands — a quarter of them carrying a deliberately impossible
// deadline. Script clients retry on kOverloaded (shed commands never
// executed, so the retry preserves exactly-once); spam NEVER resubmits,
// which bounds shed-callback recursion and keeps the flood finite.
//
// Shape claims (exit nonzero on failure):
//   - exactly-once: completions == submissions for scripts and spam alike
//     (no silent drop, no double completion);
//   - every script command eventually succeeds AND is bitwise identical to
//     the unloaded serial reference — overload sheds work, never data;
//   - spam outcomes are only kOk / kOverloaded / kDeadlineExceeded — an
//     overloaded server refuses work with types, it does not error;
//   - per-session peak queue depth never exceeds the configured bound;
//   - the storm visibly shed (commands_shed > 0), timed out work
//     (deadline_exceeded > 0), handed out a retry-after hint, engaged the
//     pressure monitor, and the watchdog scanned;
//   - latency p99 stays bounded (no command waited unbounded behind the
//     flood).
struct OverloadClient {
  int id = -1;
  std::vector<ServerResult> results;  ///< Script results, post-retry.
  std::vector<double> latency_ms;     ///< First submit -> final completion.
  std::vector<std::chrono::steady_clock::time_point> start;
  std::vector<std::uint8_t> spam_status;
  std::vector<double> spam_latency_ms;
};

struct OverloadGen {
  SessionManager& manager;
  const std::vector<Command>& script;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t finished = 0;
  std::atomic<std::uint64_t> script_submits{0};
  std::atomic<std::uint64_t> script_callbacks{0};
  std::atomic<std::uint64_t> script_retries{0};
  std::atomic<std::uint64_t> spam_submits{0};
  std::atomic<std::uint64_t> spam_callbacks{0};
  std::atomic<bool> retry_hint_seen{false};
};

/// Submit script command `index`; on kOverloaded (shed by newer spam —
/// the command never ran) resubmit the SAME index, otherwise record and
/// chain. Retries are bounded: each shed consumes one finite spam
/// arrival, so the chain always terminates once the flood drains.
void submit_overload_script(OverloadGen& gen, OverloadClient& run,
                            std::size_t index) {
  if (index == gen.script.size()) {
    std::lock_guard<std::mutex> lock(gen.done_mutex);
    ++gen.finished;
    gen.done_cv.notify_all();
    return;
  }
  if (run.start[index] == std::chrono::steady_clock::time_point{}) {
    run.start[index] = std::chrono::steady_clock::now();
  }
  gen.script_submits.fetch_add(1, std::memory_order_relaxed);
  gen.manager.submit(
      run.id, gen.script[index],
      [&gen, &run, index](const ServerResult& r) {
        gen.script_callbacks.fetch_add(1, std::memory_order_relaxed);
        if (r.status == ServerStatus::kOverloaded) {
          if (r.retry_after_ms > 0.0) {
            gen.retry_hint_seen.store(true, std::memory_order_relaxed);
          }
          gen.script_retries.fetch_add(1, std::memory_order_relaxed);
          submit_overload_script(gen, run, index);
          return;
        }
        run.results[index] = r;
        run.latency_ms[index] =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - run.start[index])
                .count();
        submit_overload_script(gen, run, index + 1);
      });
}

/// Open-loop flood of one session: read-only sheddable kinds only
/// (kQueryTf / kHistogram / kRender), every 4th carrying an impossible
/// deadline so the typed kDeadlineExceeded path fires under load. Never
/// resubmits — a shed spam command just records its typed refusal.
void spam_session(OverloadGen& gen, OverloadClient& run, int steps,
                  std::size_t total) {
  for (std::size_t i = 0; i < total; ++i) {
    Command cmd;
    if (i % 8 == 7) {
      cmd.kind = CommandKind::kRender;
      cmd.image_size = 16;
    } else if (i % 2 == 0) {
      cmd.kind = CommandKind::kHistogram;
    } else {
      cmd.kind = CommandKind::kQueryTf;
    }
    cmd.step = static_cast<int>(i) % steps;
    const bool tranche = (i % 4) == 3;
    if (tranche) cmd.deadline_ms = 0.01;
    const auto t0 = std::chrono::steady_clock::now();
    gen.spam_submits.fetch_add(1, std::memory_order_relaxed);
    gen.manager.submit(
        run.id, cmd, [&gen, &run, i, t0](const ServerResult& r) {
          gen.spam_callbacks.fetch_add(1, std::memory_order_relaxed);
          run.spam_status[i] = static_cast<std::uint8_t>(r.status);
          run.spam_latency_ms[i] =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          if (r.status == ServerStatus::kOverloaded &&
              r.retry_after_ms > 0.0) {
            gen.retry_hint_seen.store(true, std::memory_order_relaxed);
          }
        });
    if (tranche) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int run_overload(int clients, Dims dims, int steps) {
  const std::size_t step_bytes =
      static_cast<std::size_t>(dims.count()) * sizeof(float);
  const std::vector<Command> script = canonical_script(dims, steps);
  const std::size_t kQueueBound = 4;
  const int kSlowMs = 3;

  std::cout << "=== perf: overload harness, " << clients << " clients, "
            << steps << " steps of " << dims.x << "^3, " << script.size()
            << " script commands + flood ===\n";

  bench::ShapeCheck check;

  // Slow device + tight budget + bounded queues + live pressure monitor.
  SessionManagerConfig config;
  config.tier.budget_bytes = 4 * step_bytes;
  config.tier.pin_quota_bytes = 2 * step_bytes;
  config.tier.async_prefetch = true;
  config.tier.pressure.enabled = true;
  config.max_queue_depth = kQueueBound;
  config.backpressure = BackpressurePolicy::kShedOldest;
  config.watchdog_interval_ms = 5.0;

  std::vector<std::unique_ptr<OverloadClient>> runs;
  std::vector<StreamStats> client_stats;
  std::vector<SessionQueueStats> queue_stats;
  StreamStats storm_stats;
  PressureReport pressure;
  WatchdogReport watchdog;
  double storm_seconds = 0.0;
  const std::size_t spam_total = 2 * script.size();
  std::uint64_t script_submits = 0, script_callbacks = 0, script_retries = 0;
  std::uint64_t spam_submits = 0, spam_callbacks = 0;
  bool retry_hint_seen = false;
  {
    SessionManager manager(
        std::make_shared<FaultInjectingSource>(
            blob_source(dims, steps),
            std::vector<FaultSpec>{
                parse_fault_spec("slow@all:" + std::to_string(kSlowMs))}),
        config);
    OverloadGen gen{manager, script, {}, {}, 0};
    for (int c = 0; c < clients; ++c) {
      auto run = std::make_unique<OverloadClient>();
      run->id = manager.create_session();
      run->results.resize(script.size());
      run->latency_ms.resize(script.size(), 0.0);
      run->start.resize(script.size());
      run->spam_status.resize(spam_total, 0);
      run->spam_latency_ms.resize(spam_total, 0.0);
      runs.push_back(std::move(run));
    }

    Stopwatch storm_watch;
    for (auto& run : runs) submit_overload_script(gen, *run, 0);
    std::vector<std::thread> floods;
    for (auto& run : runs) {
      floods.emplace_back([&gen, &run, steps, spam_total] {
        spam_session(gen, *run, steps, spam_total);
      });
    }
    for (auto& t : floods) t.join();
    {
      std::unique_lock<std::mutex> lock(gen.done_mutex);
      gen.done_cv.wait(lock, [&gen, &runs] {
        return gen.finished == runs.size();
      });
    }
    manager.drain_all();
    storm_seconds = storm_watch.seconds();

    script_submits = gen.script_submits.load();
    script_callbacks = gen.script_callbacks.load();
    script_retries = gen.script_retries.load();
    spam_submits = gen.spam_submits.load();
    spam_callbacks = gen.spam_callbacks.load();
    retry_hint_seen = gen.retry_hint_seen.load();
    storm_stats = manager.tier().stats();
    pressure = manager.tier().pressure().report();
    watchdog = manager.watchdog_report();
    for (const auto& run : runs) {
      client_stats.push_back(manager.session_stats(run->id));
      queue_stats.push_back(manager.session_queue(run->id));
    }
  }

  // --- Exactly-once: every submit got exactly one completion.
  check.expect(script_callbacks == script_submits &&
                   spam_callbacks == spam_submits,
               "exactly one completion per submitted command");

  // --- Unloaded serial reference (no faults, unlimited budget): the
  // surviving script results must match it bitwise — shedding and
  // pressure shape latency and residency, never data.
  const SerialReference reference =
      compare_with_serial_reference(dims, steps, script, runs);
  check.expect(reference.ok && reference.runs_ok,
               "every script command succeeds despite the flood");
  check.expect(reference.bitwise,
               "script results under overload are bitwise identical to the "
               "unloaded serial reference");

  // --- Typed refusals only: a flooded server sheds and times out with
  // types; it never converts overload into kError.
  bool spam_typed = true;
  std::uint64_t spam_ok = 0, spam_overloaded = 0, spam_deadline = 0;
  std::vector<double> spam_latencies;
  for (const auto& run : runs) {
    for (std::size_t i = 0; i < spam_total; ++i) {
      const auto status = static_cast<ServerStatus>(run->spam_status[i]);
      switch (status) {
        case ServerStatus::kOk:
          ++spam_ok;
          break;
        case ServerStatus::kOverloaded:
          ++spam_overloaded;
          break;
        case ServerStatus::kDeadlineExceeded:
          ++spam_deadline;
          break;
        case ServerStatus::kError:
          spam_typed = false;
          break;
      }
      spam_latencies.push_back(run->spam_latency_ms[i]);
    }
  }
  check.expect(spam_typed,
               "flood outcomes are typed (kOk / kOverloaded / "
               "kDeadlineExceeded), never kError");

  // --- Bounded queues, visible shedding, live deadlines and monitors.
  std::size_t peak_depth_max = 0;
  bool depth_bounded = true;
  for (const auto& q : queue_stats) {
    peak_depth_max = std::max(peak_depth_max, q.peak_depth);
    if (q.peak_depth > kQueueBound) depth_bounded = false;
  }
  check.expect(depth_bounded,
               "peak strand queue depth never exceeds the configured bound");
  check.expect(storm_stats.commands_shed > 0,
               "the flood visibly shed queued commands");
  check.expect(storm_stats.deadline_exceeded > 0,
               "the impossible-deadline tranche visibly timed out");
  check.expect(retry_hint_seen,
               "at least one kOverloaded refusal carried a retry-after hint");
  check.expect(storm_stats.pressure_transitions > 0 && pressure.enters > 0,
               "the pressure monitor engaged under the pinned-window demand");
  check.expect(watchdog.scans > 0, "the stuck-strand watchdog scanned");

  std::vector<double> script_latencies;
  for (const auto& run : runs) {
    script_latencies.insert(script_latencies.end(), run->latency_ms.begin(),
                            run->latency_ms.end());
  }
  const double script_p50 = percentile(script_latencies, 0.50);
  const double script_p99 = percentile(script_latencies, 0.99);
  const double spam_p50 = percentile(spam_latencies, 0.50);
  const double spam_p99 = percentile(spam_latencies, 0.99);
  check.expect(script_p99 < 10000.0 && spam_p99 < 10000.0,
               "p99 latency stays bounded under the flood (< 10 s)");

  Table table({"metric", "value"});
  table.add_row({"clients", std::to_string(clients)});
  table.add_row({"storm_seconds", Table::num(storm_seconds, 3)});
  table.add_row({"script_submits", std::to_string(script_submits)});
  table.add_row({"script_retries", std::to_string(script_retries)});
  table.add_row({"spam_submits", std::to_string(spam_submits)});
  table.add_row({"spam_ok", std::to_string(spam_ok)});
  table.add_row({"spam_overloaded", std::to_string(spam_overloaded)});
  table.add_row({"spam_deadline", std::to_string(spam_deadline)});
  table.add_row({"commands_shed", std::to_string(storm_stats.commands_shed)});
  table.add_row(
      {"commands_rejected", std::to_string(storm_stats.commands_rejected)});
  table.add_row(
      {"deadline_exceeded", std::to_string(storm_stats.deadline_exceeded)});
  table.add_row({"pressure_enters", std::to_string(pressure.enters)});
  table.add_row({"pressure_exits", std::to_string(pressure.exits)});
  table.add_row({"derived_shed", std::to_string(pressure.derived_shed)});
  table.add_row({"pins_clamped", std::to_string(pressure.pins_clamped)});
  table.add_row({"watchdog_scans", std::to_string(watchdog.scans)});
  table.add_row(
      {"watchdog_stuck", std::to_string(watchdog.stuck_observations)});
  table.add_row({"peak_queue_depth", std::to_string(peak_depth_max)});
  table.add_row({"script_p50_ms", Table::num(script_p50, 3)});
  table.add_row({"script_p99_ms", Table::num(script_p99, 3)});
  table.add_row({"spam_p50_ms", Table::num(spam_p50, 3)});
  table.add_row({"spam_p99_ms", Table::num(spam_p99, 3)});
  table.print(std::cout);

  // Ascending session id — the same observable-order contract as the
  // storm bench's fairness table.
  std::vector<std::size_t> by_id(runs.size());
  std::iota(by_id.begin(), by_id.end(), std::size_t{0});
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return runs[a]->id < runs[b]->id;
  });
  Table fair({"client", "shed", "rejected", "deadline_exceeded",
              "peak_depth"});
  for (const std::size_t c : by_id) {
    fair.add_row({std::to_string(runs[c]->id),
                  std::to_string(client_stats[c].commands_shed),
                  std::to_string(client_stats[c].commands_rejected),
                  std::to_string(client_stats[c].deadline_exceeded),
                  std::to_string(queue_stats[c].peak_depth)});
  }
  fair.print(std::cout);

  return check.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  // The one fleet: 4 clients over 8 steps of 16^3, sized to stay quick
  // under TSan. --smoke names that fleet and is still accepted.
  const int clients = 4;
  const Dims dims{16, 16, 16};
  const int steps = 8;
  bool overload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--overload") {
      overload = true;
    } else if (arg != "--smoke") {
      std::cerr << "usage: bench_perf_server [--overload]\n";
      return 2;
    }
  }
  if (overload) return run_overload(clients, dims, steps);

  const std::size_t step_bytes =
      static_cast<std::size_t>(dims.count()) * sizeof(float);
  const std::vector<Command> script = canonical_script(dims, steps);

  std::cout << "=== perf: multi-tenant server, " << clients
            << " concurrent clients, " << steps << " steps of " << dims.x
            << "^3, " << script.size() << " commands each ===\n";

  bench::ShapeCheck check;

  // --- Concurrent storm: one shared tier, tight budget, 1-step pin quota.
  SessionManagerConfig shared_config;
  shared_config.tier.budget_bytes = 3 * step_bytes;
  shared_config.tier.pin_quota_bytes = 1 * step_bytes;
  shared_config.tier.async_prefetch = true;

  std::vector<std::unique_ptr<ClientRun>> runs;
  std::vector<AdmissionStats> fairness;
  std::vector<std::size_t> quota_violations;
  StreamStats storm_stats;
  std::size_t unique_entries = 0;
  std::size_t quota_steps = 0;
  {
    SessionManager manager(blob_source(dims, steps), shared_config);
    quota_steps = manager.tier().admission().quota_steps();
    LoadGen gen{manager, script, {}, {}, 0};
    for (int c = 0; c < clients; ++c) {
      auto run = std::make_unique<ClientRun>();
      run->id = manager.create_session();
      run->results.resize(script.size());
      runs.push_back(std::move(run));
    }

    for (auto& run : runs) submit_from(gen, *run, 0);
    {
      std::unique_lock<std::mutex> lock(gen.done_mutex);
      gen.done_cv.wait(lock, [&gen, &runs] {
        return gen.finished == runs.size();
      });
    }
    manager.drain_all();

    storm_stats = manager.tier().stats();
    unique_entries = manager.tier().derived().size();
    for (const auto& run : runs) {
      const AdmissionStats a = manager.session_admission(run->id);
      fairness.push_back(a);
      quota_violations.push_back(
          a.pinned_bytes > manager.tier().admission().pin_quota_bytes() ? 1
                                                                        : 0);
    }
  }

  // --- Isolated reference: the same script, one client alone, unlimited
  // budget, serial execute(). Every concurrent client must match it
  // bitwise (they all ran the identical script).
  const SerialReference reference =
      compare_with_serial_reference(dims, steps, script, runs);
  check.expect(reference.runs_ok,
               "every command succeeds on every concurrent client");
  const bool bitwise = reference.ok && reference.bitwise;
  check.expect(bitwise,
               "concurrent tight-budget results are bitwise identical to "
               "the isolated unlimited-budget reference");

  // --- Metrics.
  const std::uint64_t derived_requests =
      storm_stats.derived_hits + storm_stats.derived_misses;
  // Dedup from TF lookups only: a client's repeated histogram reads hit
  // its own entries and would count as sharing (stream_stats.hpp).
  const std::uint64_t tf_requests =
      storm_stats.derived_tf_hits + storm_stats.derived_tf_misses;
  const double dedup_rate =
      tf_requests == 0 ? 0.0
                       : static_cast<double>(storm_stats.derived_tf_hits) /
                             static_cast<double>(tf_requests);
  const double entry_collapse =
      derived_requests == 0
          ? 0.0
          : 1.0 - static_cast<double>(unique_entries) /
                      static_cast<double>(derived_requests);

  // Lines marked timing-dependent change between runs of one build (storm
  // counters that depend on how the clients interleave); every other line
  // of this report is reproducible and diffable.
  const std::string timing = "timing-dependent";
  Table table({"metric", "value"});
  table.add_row({"clients", std::to_string(clients)});
  table.add_row(
      {"commands_total", std::to_string(runs.size() * script.size())});
  table.add_row({"derived_entries", std::to_string(unique_entries)});
  table.add_row({"quota_steps", std::to_string(quota_steps)});
  table.print(std::cout);
  const std::pair<const char*, std::string> varying[] = {
      {"dedup_hit_rate", Table::num(dedup_rate, 3)},
      {"entry_collapse", Table::num(entry_collapse, 3)},
      {"evictions", std::to_string(storm_stats.evictions)}};
  for (const auto& [name, value] : varying) {
    std::cout << timing << " " << name << " " << value << "\n";
  }
  std::cout << timing << " " << storm_stats.summary() << "\n\n";

  // Per-client reporting iterates in ascending session id, never creation
  // or completion order: the fairness table is part of the determinism
  // contract's observable surface (two runs of the same storm must emit
  // byte-identical client listings).
  std::vector<std::size_t> by_id(runs.size());
  std::iota(by_id.begin(), by_id.end(), std::size_t{0});
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return runs[a]->id < runs[b]->id;
  });

  Table fair({"client", "accesses", "denied_pins", "pinned_steps"});
  std::cout << timing << " reloads per client:";
  for (const std::size_t c : by_id) {
    fair.add_row({std::to_string(runs[c]->id),
                  std::to_string(fairness[c].accesses),
                  std::to_string(fairness[c].denied_pins),
                  std::to_string(fairness[c].pinned_steps)});
    std::cout << " " << fairness[c].reloads;
  }
  std::cout << "\n";
  fair.print(std::cout);

  check.expect(storm_stats.derived_tf_hits > 0 && dedup_rate > 0.0,
               "cross-client dedup hit rate > 0 on the shared tier");
  check.expect(unique_entries < derived_requests,
               "shared cache holds fewer unique entries than requests");
  check.expect(storm_stats.evictions > 0,
               "the 3-step budget evicts under the concurrent load");
  std::uint64_t denied_total = 0;
  bool quota_held = true;
  for (std::size_t c = 0; c < fairness.size(); ++c) {
    denied_total += fairness[c].denied_pins;
    if (quota_violations[c] != 0) quota_held = false;
  }
  check.expect(quota_held,
               "no client's pinned bytes exceed its admission quota");
  check.expect(denied_total > 0,
               "the pin quota visibly denied window pins");

  return check.exit_code();
}
