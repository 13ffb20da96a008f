// server_mix_128: four closed-loop clients on one SessionManager over an
// argon 128^3 .cvol. One thread drives all four through submit(..., done):
// each client sends its next command only when the previous one has
// completed. Each client replays the extraction workflow of
// bench/bench_perf_server.cpp (canonical_script) over all recorded steps,
// so the mix is mostly reads with writes interleaved. The StreamTier
// budget is half the clients' window, so the run exercises strand
// queueing, eviction with demand decode, and derived-product dedup against
// invalidation.
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "io/compressed.hpp"
#include "server/session_manager.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ifet;

namespace {

constexpr int kClients = 4;
constexpr int kSetupRepeats = 9;
/// Shared budget: half of the recorded steps, which every client's window
/// covers, as canonical_script's TF and histogram sweep does.
constexpr int kBudgetSteps = ServerMix::kSteps / 2;
constexpr int kRenderSize = 128;
/// A run times at least this many commands, so the p99 has at least ten
/// samples beyond it.
constexpr std::uint64_t kMinCommands = 1000;
/// Commands in one client cycle (see Client): a key frame, TF training, a
/// TF query and a histogram per recorded step, two strokes, a
/// classification and a render.
constexpr std::uint64_t kCycle = 6 + 2 * ServerMix::kSteps;
/// Untimed warm-up: each client's first cycle.
constexpr std::uint64_t kWarmupCommands = kClients * kCycle;

/// Epoch counts of canonical_script: TF training (set-up and every
/// cycle) and classifier training (set-up only).
constexpr int kTrainTfEpochs = 20;
constexpr int kTrainClassifierEpochs = 10;

struct KindInfo {
  CommandKind kind;
  const char* name;
  bool read;  ///< leaves the session's state as it was
};
constexpr KindInfo kKinds[] = {
    {CommandKind::kQueryTf, "query_tf", true},
    {CommandKind::kHistogram, "histogram", true},
    {CommandKind::kRender, "render", true},
    {CommandKind::kClassify, "classify", true},
    {CommandKind::kPaint, "paint", false},
    {CommandKind::kSetKeyFrame, "set_key_frame", false},
    {CommandKind::kTrainTf, "train_tf", false},
};

const KindInfo& kind_info(CommandKind kind) {
  for (const KindInfo& k : kKinds) {
    if (k.kind == kind) return k;
  }
  throw std::logic_error("command kind outside the mix");
}

/// A band key frame positioned as fractions of the value range.
Command key_frame(int step, double center) {
  Command c;
  c.kind = CommandKind::kSetKeyFrame;
  c.step = step;
  c.band_lo = center - 0.08;
  c.band_hi = center + 0.08;
  c.band_peak = 0.9;
  c.band_skirt = 0.03;
  return c;
}

Command stroke(int step, double u, double v, double certainty) {
  Command c;
  c.kind = CommandKind::kPaint;
  c.step = step;
  c.stroke.axis = 2;
  c.stroke.slice = ServerMix::kEdge / 2;
  c.stroke.u = u;
  c.stroke.v = v;
  c.stroke.radius = 2.0;
  c.stroke.certainty = certainty;
  return c;
}

/// One client's command stream: canonical_script of
/// bench/bench_perf_server.cpp replayed in a loop, in the script's order,
/// without the window hint and classifier training (done once, in set-up)
/// and without tracking, which is outside the mix. One cycle is a key
/// frame, TF training, a TF query and a histogram per recorded step, a
/// positive and a negative paint stroke, a classification of the painted
/// step and a 128^2 render: 22 commands, 18 of them reads. As in
/// canonical_script, every client runs the same key frames and training,
/// so clients at the same training state share synthesized TFs. The seed
/// picks the key-frame step and band (one stream for all clients) and
/// each client's stroke positions, painted and rendered steps and render
/// azimuth.
class Client {
 public:
  Client(std::uint64_t shared_seed, std::uint64_t own_seed)
      : shared_(shared_seed), own_(own_seed) {}

  Command next() {
    if (next_ == cycle_.size()) deal();
    return cycle_[next_++];
  }

 private:
  static int step(Rng& rng) {
    return static_cast<int>(rng.uniform_index(ServerMix::kSteps));
  }
  /// A stroke at a random in-plane position of `painted`.
  Command stroke_at(int painted, double certainty) {
    const double u = own_.uniform(8.0, ServerMix::kEdge - 8.0);
    const double v = own_.uniform(8.0, ServerMix::kEdge - 8.0);
    return stroke(painted, u, v, certainty);
  }

  void deal() {
    cycle_.clear();
    next_ = 0;
    const int key_step = step(shared_);
    cycle_.push_back(key_frame(key_step, shared_.uniform(0.45, 0.7)));
    Command c;
    c.kind = CommandKind::kTrainTf;
    c.epochs = kTrainTfEpochs;
    cycle_.push_back(c);
    for (int t = 0; t < ServerMix::kSteps; ++t) {
      c = Command{};
      c.kind = CommandKind::kQueryTf;
      c.step = t;
      cycle_.push_back(c);
      c.kind = CommandKind::kHistogram;
      cycle_.push_back(c);
    }
    const int painted = step(own_);
    cycle_.push_back(stroke_at(painted, 1.0));
    cycle_.push_back(stroke_at(painted, 0.0));
    c = Command{};
    c.kind = CommandKind::kClassify;
    c.step = painted;
    cycle_.push_back(c);
    c = Command{};
    c.kind = CommandKind::kRender;
    c.step = step(own_);
    c.image_size = kRenderSize;
    c.azimuth = 0.3 * static_cast<double>(own_.uniform_index(4));
    cycle_.push_back(c);
    if (cycle_.size() != kCycle) throw std::logic_error("cycle length");
  }

  Rng shared_;
  Rng own_;
  std::vector<Command> cycle_;
  std::size_t next_ = 0;
};

std::uint32_t result_digest(const ServerResult& r) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.value, sizeof bits);
  return r.digest ^ static_cast<std::uint32_t>(bits ^ (bits >> 32));
}

struct Server {
  std::shared_ptr<TimingSource> source;
  std::unique_ptr<SessionManager> manager;
  int sessions[kClients] = {};
};

/// Set-up: open the file, start the manager and four sessions, give each
/// client the window of all steps, the same key frames and trained IATF,
/// and a painted classifier, and warm the shared histograms and TFs.
Server set_up(const std::string& path) {
  Server s;
  s.source = std::make_shared<TimingSource>(
      std::make_shared<CompressedFileSource>(path));
  const std::size_t step_bytes = s.source->dims().count() * sizeof(float);
  SessionManagerConfig config;
  config.tier.budget_bytes = kBudgetSteps * step_bytes;
  config.tier.pin_quota_bytes = kBudgetSteps * step_bytes / kClients;
  config.command_threads = kPoolWidth;
  s.manager = std::make_unique<SessionManager>(s.source, config);
  for (int c = 0; c < kClients; ++c) {
    const int id = s.manager->create_session();
    s.sessions[c] = id;
    const int lo = 0;
    const int hi = ServerMix::kSteps - 1;
    Command hint;
    hint.kind = CommandKind::kHintWindow;
    hint.window_lo = lo;
    hint.window_hi = hi;
    std::vector<Command> script = {hint, key_frame(lo, 0.55),
                                   key_frame(hi, 0.6)};
    Command train;
    train.kind = CommandKind::kTrainTf;
    train.epochs = kTrainTfEpochs;
    script.push_back(train);
    script.push_back(stroke(lo, ServerMix::kEdge / 4.0, ServerMix::kEdge / 2.0,
                            1.0));
    script.push_back(stroke(lo, ServerMix::kEdge - 6.0,
                            ServerMix::kEdge - 6.0, 0.0));
    Command train_clf;
    train_clf.kind = CommandKind::kTrainClassifier;
    train_clf.epochs = kTrainClassifierEpochs;
    script.push_back(train_clf);
    for (int t = lo; t <= hi; ++t) {
      Command q;
      q.kind = CommandKind::kHistogram;
      q.step = t;
      script.push_back(q);
      q.kind = CommandKind::kQueryTf;
      script.push_back(q);
    }
    for (const Command& cmd : script) {
      const ServerResult r = s.manager->execute(id, cmd);
      if (r.status != ServerStatus::kOk) {
        throw std::runtime_error("server set-up command failed: " + r.error);
      }
    }
  }
  return s;
}

struct Completion {
  int client;
  std::int64_t id;  ///< the command it completes
  ServerResult result;
  Clock::time_point end;
};

}  // namespace

void run_server_mix(const Options& options, Result& out) {
  const std::string path = cvol_path(options.input_prefix);
  Server server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.manager.reset();
    server.source.reset();
    const Clock::time_point start = Clock::now();
    server = set_up(path);
    out.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  SessionManager& manager = *server.manager;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Completion> completions;  // guarded by mutex

  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(mix_seed(options.seed, 30),
                         mix_seed(options.seed, 31 + c));
  }
  Command pending[kClients];
  Clock::time_point sent_at[kClients];
  bool outstanding[kClients] = {};
  std::int64_t command_id[kClients] = {};
  out.digests.assign(kClients, {});
  bool timed[kClients] = {};
  // Completion time of each client's last timed cycle end, and the cycle
  // durations (kCycle commands of one client) between them.
  Clock::time_point cycle_end[kClients];
  bool cycle_started[kClients] = {};
  std::vector<double> cycle_s;
  std::uint64_t submitted = 0, completed = 0, reads = 0;
  std::uint64_t timed_submitted = 0, timed_completed = 0;
  std::uint64_t unexpected = 0, not_ok = 0;
  std::int64_t next_id = 0;

  // Set when the warm-up ends: the timed loop's start and the counter
  // snapshots its per-layer deltas are taken from.
  bool warm = false;
  Clock::time_point begin;
  TimingSource::Counts io_before;
  StreamStats stream_before;

  const auto submit = [&](int c) {
    pending[c] = clients[c].next();
    const std::int64_t id = next_id++;
    command_id[c] = id;
    outstanding[c] = true;
    timed[c] = warm;
    ++submitted;
    if (warm) ++timed_submitted;
    sent_at[c] = Clock::now();
    manager.submit(server.sessions[c], pending[c],
                   [&, c, id](const ServerResult& r) {
                     const Clock::time_point end = Clock::now();
                     std::lock_guard<std::mutex> lock(mutex);
                     completions.push_back({c, id, r, end});
                     cv.notify_one();
                   });
  };

  for (int c = 0; c < kClients; ++c) submit(c);
  int live = kClients;
  while (live > 0) {
    Completion done;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !completions.empty(); });
      done = std::move(completions.front());
      completions.pop_front();
    }
    const int c = done.client;
    // A completion counts only for the command its client is waiting for.
    if (!outstanding[c] || done.id != command_id[c]) {
      ++unexpected;
      continue;
    }
    outstanding[c] = false;
    ++completed;
    const KindInfo& kind = kind_info(pending[c].kind);
    if (done.result.status != ServerStatus::kOk) {
      ++not_ok;
      std::fprintf(stderr, "command %s failed: %s\n", kind.name,
                   done.result.error.c_str());
    }
    out.digests[c].push_back(result_digest(done.result));
    if (timed[c]) {
      ++timed_completed;
      if (kind.read) ++reads;
      const double ms = ms_between(sent_at[c], done.end);
      out.op_ms.push_back(ms);
      out.sample(std::string("server.cmd_ms_p50.") + kind.name, ms);
      if (options.trace) {
        record_span("server", kind.name, sent_at[c], done.end, done.id);
      }
      if (out.digests[c].size() % kCycle == 0) {
        if (cycle_started[c]) {
          cycle_s.push_back(ms_between(cycle_end[c], done.end) / 1e3);
        }
        cycle_end[c] = done.end;
        cycle_started[c] = true;
      }
    } else if (!warm && completed >= kWarmupCommands) {
      // Commands still in flight from the warm-up stay untimed.
      warm = true;
      io_before = server.source->counts();
      stream_before = manager.tier().stats();
      set_tracing(options.trace);
      begin = Clock::now();
    }
    if (!warm || ms_between(begin, Clock::now()) < options.seconds * 1e3 ||
        timed_submitted < kMinCommands) {
      submit(c);
    } else {
      --live;
    }
  }
  const double wall_s = ms_between(begin, Clock::now()) / 1e3;
  report_peak_rss(out);
  set_tracing(false);
  manager.drain_all();
  {
    // Completions left after the drain are second completions.
    std::lock_guard<std::mutex> lock(mutex);
    unexpected += completions.size();
  }
  out.attempted = submitted;
  out.failed = not_ok + (submitted - completed);
  // Throughput from the median cycle rather than the run's mean, so a
  // stall of the machine during a few cycles does not move it.
  const double median_cycle_s = median(cycle_s);
  out.ops_per_s = median_cycle_s > 0.0 ? static_cast<double>(kClients * kCycle) /
                                             median_cycle_s
                                       : 0.0;

  report_io(io_before, server.source->counts(), out);
  const StreamStats s = manager.tier().stats();
  report_stream(stream_before, s, out);
  out.values["server.commands_rejected"] = static_cast<double>(
      s.commands_rejected - stream_before.commands_rejected);
  out.values["server.commands_shed"] =
      static_cast<double>(s.commands_shed - stream_before.commands_shed);
  std::size_t peak_depth = 0;
  for (int id : server.sessions) {
    peak_depth = std::max(peak_depth, manager.session_queue(id).peak_depth);
  }
  out.values["server.peak_queue_depth"] = static_cast<double>(peak_depth);

  out.check("commands_exactly_once_ok",
            completed == submitted && unexpected == 0 && not_ok == 0,
            std::to_string(submitted) + " submitted, " +
                std::to_string(completed) + " completed, " +
                std::to_string(unexpected) + " unexpected completions, " +
                std::to_string(not_ok) + " not kOk");
  check_decorator(path, server.source,
                  static_cast<int>(options.seed % ServerMix::kSteps), out);

  const double derived_total =
      static_cast<double>(s.derived_hits + s.derived_misses) -
      static_cast<double>(stream_before.derived_hits +
                          stream_before.derived_misses);
  char line[360];
  std::snprintf(line, sizeof line,
                "server_mix_128: %d closed-loop clients, %llu timed commands "
                "after %llu warm-up (%.1f%% reads), budget %d of %d steps, "
                "derived hit ratio %.3f over %.0f lookups; %.1f commands/s "
                "over the run, %.1f from the median of %zu cycles",
                kClients, static_cast<unsigned long long>(timed_submitted),
                static_cast<unsigned long long>(submitted - timed_submitted),
                timed_completed > 0
                    ? 100.0 * static_cast<double>(reads) /
                          static_cast<double>(timed_completed)
                    : 0.0,
                kBudgetSteps, ServerMix::kSteps,
                out.values["stream.derived_hit_ratio"], derived_total,
                static_cast<double>(timed_completed) / wall_s, out.ops_per_s,
                cycle_s.size());
  out.report.push_back(line);
}

}  // namespace perfbench
