#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  const char* layer;
  const char* name;
  std::int64_t id;
  std::int64_t parent;
  std::int64_t op;
  int tid;
  Clock::time_point start;
  Clock::time_point end;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_next_id{0};
std::atomic<int> g_next_tid{0};
const Clock::time_point g_origin = Clock::now();

std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex

thread_local std::vector<std::int64_t> t_open;  // ids of open spans
thread_local std::int64_t t_op = -1;
thread_local int t_tid = -1;

int thread_index() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

void append(Record record) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_records.push_back(record);
}

double micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_origin).count();
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_current_op(std::int64_t op) { t_op = op; }

Span::Span(const char* layer, const char* name) : layer_(layer), name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_open.empty() ? -1 : t_open.back();
  op_ = t_op;
  t_open.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ < 0) return;
  const Clock::time_point end = Clock::now();
  t_open.pop_back();
  append({layer_, name_, id_, parent_, op_, thread_index(), start_, end});
}

void record_span(const char* layer, const char* name, Clock::time_point start,
                 Clock::time_point end, std::int64_t op) {
  append({layer, name, g_next_id.fetch_add(1), -1, op, thread_index(), start,
          end});
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_records.size();
}

bool write_chrome_trace(const std::string& path) {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    records = g_records;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld}}",
                 i == 0 ? "" : ",", r.name, r.layer, r.tid, micros(r.start),
                 micros(r.end) - micros(r.start),
                 static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
