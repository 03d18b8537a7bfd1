#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

namespace xbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_active{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Span>* g_spans = new std::vector<Span>();  // guarded by g_mu
thread_local uint64_t t_current = 0;

}  // namespace

void Tracer::Enable(bool on) {
  g_enabled.store(on);
  g_active.store(on);
}
void Tracer::SetActive(bool on) { g_active.store(on && g_enabled.load()); }
bool Tracer::active() { return g_active.load(std::memory_order_relaxed); }

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Begin(uint64_t* parent_out) {
  uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  *parent_out = t_current;
  t_current = id;
  return id;
}

void Tracer::End(uint64_t id, uint64_t parent, const char* name,
                 int64_t start_ns) {
  int64_t end_ns = NowNs();
  t_current = parent;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans->push_back(Span{name, start_ns, end_ns, id, parent});
}

std::vector<Span> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return *g_spans;
}

std::map<std::string, double> Tracer::TotalMs() {
  std::map<std::string, double> out;
  for (const Span& s : Snapshot()) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) {
  std::vector<Span> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!Tracer::active()) return;
  start_ns_ = Tracer::NowNs();
  id_ = Tracer::Begin(&parent_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) Tracer::End(id_, parent_, name_, start_ns_);
}

}  // namespace xbench
