// Span recorder for the traced benchmark run. Spans are taken from the
// benchmark's own code around each call into an engine layer; nothing in
// the engine is instrumented. They are kept in memory and written out when
// the run ends.
#ifndef XBENCH_TRACE_H_
#define XBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
};

/// Process-wide span store. Recording is off unless Enable(true) was
/// called; SetActive toggles it within a traced run (the tracing-overhead
/// measurement alternates traced and untraced rounds).
class Tracer {
 public:
  static void Enable(bool on);
  static void SetActive(bool on);
  static bool active();
  static int64_t NowNs();
  static uint64_t Begin(uint64_t* parent_out);
  static void End(uint64_t id, uint64_t parent, const char* name,
                  int64_t start_ns);
  static std::vector<Span> Snapshot();
  /// Total milliseconds of the spans of each name.
  static std::map<std::string, double> TotalMs();
  /// Writes every span as one JSON object per line.
  static bool WriteJsonLines(const std::string& path);
};

/// Records one span for its lifetime when tracing is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace xbench

#endif  // XBENCH_TRACE_H_
