// One benchmark run: XML text -> loaded Hybrid and XORator databases,
// set up again and again between rounds of the paper queries in process ->
// the last databases served over the wire ->
// incremental ingest batches -> (file-backed) reopen. Every answer is
// checked against the DOM oracle.
#ifndef XBENCH_PIPELINE_H_
#define XBENCH_PIPELINE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapping/schema.h"
#include "oracle.h"
#include "ordb/database.h"
#include "xml/dom.h"

namespace xbench {

/// Wall-clock stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

struct WorkloadSpec {
  std::string name;
  CorpusKind corpus = CorpusKind::kShakespeare;
  /// Generated documents (plays or proceedings), or, when base_bytes is
  /// set, as many as it takes to reach that much XML.
  int base_docs = 0;
  uint64_t base_bytes = 0;
  /// File-backed databases are reopened after loading with a buffer pool
  /// of a quarter of their pages.
  bool file_backed = false;
  /// Planner sort heap; 0 keeps the engine default.
  size_t sort_heap_bytes = 0;
  /// Shares of --seconds given to the repeated set-up (at least three
  /// repetitions; load and set-up figures are their medians) and to the
  /// in-process query rounds, which are interleaved, and to the wire phase.
  double setup_share = 0.2;
  double query_share = 0.5;
  double wire_share = 0.2;
  /// Paper queries (0-based) in the wire mix, each followed by three point
  /// lookups. Without paper queries the wire mix is the point lookups alone.
  std::vector<int> wire_queries;
  /// Documents per incremental ingest batch.
  int batch_docs = 1;
  /// Re-run the paper queries after every batch and check them.
  bool recheck_after_ingest = false;
};

const std::vector<WorkloadSpec>& Workloads();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// One database of the pair.
struct Side {
  Dialect dialect = Dialect::kHybrid;
  std::string label;  // "hybrid" / "xorator"
  xorator::mapping::MappedSchema schema;
  std::unique_ptr<xorator::ordb::Database> db;
  std::string path;  // empty: memory-backed
  size_t pool_pages = 0;
  bool compressed = false;  // XADT representation the loader chose
  std::vector<std::string> paper_sql;
  std::array<Fingerprint, 6> expected{};
  std::vector<double> load_s;      // per set-up repetition
  uint64_t stored_bytes = 0;       // data + index bytes after set-up
  std::vector<double> query_ms[6];  // per execution
  // Statements of the query rounds, and the UDF work of the XORator ones.
  uint64_t query_runs = 0;
  uint64_t xadt_udf_calls = 0;
  uint64_t marshaled_bytes = 0;
  std::vector<double> ingest_mb_per_s;  // per batch
  uint64_t wal_bytes = 0;
  uint64_t writebacks = 0;
};

/// One statement of the wire mix, with its checked answer.
struct WireStatement {
  int side = 0;
  bool paper = false;
  std::string sql;
  Fingerprint expected;
};

/// Everything one run builds; the layer probes read it.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::vector<std::unique_ptr<xorator::xml::Node>> generated;
  std::vector<std::string> texts;
  int base_count = 0;  // documents generated for the corpus
  int setup_reps = 0;  // set-up repetitions run
  DocList docs;        // in load order
  uint64_t xml_bytes = 0;
  std::vector<std::string> advisor;
  Side sides[2];
  std::vector<WireStatement> wire;
  std::vector<size_t> schedule[2];  // per dialect: indexes into `wire`
  double wire_qps = 0;
  double wire_p50 = 0;
  double wire_p99 = 0;
  uint64_t peak_queue_depth = 0;
  double trace_overhead_pct = 0;
  uint64_t ingest_bytes = 0;  // per dialect
  std::vector<double> checkpoint_ms;  // one per ingest checkpoint
  // Buffer-pool counters taken around each query round (all databases).
  uint64_t pool_fetches = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Records one checked operation.
  void Op(bool ok, const std::string& what);
  /// Marks the run incorrect (a check outside the counted operations).
  void Fail(const std::string& what);
};

xorator::Result<RunOutput> RunWorkload(const WorkloadSpec& spec, uint64_t seed,
                                       double seconds, bool trace,
                                       const std::string& work_dir);

/// Per-layer probes of the traced run (probes.cc).
xorator::Status RunProbes(Bench* b, std::vector<Metric>* out);

/// Median and percentile; NaN for no samples, which main refuses to
/// report.
double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double p);
double PeakRssMb();

}  // namespace xbench

#endif  // XBENCH_PIPELINE_H_
