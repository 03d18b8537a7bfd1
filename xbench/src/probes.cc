// Per-layer probes of the traced run. Each one times direct calls into one
// engine layer from outside, on the databases the run built; the ratios
// are taken where the work happens.
#include <atomic>
#include <thread>

#include "ordb/bptree.h"
#include "pipeline.h"
#include "server/protocol.h"
#include "shred/loader.h"
#include "shred/shredder.h"
#include "trace.h"
#include "xadt/xadt.h"

namespace xbench {

using xorator::Result;
using xorator::Status;
namespace ordb = xorator::ordb;

namespace {

constexpr int kReps = 5;

/// Median milliseconds of `kReps` runs of `sql`, and its row count.
Result<double> TimeQuery(ordb::Database* db, const std::string& sql,
                         uint64_t* rows = nullptr) {
  std::vector<double> ms;
  for (int i = 0; i < kReps; ++i) {
    Timer t;
    ScopedSpan span("ordb.query");
    XO_ASSIGN_OR_RETURN(ordb::QueryResult r, db->Query(sql));
    ms.push_back(t.ElapsedMillis());
    if (rows != nullptr) *rows = r.rows.size();
  }
  return Median(ms);
}

/// The wire schedules run in process for `ms` milliseconds: one thread
/// alternating the two dialects' schedules, or `threads` threads each on
/// one dialect's schedule.
double InprocQps(Bench* b, int threads, double ms,
                 std::vector<double>* latencies) {
  std::atomic<uint64_t> done{0};
  std::atomic<bool> errors{false};
  std::vector<std::thread> pool;
  std::vector<std::vector<double>> lat(threads);
  Timer phase;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t n = 0; phase.ElapsedMillis() < ms; ++n) {
        int d = threads == 1 ? static_cast<int>(n % 2) : t % 2;
        const std::vector<size_t>& sched = b->schedule[d];
        const WireStatement& w = b->wire[sched[(n / 2 + t) % sched.size()]];
        Timer q;
        auto r = b->sides[w.side].db->Query(w.sql);
        lat[t].push_back(q.ElapsedMillis());
        if (!r.ok()) errors = true;
        done.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  double secs = phase.ElapsedMillis() / 1000.0;
  if (errors) b->Fail("in-process wire statements failed");
  if (latencies != nullptr) {
    for (auto& l : lat) latencies->insert(latencies->end(), l.begin(), l.end());
  }
  return static_cast<double>(done.load()) / secs;
}

}  // namespace

Status RunProbes(Bench* b, std::vector<Metric>* out) {
  auto add = [&](const std::string& name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  const bool shakespeare = b->spec->corpus == CorpusKind::kShakespeare;
  Side& h = b->sides[0];
  Side& x = b->sides[1];
  std::map<std::string, double> span_ms = Tracer::TotalMs();
  const double reps = b->setup_reps;

  // xml: parse rate over every set-up repetition of both dialects.
  add("xml.parse_mb_per_s",
      reps * 2 * static_cast<double>(b->xml_bytes) / 1e6 /
          (span_ms["xml.parse"] / 1000.0),
      "MB/s");

  // shred: the Shredder alone, then the rows it made bulk-inserted into a
  // fresh database (the two halves of Loader::Load).
  {
    uint64_t docs = 0, rows = 0;
    double shred_ms = 0, insert_ms = 0;
    for (Side& s : b->sides) {
      xorator::shred::Shredder shredder(&s.schema, s.compressed, false);
      xorator::shred::RowBatch batch;
      Timer t;
      {
        ScopedSpan span("shred.shred");
        for (const xorator::xml::Node* doc : b->docs) {
          XO_RETURN_NOT_OK(shredder.Shred(*doc, &batch));
        }
      }
      shred_ms += t.ElapsedMillis();
      docs += b->docs.size();
      XO_ASSIGN_OR_RETURN(auto db, ordb::Database::Open({}));
      xorator::shred::Loader loader(db.get(), &s.schema);
      XO_RETURN_NOT_OK(loader.CreateTables());
      Timer ins;
      for (const auto& [table, tuples] : batch) {
        ScopedSpan span("ordb.bulk_insert");
        XO_RETURN_NOT_OK(db->BulkInsert(table, tuples));
        rows += tuples.size();
      }
      insert_ms += ins.ElapsedMillis();
    }
    add("shred.docs_per_s", static_cast<double>(docs) / (shred_ms / 1000.0),
        "1/s");
    add("shred.rows_per_doc",
        static_cast<double>(rows) / static_cast<double>(docs), "count");
    add("ordb.bulk_insert_ns_per_row",
        insert_ms * 1e6 / static_cast<double>(rows), "ns");
  }
  add("ordb.index_build_ms",
      (span_ms["ordb.create_index"] + span_ms["ordb.advise_indexes"]) / reps,
      "ms");
  add("ordb.runstats_ms", span_ms["ordb.runstats"] / reps, "ms");

  // The read ladder on the largest Hybrid table: raw heap scan, COUNT(*)
  // through the executor, and a full-row SELECT.
  {
    const ordb::TableInfo* largest = nullptr;
    for (const ordb::TableInfo* t : h.db->catalog()->tables()) {
      if (largest == nullptr ||
          t->heap->record_count() > largest->heap->record_count()) {
        largest = t;
      }
    }
    std::vector<double> scan_ns;
    uint64_t records = 0;
    for (int i = 0; i < kReps; ++i) {
      ScopedSpan span("heap_file.scan");
      auto scanner = largest->heap->Scan();
      ordb::Rid rid;
      std::string record;
      records = 0;
      Timer t;
      while (true) {
        XO_ASSIGN_OR_RETURN(bool more, scanner.Next(&rid, &record));
        if (!more) break;
        ++records;
      }
      scan_ns.push_back(t.ElapsedMillis() * 1e6 / static_cast<double>(records));
    }
    add("heap_file.scan_ns_per_record", Median(scan_ns), "ns");
    uint64_t rows = 0;
    XO_ASSIGN_OR_RETURN(double count_ms,
                        TimeQuery(h.db.get(), "SELECT COUNT(*) AS n FROM " +
                                                  largest->name));
    XO_ASSIGN_OR_RETURN(double all_ms,
                        TimeQuery(h.db.get(), "SELECT * FROM " + largest->name,
                                  &rows));
    add("executor.count_ns_per_row",
        count_ms * 1e6 / static_cast<double>(records), "ns");
    add("executor.materialize_ns_per_row",
        (all_ms - count_ms) * 1e6 / static_cast<double>(rows), "ns");
  }

  // Statement fixed cost: EXPLAIN of the wire statements, a one-row
  // statement, and the primary-key B+-tree lookup behind it.
  {
    std::vector<double> explain_us;
    for (const WireStatement& w : b->wire) {
      Timer t;
      ScopedSpan span("sql.explain");
      XO_RETURN_NOT_OK(b->sides[w.side].db->Explain(w.sql).status());
      explain_us.push_back(t.ElapsedMillis() * 1000.0);
    }
    add("sql.explain_us", Median(explain_us), "us");
    const std::string table = shakespeare ? "speech" : "pp";
    const ordb::IndexInfo* pk =
        h.db->catalog()->FindTable(table)->FindIndex(table + "ID");
    uint64_t n = pk->tree->entry_count();
    std::vector<double> stmt_us;
    for (uint64_t i = 0; i < 64; ++i) {
      uint64_t id = 1 + (i * 7919) % n;
      std::string sql = shakespeare
                            ? "SELECT speech_childOrder FROM speech WHERE "
                              "speechID = " + std::to_string(id)
                            : "SELECT pp_year FROM pp WHERE ppID = " +
                                  std::to_string(id);
      Timer t;
      ScopedSpan span("ordb.query");
      XO_ASSIGN_OR_RETURN(ordb::QueryResult r, h.db->Query(sql));
      stmt_us.push_back(t.ElapsedMillis() * 1000.0);
      if (r.rows.size() != 1) b->Fail("one-row statement " + sql);
    }
    add("ordb.statement_us", Median(stmt_us), "us");
    Timer t;
    uint64_t lookups = 0;
    {
      ScopedSpan span("bptree.find");
      for (int pass = 0; pass < 20; ++pass) {
        for (uint64_t id = 1; id <= n; id += 3) {
          XO_ASSIGN_OR_RETURN(auto rids, pk->tree->Find(ordb::IntIndexKey(
                                             static_cast<int64_t>(id))));
          if (rids.size() != 1) b->Fail("primary key " + std::to_string(id));
          ++lookups;
        }
      }
    }
    add("bptree.lookup_ns", t.ElapsedMillis() * 1e6 / static_cast<double>(lookups),
        "ns");
  }

  // The wire mix in process: 1 and 4 threads.
  const double inproc_ms = std::min(1000.0, b->seconds * 50.0);
  std::vector<double> inproc_lat;
  add("ordb.inproc_qps_1t", InprocQps(b, 1, inproc_ms, &inproc_lat), "1/s");
  add("ordb.inproc_qps_4t", InprocQps(b, 4, inproc_ms, nullptr), "1/s");

  // Buffer pool around the query rounds.
  double runs = static_cast<double>(h.query_runs + x.query_runs);
  add("buffer_pool.fetches_per_query",
      static_cast<double>(b->pool_fetches) / runs, "count");
  add("buffer_pool.miss_ratio",
      b->pool_fetches == 0 ? 0
                           : static_cast<double>(b->pool_misses) /
                                 static_cast<double>(b->pool_fetches),
      "ratio");
  add("buffer_pool.evictions_per_query",
      static_cast<double>(b->pool_evictions) / runs, "count");
  for (int q = 0; q < 6; ++q) {
    for (Side& s : b->sides) {
      add("query.q" + std::to_string(q + 1) + "." + s.label + "_ms",
          Median(s.query_ms[q]), "ms");
    }
  }

  // UDF dispatch and the XADT methods on the stored fragments.
  add("functions.udf_calls_per_query",
      static_cast<double>(x.xadt_udf_calls) / static_cast<double>(x.query_runs),
      "count");
  add("functions.marshaled_kb_per_query",
      static_cast<double>(x.marshaled_bytes) / 1024.0 /
          static_cast<double>(x.query_runs),
      "KB");
  {
    // Figure 14's QT1: the UDF twin of a built-in over one column.
    const std::string arg = shakespeare ? "(speaker_value) FROM speaker"
                                        : "(author_value) FROM author";
    uint64_t rows = 0;
    XO_ASSIGN_OR_RETURN(double udf_ms,
                        TimeQuery(h.db.get(), "SELECT udf_length" + arg));
    XO_ASSIGN_OR_RETURN(double builtin_ms,
                        TimeQuery(h.db.get(), "SELECT length" + arg, &rows));
    add("functions.udf_call_ns",
        (udf_ms - builtin_ms) * 1e6 / static_cast<double>(rows), "ns");
  }
  {
    XO_ASSIGN_OR_RETURN(
        ordb::QueryResult frags,
        x.db->Query(shakespeare ? "SELECT speech_line FROM speech"
                                : "SELECT pp_slist FROM pp"));
    double kb = 0;
    for (const auto& row : frags.rows) {
      kb += static_cast<double>(row[0].AsString().size()) / 1024.0;
    }
    std::vector<double> getelm_ns, findkey_ns;
    uint64_t hits = 0;
    for (int i = 0; i < kReps; ++i) {
      Timer t;
      {
        ScopedSpan span("xadt.getelm");
        for (const auto& row : frags.rows) {
          auto r = shakespeare
                       ? xorator::xadt::GetElm(row[0].AsString(), "LINE",
                                               "STAGEDIR", "")
                       : xorator::xadt::GetElm(row[0].AsString(), "aTuple",
                                               "title", "Join");
          if (!r.ok()) return r.status();
        }
      }
      getelm_ns.push_back(t.ElapsedMillis() * 1e6 / kb);
      t.Reset();
      {
        ScopedSpan span("xadt.findkey");
        for (const auto& row : frags.rows) {
          auto r = shakespeare
                       ? xorator::xadt::FindKeyInElm(row[0].AsString(), "LINE",
                                                     "love")
                       : xorator::xadt::FindKeyInElm(row[0].AsString(),
                                                     "author", "Worthy");
          if (!r.ok()) return r.status();
          hits += static_cast<uint64_t>(*r);
        }
      }
      findkey_ns.push_back(t.ElapsedMillis() * 1e6 / kb);
    }
    if (hits == 0) b->Fail("findKeyInElm probe matched nothing");
    add("xadt.getelm_ns_per_kb", Median(getelm_ns), "ns");
    add("xadt.findkey_ns_per_kb", Median(findkey_ns), "ns");
  }

  // Wire: round trip over in-process time, and the frame codec alone.
  add("server.wire_overhead_us",
      (b->wire_p50 - Percentile(inproc_lat, 0.5)) * 1000.0,
      "us");
  {
    std::vector<std::string> frames;
    std::vector<xorator::server::ResultPayload> payloads;
    for (const WireStatement& w : b->wire) {
      XO_ASSIGN_OR_RETURN(ordb::QueryResult r,
                          b->sides[w.side].db->Query(w.sql));
      xorator::server::ResultPayload p;
      p.columns = r.columns;
      for (const auto& row : r.rows) {
        std::vector<std::string> cells;
        for (const auto& v : row) cells.push_back(v.ToString());
        p.rows.push_back(std::move(cells));
      }
      p.plan = r.plan;
      payloads.push_back(std::move(p));
    }
    uint64_t encoded_rows = 0, decoded_rows = 0;
    for (const auto& p : payloads) encoded_rows += 20 * p.rows.size();
    Timer t;
    {
      ScopedSpan span("protocol.encode");
      for (int i = 0; i < 20; ++i) {
        frames.clear();
        for (const auto& p : payloads) {
          XO_ASSIGN_OR_RETURN(std::string frame,
                              xorator::server::EncodeResult(p));
          frames.push_back(std::move(frame));
        }
      }
    }
    double n = 20.0 * static_cast<double>(payloads.size());
    add("protocol.encode_us_per_result", t.ElapsedMillis() * 1000.0 / n, "us");
    t.Reset();
    {
      ScopedSpan span("protocol.decode");
      for (int i = 0; i < 20; ++i) {
        for (const std::string& frame : frames) {
          XO_ASSIGN_OR_RETURN(auto p, xorator::server::DecodeResult(
                                          std::string_view(frame).substr(
                                              xorator::server::kFrameHeaderBytes)));
          decoded_rows += p.rows.size();
        }
      }
    }
    add("protocol.decode_us_per_result", t.ElapsedMillis() * 1000.0 / n, "us");
    if (decoded_rows != encoded_rows) b->Fail("result frames lost rows");
  }
  add("server.peak_queue_depth", static_cast<double>(b->peak_queue_depth),
      "count");
  add("trace.overhead_pct", b->trace_overhead_pct, "%");
  return Status::OK();
}

}  // namespace xbench
