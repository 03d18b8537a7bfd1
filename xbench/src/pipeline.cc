#include "pipeline.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <thread>

#include "benchutil/fixture.h"
#include "benchutil/workload.h"
#include "datagen/dtds.h"
#include "datagen/generators.h"
#include "server/client.h"
#include "server/server.h"
#include "shred/loader.h"
#include "trace.h"
#include "xadt/functions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xbench {

namespace fs = std::filesystem;
using xorator::Result;
using xorator::Status;
namespace ordb = xorator::ordb;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* kSpecs = [] {
    auto* v = new std::vector<WorkloadSpec>();
    WorkloadSpec g;
    g.name = "sigmod-durable";
    g.corpus = CorpusKind::kSigmod;
    g.base_docs = 800;
    g.file_backed = true;
    g.sort_heap_bytes = 1u << 20;
    g.setup_share = 0.3;
    g.query_share = 0.4;
    g.wire_share = 0.15;
    g.batch_docs = 200;
    g.recheck_after_ingest = true;
    v->push_back(g);

    WorkloadSpec w;
    w.name = "wire-point-mix";
    w.corpus = CorpusKind::kShakespeare;
    w.base_bytes = 560'000;
    w.setup_share = 0.2;
    w.query_share = 0.2;
    w.wire_share = 0.5;
    w.wire_queries = {3, 4, 5};
    w.batch_docs = 2;
    v->push_back(w);
    return v;
  }();
  return *kSpecs;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void Bench::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "failed: %s\n", what.c_str());
  }
}

void Bench::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "incorrect: %s\n", what.c_str());
}

namespace {

/// Point-lookup targets per dialect, drawn from the seed.
constexpr int kDistinctLookups = 24;
/// Point lookups after each paper statement of the wire mix: three
/// quarters of the round trips, so that the median round trip is a lookup
/// (statement fixed cost and the wire) and p99 falls among the paper
/// statements.
constexpr int kLookupsPerQuery = 3;
/// Incremental ingest batches after the wire phase.
constexpr int kIngestBatches = 4;

double Seconds(const Timer& t) { return t.ElapsedMillis() / 1000.0; }

std::unique_ptr<xorator::xml::Node> Generate(const WorkloadSpec& spec,
                                             uint64_t seed, int i) {
  if (spec.corpus == CorpusKind::kShakespeare) {
    // Play 0 is "Romeo and Juliet", the play QS4 and QS5 select. It comes
    // from the generator's default seed so those selective queries do the
    // same work in every run; every other play follows --seed.
    xorator::datagen::ShakespeareOptions o;
    if (i != 0) o.seed = seed;
    return xorator::datagen::ShakespeareGenerator(o).GeneratePlay(i);
  }
  xorator::datagen::SigmodOptions o;
  o.seed = seed;
  return xorator::datagen::SigmodGenerator(o).GenerateProceedings(i);
}

/// Parses `texts` into documents owned by `owned`.
Status ParseAll(const std::vector<std::string>& texts,
                std::vector<std::unique_ptr<xorator::xml::Node>>* owned,
                std::vector<const xorator::xml::Node*>* docs) {
  for (const std::string& text : texts) {
    ScopedSpan span("xml.parse");
    XO_ASSIGN_OR_RETURN(auto doc, xorator::xml::ParseDocument(text));
    docs->push_back(doc.root.get());
    owned->push_back(std::move(doc.root));
  }
  return Status::OK();
}

ordb::DbOptions Options(const Bench& b, const Side& s, size_t pool_pages) {
  ordb::DbOptions o;
  o.path = s.path;
  if (pool_pages != 0) o.buffer_pool_pages = pool_pages;
  if (b.spec->sort_heap_bytes != 0) {
    o.planner.sort_heap_bytes = b.spec->sort_heap_bytes;
  }
  return o;
}

Status OpenDb(const Bench& b, Side* s, size_t pool_pages) {
  ScopedSpan span("ordb.open");
  XO_ASSIGN_OR_RETURN(s->db, ordb::Database::Open(Options(b, *s, pool_pages)));
  return xorator::xadt::RegisterXadtFunctions(s->db->functions());
}

/// Closes a file-backed database and reopens it with a buffer pool of a
/// quarter of its pages.
Status ReopenSmall(const Bench& b, Side* s) {
  {
    ScopedSpan span("ordb.checkpoint");
    XO_RETURN_NOT_OK(s->db->Close());
  }
  s->db.reset();
  uint64_t pages = fs::file_size(s->path) / ordb::kPageSize;
  s->pool_pages = std::max<size_t>(16, pages / 4);
  return OpenDb(b, s, s->pool_pages);
}

/// Text -> queryable database, following the paper's load protocol: shred,
/// primary-key indexes, runstats, advised indexes, runstats (+ checkpoint
/// and reopen when file-backed).
Status BuildSide(Bench* b, Side* s) {
  std::vector<std::unique_ptr<xorator::xml::Node>> owned;
  std::vector<const xorator::xml::Node*> docs;
  XO_RETURN_NOT_OK(ParseAll(b->texts, &owned, &docs));
  s->db.reset();
  if (!s->path.empty()) {
    fs::remove(s->path);
    fs::remove(s->path + ".wal");
  }
  XO_RETURN_NOT_OK(OpenDb(*b, s, 0));
  xorator::shred::Loader loader(s->db.get(), &s->schema);
  XO_RETURN_NOT_OK(loader.CreateTables());
  xorator::shred::LoadReport report;
  {
    ScopedSpan span("shred.load");
    XO_ASSIGN_OR_RETURN(report, loader.Load(docs));
  }
  if (!report.errors.empty() || report.documents != docs.size()) {
    return Status::Internal("load of " + s->label + " skipped " +
                            std::to_string(report.skipped) + " documents");
  }
  s->compressed = report.used_compression;
  for (const auto& table : s->schema.tables) {
    int id_col = table.RoleIndex(xorator::mapping::ColumnRole::kId);
    if (id_col < 0) continue;
    ScopedSpan span("ordb.create_index");
    XO_RETURN_NOT_OK(s->db->CreateIndex(table.name, table.columns[id_col].name));
  }
  {
    ScopedSpan span("ordb.runstats");
    XO_RETURN_NOT_OK(s->db->RunStats());
  }
  {
    ScopedSpan span("ordb.advise_indexes");
    XO_RETURN_NOT_OK(s->db->AdviseIndexes(b->advisor));
  }
  {
    ScopedSpan span("ordb.runstats");
    XO_RETURN_NOT_OK(s->db->RunStats());
  }
  if (!s->path.empty()) XO_RETURN_NOT_OK(ReopenSmall(*b, s));
  return Status::OK();
}

/// Compares every table's COUNT(*) with the oracle.
bool RowCountsMatch(Side* s, const DocList& docs, std::string* why) {
  std::map<std::string, uint64_t> expected = ExpectedRowCounts(docs, s->schema);
  for (const auto& [table, n] : expected) {
    ScopedSpan span("ordb.query");
    auto r = s->db->Query("SELECT COUNT(*) AS n FROM " + table);
    if (!r.ok() || r->rows.size() != 1 ||
        r->rows[0][0].AsInt() != static_cast<int64_t>(n)) {
      *why = s->label + " table " + table + ": expected " + std::to_string(n) +
             (r.ok() ? "" : " (" + r.status().ToString() + ")");
      return false;
    }
  }
  return true;
}

/// Runs `sql` and checks its answer; returns the elapsed milliseconds of
/// the statement alone, or -1 when the answer is wrong. `udf`, when given,
/// receives the statement's UDF counters.
double RunChecked(Side* s, const std::string& sql, const Fingerprint& expected,
                  std::string* why, ordb::UdfStats* udf = nullptr) {
  Timer t;
  Result<ordb::QueryResult> r = [&] {
    ScopedSpan span("ordb.query");
    return s->db->Query(sql);
  }();
  double ms = t.ElapsedMillis();
  if (!r.ok()) {
    *why = r.status().ToString();
    return -1;
  }
  auto got = OfResult(*r);
  if (!got.ok() || *got != expected) {
    *why = "rows " + std::to_string(got.ok() ? got->rows : 0) + ", expected " +
           std::to_string(expected.rows);
    return -1;
  }
  if (udf != nullptr) *udf = r->udf_stats;
  return ms;
}

ordb::BufferPoolStats PoolTotals(Bench* b) {
  ordb::BufferPoolStats t;
  for (Side& s : b->sides) {
    ordb::BufferPoolStats p = s.db->buffer_pool()->stats();
    t.hits += p.hits;
    t.misses += p.misses;
    t.evictions += p.evictions;
    t.writebacks += p.writebacks;
  }
  return t;
}

const char* QueryId(const Bench& b, int q) {
  static const char* kShakespeare[] = {"QS1", "QS2", "QS3", "QS4", "QS5", "QS6"};
  static const char* kSigmod[] = {"QG1", "QG2", "QG3", "QG4", "QG5", "QG6"};
  return b.spec->corpus == CorpusKind::kShakespeare ? kShakespeare[q]
                                                    : kSigmod[q];
}

/// Checked operations and samples of the interleaved set-up and query
/// phase.
struct LoopState {
  bool loaded[2] = {true, true};
  std::string load_why[2];
  bool answered[2][6] = {{true, true, true, true, true, true},
                         {true, true, true, true, true, true}};
  std::vector<double> setup_s;
  std::vector<double> traced_rounds, plain_rounds;
  int rounds = 0;
};

/// One set-up of both databases, timed per dialect.
Status SetupRep(Bench* b, LoopState* st) {
  Tracer::SetActive(b->trace);
  double total = 0;
  for (int d = 0; d < 2; ++d) {
    Side& s = b->sides[d];
    Timer t;
    XO_RETURN_NOT_OK(BuildSide(b, &s));
    double elapsed = Seconds(t);
    s.load_s.push_back(elapsed);
    s.stored_bytes = s.db->DataBytes() + s.db->IndexBytes();
    total += elapsed;
    if (st->loaded[d]) {
      st->loaded[d] = RowCountsMatch(&s, b->docs, &st->load_why[d]);
    }
  }
  st->setup_s.push_back(total);
  ++b->setup_reps;
  return Status::OK();
}

/// One round of the paper queries, each in both dialects. In a traced run
/// odd rounds are traced and even rounds are not, which gives the tracing
/// overhead.
void QueryRound(Bench* b, LoopState* st) {
  ordb::BufferPoolStats before = PoolTotals(b);
  bool traced = b->trace && st->rounds % 2 == 1;
  Tracer::SetActive(traced);
  double round_ms = 0;
  for (int q = 0; q < 6; ++q) {
    for (int d = 0; d < 2; ++d) {
      Side& s = b->sides[d];
      std::string why;
      ordb::UdfStats udf;
      double ms = RunChecked(&s, s.paper_sql[q], s.expected[q], &why, &udf);
      ++s.query_runs;
      if (s.dialect == Dialect::kXorator) {
        s.xadt_udf_calls += udf.scalar_calls + udf.table_calls;
        s.marshaled_bytes += udf.marshaled_bytes;
      }
      if (ms < 0) {
        if (st->answered[d][q]) {
          std::fprintf(stderr, "%s %s: %s\n", s.label.c_str(), QueryId(*b, q),
                       why.c_str());
        }
        st->answered[d][q] = false;
        continue;
      }
      s.query_ms[q].push_back(ms);
      round_ms += ms;
    }
  }
  Tracer::SetActive(b->trace);
  if (b->trace) (traced ? st->traced_rounds : st->plain_rounds).push_back(round_ms);
  ordb::BufferPoolStats after = PoolTotals(b);
  b->pool_fetches += (after.hits + after.misses) - (before.hits + before.misses);
  b->pool_misses += after.misses - before.misses;
  b->pool_evictions += after.evictions - before.evictions;
  ++st->rounds;
}

/// Set-up and the paper queries share one phase of the run, interleaved so
/// that each has had about its share of the time spent so far. The host's
/// speed drifts over tens of seconds; interleaved, the medians of both
/// span the whole phase instead of one stretch each. Every query round
/// after a set-up runs on the databases it just built.
Status SetupAndQueries(Bench* b, std::vector<double>* setup_s) {
  const WorkloadSpec& spec = *b->spec;
  LoopState st;
  double setup_ms = 0, query_ms = 0;
  const double budget_ms =
      (spec.setup_share + spec.query_share) * b->seconds * 1000.0;
  Timer phase;
  while (b->setup_reps < 3 || st.rounds < 1 ||
         phase.ElapsedMillis() < budget_ms) {
    Timer t;
    if (b->setup_reps == 0 ||
        setup_ms * spec.query_share <= query_ms * spec.setup_share) {
      XO_RETURN_NOT_OK(SetupRep(b, &st));
      setup_ms += t.ElapsedMillis();
    } else {
      QueryRound(b, &st);
      query_ms += t.ElapsedMillis();
    }
  }
  for (int d = 0; d < 2; ++d) {
    b->Op(st.loaded[d], b->sides[d].label + " load " + st.load_why[d]);
  }
  for (int d = 0; d < 2; ++d) {
    for (int q = 0; q < 6; ++q) {
      b->Op(st.answered[d][q], b->sides[d].label + " " + QueryId(*b, q));
    }
  }
  if (!st.traced_rounds.empty() && !st.plain_rounds.empty()) {
    b->trace_overhead_pct =
        (Median(st.traced_rounds) / Median(st.plain_rounds) - 1.0) * 100.0;
  }
  *setup_s = std::move(st.setup_s);
  return Status::OK();
}

/// Wraps a single-expression select list in xadtToXml so an XADT answer
/// travels the wire as XML text rather than as an opaque byte count.
std::string AsXml(const std::string& sql) {
  const std::string select = "SELECT ";
  size_t from = sql.find(" FROM ");
  if (sql.rfind(select, 0) != 0 || from == std::string::npos) return sql;
  return select + "xadtToXml(" + sql.substr(select.size(), from - select.size()) +
         ")" + sql.substr(from);
}

/// Builds the wire statements and checks each one's in-process answer
/// against the oracle.
void PrepareWire(Bench* b) {
  const WorkloadSpec& spec = *b->spec;
  uint64_t targets = LookupTargets(spec.corpus, b->docs);
  std::mt19937_64 rng(b->seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<uint64_t> ids;
  for (int i = 0; i < kDistinctLookups; ++i) {
    ids.push_back(1 + rng() % targets);
  }
  for (int d = 0; d < 2; ++d) {
    Side& s = b->sides[d];
    for (int q : spec.wire_queries) {
      WireStatement w;
      w.side = d;
      w.paper = true;
      w.sql = s.paper_sql[q];
      w.expected = s.expected[q];
      b->wire.push_back(w);
    }
    for (uint64_t id : ids) {
      WireStatement w;
      w.side = d;
      w.sql = LookupSql(spec.corpus, s.dialect, id);
      w.expected = ExpectedLookup(spec.corpus, b->docs, s.dialect, id);
      b->wire.push_back(w);
    }
  }
  for (WireStatement& w : b->wire) {
    Side& s = b->sides[w.side];
    auto r = s.db->Query(w.sql);
    bool xadt = false;
    if (r.ok()) {
      for (const auto& row : r->rows) {
        for (const auto& v : row) xadt = xadt || v.type() == ordb::TypeId::kXadt;
      }
    }
    if (xadt) w.sql = AsXml(w.sql);
    std::string why;
    if (RunChecked(&s, w.sql, w.expected, &why) < 0) {
      b->Fail("in-process answer of " + w.sql + ": " + why);
    }
  }
}

/// Wire figures over the whole phase: statements answered per second,
/// and p50 and p99 of every round trip's latency.
void SummarizeWire(const std::vector<double>& ms, double phase_ms, Bench* b) {
  b->wire_qps = static_cast<double>(ms.size()) / (phase_ms / 1000.0);
  b->wire_p50 = Percentile(ms, 0.5);
  b->wire_p99 = Percentile(ms, 0.99);
}

/// The wire phase: one server per dialect with default options, and the
/// workload's client connections in a closed loop, split over the servers.
Status WirePhase(Bench* b) {
  PrepareWire(b);
  // Each server and its client connection share one CPU (the server's
  // threads inherit the affinity of the thread that starts it). A round
  // trip then hands off between threads on one CPU. Unpinned, every handoff
  // woke an idle virtual CPU, whose latency followed the host: the same
  // build measured p50 0.09 ms in one hour and 0.28 ms in another.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::Internal("sched_getaffinity failed");
  }
  int cpus[2] = {-1, -1};
  for (int c = 0, k = 0; c < CPU_SETSIZE && k < 2; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus[k++] = c;
  }
  if (cpus[1] < 0) cpus[1] = cpus[0];
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  };
  std::unique_ptr<xorator::server::Server> servers[2];
  for (int d = 0; d < 2; ++d) {
    if (!pin(cpus[d])) return Status::Internal("sched_setaffinity failed");
    auto started = xorator::server::Server::Start(b->sides[d].db.get());
    sched_setaffinity(0, sizeof(allowed), &allowed);
    XO_RETURN_NOT_OK(started.status());
    servers[d] = std::move(*started);
  }
  // Per-dialect schedule: each paper statement followed by lookups, or
  // the lookups alone when the mix has no paper statements.
  std::vector<size_t>* schedule = b->schedule;
  std::vector<size_t> lookups[2];
  for (size_t i = 0; i < b->wire.size(); ++i) {
    if (!b->wire[i].paper) lookups[b->wire[i].side].push_back(i);
  }
  for (int d = 0; d < 2; ++d) {
    if (b->spec->wire_queries.empty()) schedule[d] = lookups[d];
    size_t next = 0;
    for (size_t i = 0; i < b->wire.size(); ++i) {
      if (b->wire[i].side != d || !b->wire[i].paper) continue;
      schedule[d].push_back(i);
      for (int l = 0; l < kLookupsPerQuery; ++l) {
        schedule[d].push_back(lookups[d][next++ % lookups[d].size()]);
      }
    }
  }
  // Two connections, one per server. With four, the clients and each
  // server's connection and worker threads oversubscribed four CPUs and
  // the tail followed the scheduler (p99 3-13 ms over ten runs).
  constexpr int connections = 2;
  // Latency of every round trip, per connection.
  std::vector<std::vector<double>> latencies(connections);
  std::unique_ptr<std::atomic<bool>[]> ok(new std::atomic<bool>[b->wire.size()]);
  for (size_t i = 0; i < b->wire.size(); ++i) ok[i] = true;
  double budget_ms = b->spec->wire_share * b->seconds * 1000.0;
  Timer phase;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      if (!pin(cpus[c])) std::fprintf(stderr, "could not pin a client\n");
      xorator::server::ClientOptions options;
      options.port = servers[c]->port();
      xorator::server::Client client(options);
      const std::vector<size_t>& sched = schedule[c];
      for (size_t n = 0; n < sched.size() || phase.ElapsedMillis() < budget_ms;
           ++n) {
        const WireStatement& w = b->wire[sched[n % sched.size()]];
        Timer t;
        Result<xorator::server::ResultPayload> r = [&] {
          ScopedSpan span("client.query");
          return client.Query(w.sql);
        }();
        double ms = t.ElapsedMillis();
        if (!r.ok()) {
          ok[&w - b->wire.data()] = false;
          std::fprintf(stderr, "wire %s: %s\n", w.sql.c_str(),
                       r.status().ToString().c_str());
          continue;
        }
        latencies[c].push_back(ms);
        if (OfPayload(*r) != w.expected) ok[&w - b->wire.data()] = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double phase_ms = phase.ElapsedMillis();
  for (int d = 0; d < 2; ++d) {
    b->peak_queue_depth = std::max<uint64_t>(
        b->peak_queue_depth, servers[d]->server_stats().peak_queue_depth);
    servers[d]->Shutdown();
  }
  std::vector<double> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  SummarizeWire(all, phase_ms, b);
  for (size_t i = 0; i < b->wire.size(); ++i) {
    b->Op(ok[i], "wire " + b->sides[b->wire[i].side].label + ": " + b->wire[i].sql);
  }
  return Status::OK();
}

/// Incremental ingest: each batch of new documents is parsed, loaded with
/// a fresh Loader::Load call and checkpointed, per dialect.
Status IngestPhase(Bench* b) {
  const WorkloadSpec& spec = *b->spec;
  DocList all = b->docs;
  int next_doc = b->base_count;
  for (int k = 0; k < kIngestBatches; ++k) {
    std::vector<std::string> texts;
    uint64_t batch_bytes = 0;
    for (int i = 0; i < spec.batch_docs; ++i) {
      b->generated.push_back(Generate(spec, b->seed, next_doc++));
      all.push_back(b->generated.back().get());
      texts.push_back(xorator::xml::Serialize(*b->generated.back()));
      batch_bytes += texts.back().size();
    }
    b->ingest_bytes += batch_bytes;
    for (Side& s : b->sides) {
      ordb::BufferPoolStats before = s.db->buffer_pool()->stats();
      Timer t;
      std::vector<std::unique_ptr<xorator::xml::Node>> owned;
      std::vector<const xorator::xml::Node*> docs;
      XO_RETURN_NOT_OK(ParseAll(texts, &owned, &docs));
      xorator::shred::Loader loader(s.db.get(), &s.schema);
      Result<xorator::shred::LoadReport> report = [&] {
        ScopedSpan span("shred.load");
        return loader.Load(docs);
      }();
      XO_RETURN_NOT_OK(report.status());
      if (!s.path.empty()) {
        std::error_code ec;
        uintmax_t wal = fs::file_size(s.path + ".wal", ec);
        if (!ec) s.wal_bytes += wal;
      }
      Timer ckpt;
      {
        ScopedSpan span("ordb.checkpoint");
        XO_RETURN_NOT_OK(s.db->Checkpoint());
      }
      b->checkpoint_ms.push_back(ckpt.ElapsedMillis());
      s.ingest_mb_per_s.push_back(static_cast<double>(batch_bytes) / 1e6 /
                                  Seconds(t));
      s.writebacks += s.db->buffer_pool()->stats().writebacks - before.writebacks;
      std::string why;
      bool ok = report->errors.empty() && report->documents == docs.size() &&
                RowCountsMatch(&s, all, &why);
      b->Op(ok, s.label + " ingest batch " + std::to_string(k + 1) + " " + why);
    }
    if (!spec.recheck_after_ingest) continue;
    for (Side& s : b->sides) {
      std::array<Fingerprint, 6> expected =
          ExpectedPaperAnswers(spec.corpus, all, s.dialect);
      // Cheapest statements first; the check stops at the first wrong
      // answer, so a wrong Hybrid join does not go on to materialize the
      // larger blow-ups of QG4 and QG2.
      std::string failures;
      for (int q : {0, 5, 2, 4, 3, 1}) {
        std::string why;
        if (RunChecked(&s, s.paper_sql[q], expected[q], &why) < 0) {
          failures = std::string(" ") + QueryId(*b, q) + " (" + why + ")";
          break;
        }
      }
      b->Op(failures.empty(), s.label + " answers after batch " +
                                  std::to_string(k + 1) + ":" + failures);
    }
  }
  if (spec.file_backed) {
    for (Side& s : b->sides) {
      XO_RETURN_NOT_OK(s.db->Close());
      s.db.reset();
      XO_RETURN_NOT_OK(OpenDb(*b, &s, s.pool_pages));
      std::string why;
      b->Op(RowCountsMatch(&s, all, &why), s.label + " reopen " + why);
    }
  }
  return Status::OK();
}

/// Generates the corpus, maps both schemas and computes the expected
/// answers.
Status Prepare(Bench* b) {
  const WorkloadSpec& spec = *b->spec;
  const bool shakespeare = spec.corpus == CorpusKind::kShakespeare;
  const std::string dtd = shakespeare ? xorator::datagen::kShakespeareDtd
                                      : xorator::datagen::kSigmodDtd;
  const auto& queries = shakespeare ? xorator::benchutil::ShakespeareQueries()
                                    : xorator::benchutil::SigmodQueries();
  for (const auto& q : queries) {
    b->advisor.push_back(q.hybrid_sql);
    b->advisor.push_back(q.xorator_sql);
  }
  uint64_t base_bytes = 0;
  while (spec.base_bytes != 0 ? base_bytes < spec.base_bytes
                              : b->base_count < spec.base_docs) {
    b->generated.push_back(Generate(spec, b->seed, b->base_count++));
    b->texts.push_back(xorator::xml::Serialize(*b->generated.back()));
    base_bytes += b->texts.back().size();
  }
  // A byte target keeps the document count whose XML comes closest to it,
  // so the corpora of two seeds differ by at most about half a document.
  if (spec.base_bytes != 0 && b->base_count > 1) {
    uint64_t last = b->texts.back().size();
    if (base_bytes - spec.base_bytes > spec.base_bytes - (base_bytes - last)) {
      b->generated.pop_back();
      b->texts.pop_back();
      --b->base_count;
    }
  }
  for (int i = 0; i < b->base_count; ++i) {
    b->docs.push_back(b->generated[i].get());
    b->xml_bytes += b->texts[i].size();
  }
  for (int d = 0; d < 2; ++d) {
    Side& s = b->sides[d];
    s.dialect = d == 0 ? Dialect::kHybrid : Dialect::kXorator;
    s.label = d == 0 ? "hybrid" : "xorator";
    XO_ASSIGN_OR_RETURN(
        s.schema, xorator::benchutil::MapDtd(
                      dtd, d == 0 ? xorator::benchutil::Mapping::kHybrid
                                     : xorator::benchutil::Mapping::kXorator));
    if (spec.file_backed) s.path = b->work_dir + "/" + s.label + ".db";
    for (const auto& q : queries) {
      s.paper_sql.push_back(d == 0 ? q.hybrid_sql : q.xorator_sql);
    }
    s.expected = ExpectedPaperAnswers(spec.corpus, b->docs, s.dialect);
  }
  // The paper's table counts: Shakespeare 17/7, SIGMOD 7/1.
  size_t want_h = shakespeare ? 17 : 7, want_x = shakespeare ? 7 : 1;
  if (b->sides[0].schema.tables.size() != want_h ||
      b->sides[1].schema.tables.size() != want_x) {
    b->Fail("table counts " + std::to_string(b->sides[0].schema.tables.size()) +
            "/" + std::to_string(b->sides[1].schema.tables.size()));
  }
  return Status::OK();
}

}  // namespace

Result<RunOutput> RunWorkload(const WorkloadSpec& spec, uint64_t seed,
                              double seconds, bool trace,
                              const std::string& work_dir) {
  Bench b;
  b.spec = &spec;
  b.seed = seed;
  b.seconds = seconds;
  b.trace = trace;
  b.work_dir = work_dir;
  Tracer::Enable(trace);

  std::vector<double> setup_s;
  Timer phase;
  auto log_phase = [&](const char* name) {
    std::fprintf(stderr, "%s: %s %.2f s\n", spec.name.c_str(), name,
                 phase.ElapsedMillis() / 1000.0);
    phase.Reset();
  };
  XO_RETURN_NOT_OK(Prepare(&b));
  log_phase("prepare");
  XO_RETURN_NOT_OK(SetupAndQueries(&b, &setup_s));
  log_phase("set-up and queries");
  for (const Side& s : b.sides) {
    std::fprintf(stderr,
                 "%s: %s: %d documents, %.2f MB XML, %llu pages, pool %zu "
                 "pages, %s XADT\n",
                 spec.name.c_str(), s.label.c_str(), b.base_count,
                 static_cast<double>(b.xml_bytes) / 1e6,
                 static_cast<unsigned long long>(s.stored_bytes /
                                                 ordb::kPageSize),
                 s.db->buffer_pool()->capacity(),
                 s.compressed ? "compressed" : "raw");
  }
  // Peak memory of set-up and the in-process queries. It is read before
  // the threaded phases: per-thread malloc arenas made the later peak swing
  // by a quarter between runs of one seed, and the failing Hybrid
  // re-checks after incremental batches materialize the id-reuse fault's
  // cross-batch join blow-up.
  const double peak_rss_mb = PeakRssMb();
  XO_RETURN_NOT_OK(WirePhase(&b));
  log_phase("wire");
  RunOutput out;
  if (trace) {
    XO_RETURN_NOT_OK(RunProbes(&b, &out.metrics));
    log_phase("probes");
  }
  XO_RETURN_NOT_OK(IngestPhase(&b));
  log_phase("ingest");

  const double mb = static_cast<double>(b.xml_bytes) / 1e6;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  if (trace) {
    // Write-path layers of the ingest batches (both dialects).
    const double ingest_mb = static_cast<double>(b.ingest_bytes) / 1e6;
    uint64_t wal = b.sides[0].wal_bytes + b.sides[1].wal_bytes;
    uint64_t writebacks = b.sides[0].writebacks + b.sides[1].writebacks;
    // Ingest rates are reported from traced runs only: a durable batch
    // waits on fsync, whose latency varied tenfold between checkpoints of
    // one run (10-130 ms), and over ten seeds the Hybrid rate spread by
    // 0.2-0.5, more than any end-to-end bound allows.
    for (Side& s : b.sides) {
      add(s.label + "_ingest_mb_per_s", Median(s.ingest_mb_per_s), "MB/s");
    }
    add("ordb.checkpoint_ms", Median(b.checkpoint_ms), "ms");
    add("wal.bytes_per_ingest_mb", static_cast<double>(wal) / (2 * ingest_mb),
        "B/MB");
    add("buffer_pool.writebacks_per_ingest_mb",
        static_cast<double>(writebacks) / (2 * ingest_mb), "count/MB");
  } else {
    add("setup_s", Median(setup_s), "s");
    for (int d = 0; d < 2; ++d) {
      Side& s = b.sides[d];
      // A paper query that never answered right has no samples, and its
      // NaN median makes the mean NaN, which main refuses to report.
      double log_sum = 0;
      for (int q = 0; q < 6; ++q) log_sum += std::log(Median(s.query_ms[q]));
      add(s.label + "_load_mb_per_s", mb / Median(s.load_s), "MB/s");
      add(s.label + "_query_ms", std::exp(log_sum / 6), "ms");
      add(s.label + "_bytes_per_xml_byte",
          static_cast<double>(s.stored_bytes) / static_cast<double>(b.xml_bytes),
          "B/B");
    }
    add("wire_qps", b.wire_qps, "1/s");
    add("wire_ms_p50", b.wire_p50, "ms");
    add("wire_ms_p99", b.wire_p99, "ms");
    add("peak_rss_mb", peak_rss_mb, "MB");
  }
  for (Side& s : b.sides) {
    if (s.db != nullptr) XO_RETURN_NOT_OK(s.db->Close());
    s.db.reset();
  }
  if (trace) {
    Tracer::SetActive(false);
    std::string path = work_dir + "/../" + spec.name + "-seed" +
                       std::to_string(seed) + ".trace.jsonl";
    if (!Tracer::WriteJsonLines(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  out.correct = b.correct;
  out.attempted = b.attempted;
  out.failed = b.failed;
  return out;
}

}  // namespace xbench
