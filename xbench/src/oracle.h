// The DOM answer oracle. Expected answers of the paper queries, the point
// lookups and the per-table row counts are computed by walking the
// generated documents, apart from the engine, following the semantics each
// dialect's SQL states: Hybrid's shredded values are an element's direct
// text, XORator's XADT methods match keys against full text content and
// return serialized fragments.
#ifndef XBENCH_ORACLE_H_
#define XBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "mapping/schema.h"
#include "ordb/database.h"
#include "server/protocol.h"
#include "xml/dom.h"

namespace xbench {

enum class Dialect { kHybrid, kXorator };
enum class CorpusKind { kShakespeare, kSigmod };

/// Order-independent fingerprint of a multiset of result rows. A row is its
/// cells joined by U+001F; XADT cells are compared as their XML text.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(std::string_view row);
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

/// Fingerprint of an in-process result (XADT values rendered as XML).
xorator::Result<Fingerprint> OfResult(const xorator::ordb::QueryResult& r);
/// Fingerprint of a wire result (cells already rendered by the server).
Fingerprint OfPayload(const xorator::server::ResultPayload& p);

/// The documents of one database, in load order (a document loaded twice
/// appears twice).
using DocList = std::vector<const xorator::xml::Node*>;

/// Expected answers of QS1..QS6 or QG1..QG6 (index 0..5) in `dialect`.
std::array<Fingerprint, 6> ExpectedPaperAnswers(CorpusKind corpus,
                                                const DocList& docs,
                                                Dialect dialect);

/// Expected row count of every table of `schema`.
std::map<std::string, uint64_t> ExpectedRowCounts(
    const DocList& docs, const xorator::mapping::MappedSchema& schema);

/// Number of addressable point-lookup targets: speeches (Shakespeare) or
/// proceedings documents (SIGMOD). Ids run from 1 in load order.
uint64_t LookupTargets(CorpusKind corpus, const DocList& docs);

/// The point-lookup statement for target `id` in `dialect`, and its
/// expected answer.
std::string LookupSql(CorpusKind corpus, Dialect dialect, uint64_t id);
Fingerprint ExpectedLookup(CorpusKind corpus, const DocList& docs,
                           Dialect dialect, uint64_t id);

}  // namespace xbench

#endif  // XBENCH_ORACLE_H_
