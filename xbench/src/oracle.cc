#include "oracle.h"

#include <functional>
#include <unordered_map>

#include "xadt/xadt.h"
#include "xml/serializer.h"

namespace xbench {

using xorator::Result;
using xorator::xml::Node;

namespace {

constexpr char kSep = '\x1f';

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// An element's direct text children, concatenated: what the shredder
/// stores as a Hybrid value column.
std::string Direct(const Node* n) {
  std::string out;
  for (const auto& c : n->children()) {
    if (c->is_text()) out += c->text();
  }
  return out;
}

/// Full text content: what XADT key matches and unnest's `out` see.
std::string Text(const Node* n) { return n->TextContent(); }

/// Serialized fragment: what xadtToXml returns for an XADT value.
std::string Xml(const std::vector<const Node*>& nodes) {
  std::string out;
  for (const Node* n : nodes) xorator::xml::SerializeTo(*n, &out);
  return out;
}

bool Has(const std::string& s, std::string_view key) {
  return s.find(key) != std::string::npos;
}

std::string Row(std::initializer_list<std::string_view> cells) {
  std::string out;
  bool first = true;
  for (std::string_view c : cells) {
    if (!first) out.push_back(kSep);
    out.append(c);
    first = false;
  }
  return out;
}

/// Descendant-or-self elements named `name`, in document order.
void Collect(const Node* n, std::string_view name,
             std::vector<const Node*>* out) {
  if (!n->is_element()) return;
  if (n->name() == name) out->push_back(n);
  for (const auto& c : n->children()) Collect(c.get(), name, out);
}

std::vector<const Node*> All(const Node* n, std::string_view name) {
  std::vector<const Node*> out;
  Collect(n, name, &out);
  return out;
}

const Node* Child(const Node* n, std::string_view name) {
  return n == nullptr ? nullptr : n->FirstChildElement(name);
}

std::vector<const Node*> Children(const Node* n, std::string_view name) {
  return n == nullptr ? std::vector<const Node*>{} : n->ChildElements(name);
}

void Shakespeare(const DocList& docs, Dialect d,
                 std::array<Fingerprint, 6>* out) {
  const bool h = d == Dialect::kHybrid;
  uint64_t next_speech_id = 1;
  for (const Node* play : docs) {
    std::vector<const Node*> speeches = All(play, "SPEECH");
    std::unordered_map<const Node*, uint64_t> speech_id;
    for (const Node* sp : speeches) speech_id[sp] = next_speech_id++;

    for (const Node* sp : speeches) {
      std::vector<const Node*> speakers = Children(sp, "SPEAKER");
      std::vector<const Node*> lines = Children(sp, "LINE");
      // QS1: speaker/line pairs of every speech.
      for (const Node* s : speakers) {
        for (const Node* l : lines) {
          (*out)[0].Add(h ? Row({Direct(s), Direct(l)})
                          : Row({Text(s), Text(l)}));
        }
      }
      // QS2/QS3: lines with a stage direction (mentioning "Rising").
      std::vector<const Node*> with_dir;
      std::vector<const Node*> with_rising;
      for (const Node* l : lines) {
        if (h) {
          for (const Node* sd : Children(l, "STAGEDIR")) {
            (*out)[1].Add(Direct(l));
            if (Has(Direct(sd), "Rising")) (*out)[2].Add(Direct(l));
          }
          continue;
        }
        std::vector<const Node*> dirs = All(l, "STAGEDIR");
        if (!dirs.empty()) with_dir.push_back(l);
        for (const Node* sd : dirs) {
          if (Has(Text(sd), "Rising")) {
            with_rising.push_back(l);
            break;
          }
        }
      }
      if (!with_dir.empty()) (*out)[1].Add(Xml(with_dir));
      if (!with_rising.empty()) (*out)[2].Add(Xml(with_rising));
    }

    // QS4/QS5: ROMEO's speeches in the scenes of "Romeo and Juliet".
    const Node* title = Child(play, "TITLE");
    if (title != nullptr && Direct(title) == "Romeo and Juliet") {
      for (const Node* act : Children(play, "ACT")) {
        for (const Node* scene : Children(act, "SCENE")) {
          for (const Node* sp : Children(scene, "SPEECH")) {
            std::vector<const Node*> speakers = Children(sp, "SPEAKER");
            std::vector<const Node*> lines = Children(sp, "LINE");
            std::string id = std::to_string(speech_id[sp]);
            if (h) {
              for (const Node* s : speakers) {
                if (Direct(s) != "ROMEO") continue;
                (*out)[3].Add(id);
                for (const Node* l : lines) {
                  if (Has(Direct(l), "love")) (*out)[4].Add(Direct(l));
                }
              }
              continue;
            }
            bool romeo = false;
            for (const Node* s : speakers) romeo = romeo || Has(Text(s), "ROMEO");
            if (!romeo) continue;
            (*out)[3].Add(id);
            std::vector<const Node*> love;
            for (const Node* l : lines) {
              if (Has(Text(l), "love")) love.push_back(l);
            }
            if (!love.empty()) (*out)[4].Add(Xml(love));
          }
        }
      }
    }

    // QS6: the second line of every prologue speech. XORator returns one
    // (possibly empty) fragment per prologue speech.
    for (const Node* prologue : All(play, "PROLOGUE")) {
      for (const Node* sp : Children(prologue, "SPEECH")) {
        std::vector<const Node*> lines = Children(sp, "LINE");
        if (h) {
          if (lines.size() >= 2) (*out)[5].Add(Direct(lines[1]));
        } else {
          (*out)[5].Add(lines.size() >= 2 ? Xml({lines[1]}) : std::string());
        }
      }
    }
  }
}

void Sigmod(const DocList& docs, Dialect d, std::array<Fingerprint, 6>* out) {
  const bool h = d == Dialect::kHybrid;
  std::map<std::string, uint64_t> sections_per_author;
  uint64_t bird = 0;
  for (const Node* pp : docs) {
    std::vector<const Node*> join_authors;    // QG1 (XORator)
    std::vector<const Node*> worthy_sections;  // QG3 (XORator)
    std::vector<const Node*> second_authors;  // QG6 (XORator)
    bool any_join = false;
    for (const Node* t : Children(Child(pp, "sList"), "sListTuple")) {
      const Node* section = Child(t, "sectionName");
      std::string section_value = h ? Direct(section) : Text(section);
      bool worthy = false;
      bool has_bird = false;
      for (const Node* at : Children(Child(t, "articles"), "aTuple")) {
        const Node* title = Child(at, "title");
        std::vector<const Node*> authors =
            Children(Child(at, "authors"), "author");
        bool join = Has(h ? Direct(title) : Text(title), "Join");
        any_join = any_join || join;
        for (const Node* au : authors) {
          std::string name = h ? Direct(au) : Text(au);
          (*out)[1].Add(Row({name, section_value}));  // QG2
          ++sections_per_author[name];                // QG4
          if (h && join) (*out)[0].Add(name);         // QG1
          if (Has(name, "Worthy")) {
            if (h) (*out)[2].Add(section_value);      // QG3
            worthy = true;
          }
          if (Has(name, "Bird")) {
            if (h) ++bird;  // QG5 counts author rows under Hybrid
            has_bird = true;
          }
        }
        if (join && !h) {
          join_authors.insert(join_authors.end(), authors.begin(),
                              authors.end());
        }
        if (join && authors.size() >= 2) {
          if (h) {
            (*out)[5].Add(Direct(authors[1]));  // QG6
          } else {
            second_authors.push_back(authors[1]);
          }
        }
      }
      if (worthy && section != nullptr) worthy_sections.push_back(section);
      if (has_bird && !h) ++bird;  // ... and section tuples under XORator
    }
    if (!h) {
      if (any_join) {
        (*out)[0].Add(Xml(join_authors));
        (*out)[5].Add(Xml(second_authors));
      }
      if (!worthy_sections.empty()) (*out)[2].Add(Xml(worthy_sections));
    }
  }
  for (const auto& [name, n] : sections_per_author) {
    (*out)[3].Add(Row({name, std::to_string(n)}));
  }
  (*out)[4].Add(std::to_string(bird));
}

}  // namespace

void Fingerprint::Add(std::string_view row) {
  ++rows;
  sum += Mix(std::hash<std::string_view>{}(row));
}

Result<Fingerprint> OfResult(const xorator::ordb::QueryResult& r) {
  Fingerprint f;
  std::string row;
  for (const xorator::ordb::Tuple& t : r.rows) {
    row.clear();
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) row.push_back(kSep);
      if (t[i].type() == xorator::ordb::TypeId::kXadt) {
        XO_ASSIGN_OR_RETURN(std::string xml,
                            xorator::xadt::ToXmlString(t[i].AsString()));
        row += xml;
      } else {
        row += t[i].ToString();
      }
    }
    f.Add(row);
  }
  return f;
}

Fingerprint OfPayload(const xorator::server::ResultPayload& p) {
  Fingerprint f;
  std::string row;
  for (const auto& cells : p.rows) {
    row.clear();
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) row.push_back(kSep);
      row += cells[i];
    }
    f.Add(row);
  }
  return f;
}

std::array<Fingerprint, 6> ExpectedPaperAnswers(CorpusKind corpus,
                                                const DocList& docs,
                                                Dialect dialect) {
  std::array<Fingerprint, 6> out{};
  if (corpus == CorpusKind::kShakespeare) {
    Shakespeare(docs, dialect, &out);
  } else {
    Sigmod(docs, dialect, &out);
  }
  return out;
}

std::map<std::string, uint64_t> ExpectedRowCounts(
    const DocList& docs, const xorator::mapping::MappedSchema& schema) {
  std::map<std::string, uint64_t> per_element;
  std::function<void(const Node*)> walk = [&](const Node* n) {
    if (!n->is_element()) return;
    ++per_element[n->name()];
    for (const auto& c : n->children()) walk(c.get());
  };
  for (const Node* doc : docs) walk(doc);
  std::map<std::string, uint64_t> out;
  for (const auto& table : schema.tables) {
    out[table.name] = per_element[table.element];
  }
  return out;
}

uint64_t LookupTargets(CorpusKind corpus, const DocList& docs) {
  if (corpus == CorpusKind::kSigmod) return docs.size();
  uint64_t n = 0;
  for (const Node* doc : docs) n += All(doc, "SPEECH").size();
  return n;
}

std::string LookupSql(CorpusKind corpus, Dialect dialect, uint64_t id) {
  std::string n = std::to_string(id);
  if (corpus == CorpusKind::kSigmod) {
    return "SELECT pp_volume, pp_number, pp_year, pp_location FROM pp "
           "WHERE ppID = " + n;
  }
  if (dialect == Dialect::kHybrid) {
    return "SELECT line_value FROM line WHERE line_parentID = " + n;
  }
  return "SELECT xadtToXml(speech_line) FROM speech WHERE speechID = " + n;
}

Fingerprint ExpectedLookup(CorpusKind corpus, const DocList& docs,
                           Dialect dialect, uint64_t id) {
  Fingerprint f;
  if (corpus == CorpusKind::kSigmod) {
    if (id == 0 || id > docs.size()) return f;
    const Node* pp = docs[id - 1];
    f.Add(Row({Direct(Child(pp, "volume")), Direct(Child(pp, "number")),
               Direct(Child(pp, "year")), Direct(Child(pp, "location"))}));
    return f;
  }
  uint64_t seen = 0;
  for (const Node* doc : docs) {
    std::vector<const Node*> speeches = All(doc, "SPEECH");
    if (id > seen + speeches.size()) {
      seen += speeches.size();
      continue;
    }
    std::vector<const Node*> lines = Children(speeches[id - seen - 1], "LINE");
    if (dialect == Dialect::kXorator) {
      f.Add(Xml(lines));
    } else {
      for (const Node* l : lines) f.Add(Direct(l));
    }
    break;
  }
  return f;
}

}  // namespace xbench
