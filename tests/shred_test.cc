#include <gtest/gtest.h>

#include <set>

#include "benchutil/fixture.h"
#include "datagen/dtds.h"
#include "shred/loader.h"
#include "shred/shredder.h"
#include "xadt/xadt.h"
#include "xml/parser.h"

namespace xorator::shred {
namespace {

using benchutil::MapDtd;
using benchutil::Mapping;
using ordb::Tuple;
using ordb::TypeId;
using ordb::Value;

constexpr char kPlayDoc[] = R"(
<PLAY>
  <INDUCT>
    <TITLE>Induction</TITLE>
    <SUBTITLE>sub one</SUBTITLE>
    <SCENE>
      <TITLE>Scene i</TITLE>
      <SPEECH><SPEAKER>s1</SPEAKER><LINE>l1</LINE></SPEECH>
    </SCENE>
  </INDUCT>
  <ACT>
    <SCENE>
      <TITLE>Scene a</TITLE>
      <SPEECH>
        <SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>
        <LINE>first line</LINE><LINE>second line</LINE>
      </SPEECH>
      <SUBHEAD>head</SUBHEAD>
    </SCENE>
    <TITLE>Act One</TITLE>
    <SUBTITLE>alpha</SUBTITLE>
    <SUBTITLE>beta</SUBTITLE>
    <SPEECH><SPEAKER>s3</SPEAKER><LINE>act line</LINE></SPEECH>
    <PROLOGUE>pro</PROLOGUE>
  </ACT>
</PLAY>
)";

const Tuple* FindRow(const std::vector<Tuple>& rows, int id_col, int64_t id) {
  for (const Tuple& row : rows) {
    if (row[id_col].AsInt() == id) return &row;
  }
  return nullptr;
}

class ShredPlaysTest : public ::testing::Test {
 protected:
  void Shred(Mapping mapping, bool compress = false) {
    auto schema = MapDtd(datagen::kPlaysDtd, mapping);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    schema_ = std::move(*schema);
    auto doc = xml::ParseDocument(kPlayDoc);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    Shredder shredder(&schema_, compress);
    batch_.clear();
    ASSERT_TRUE(shredder.Shred(*doc->root, &batch_).ok());
  }

  int Col(const std::string& table, const std::string& column) {
    const mapping::TableSpec* spec = schema_.FindTable(table);
    EXPECT_NE(spec, nullptr) << table;
    int idx = spec->ColumnIndex(column);
    EXPECT_GE(idx, 0) << table << "." << column;
    return idx;
  }

  mapping::MappedSchema schema_;
  RowBatch batch_;
};

TEST_F(ShredPlaysTest, HybridRowCounts) {
  Shred(Mapping::kHybrid);
  EXPECT_EQ(batch_["play"].size(), 1u);
  EXPECT_EQ(batch_["induct"].size(), 1u);
  EXPECT_EQ(batch_["act"].size(), 1u);
  EXPECT_EQ(batch_["scene"].size(), 2u);
  EXPECT_EQ(batch_["speech"].size(), 3u);
  EXPECT_EQ(batch_["speaker"].size(), 4u);
  EXPECT_EQ(batch_["line"].size(), 4u);
  EXPECT_EQ(batch_["subtitle"].size(), 3u);
  EXPECT_EQ(batch_["subhead"].size(), 1u);
}

TEST_F(ShredPlaysTest, HybridParentLinksAndCodes) {
  Shred(Mapping::kHybrid);
  // The induct scene's parent is the induct; the act scene's parent the act.
  int scene_parent = Col("scene", "scene_parentID");
  int scene_code = Col("scene", "scene_parentCODE");
  int scene_id = Col("scene", "sceneID");
  const Tuple* s1 = FindRow(batch_["scene"], scene_id, 1);
  const Tuple* s2 = FindRow(batch_["scene"], scene_id, 2);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ((*s1)[scene_code].AsString(), "INDUCT");
  EXPECT_EQ((*s2)[scene_code].AsString(), "ACT");
  EXPECT_EQ((*s1)[scene_parent].AsInt(), 1);
  EXPECT_EQ((*s2)[scene_parent].AsInt(), 1);

  // Speeches: one under the induct scene, one under the act scene, one
  // directly under the act.
  int speech_code = Col("speech", "speech_parentCODE");
  std::multiset<std::string> codes;
  for (const Tuple& row : batch_["speech"]) {
    codes.insert(row[speech_code].AsString());
  }
  EXPECT_EQ(codes, (std::multiset<std::string>{"ACT", "SCENE", "SCENE"}));
}

TEST_F(ShredPlaysTest, HybridChildOrderCountsSameTagSiblings) {
  Shred(Mapping::kHybrid);
  int order = Col("line", "line_childOrder");
  int value = Col("line", "line_value");
  std::map<std::string, int64_t> orders;
  for (const Tuple& row : batch_["line"]) {
    orders[row[value].AsString()] = row[order].AsInt();
  }
  EXPECT_EQ(orders["first line"], 1);
  EXPECT_EQ(orders["second line"], 2);
  EXPECT_EQ(orders["act line"], 1);
}

TEST_F(ShredPlaysTest, HybridInlinedLeaves) {
  Shred(Mapping::kHybrid);
  int act_title = Col("act", "act_title");
  int act_prologue = Col("act", "act_prologue");
  const Tuple& act = batch_["act"][0];
  EXPECT_EQ(act[act_title].AsString(), "Act One");
  EXPECT_EQ(act[act_prologue].AsString(), "pro");
  int induct_title = Col("induct", "induct_title");
  EXPECT_EQ(batch_["induct"][0][induct_title].AsString(), "Induction");
}

TEST_F(ShredPlaysTest, XoratorRowCounts) {
  Shred(Mapping::kXorator);
  EXPECT_EQ(batch_["play"].size(), 1u);
  EXPECT_EQ(batch_["induct"].size(), 1u);
  EXPECT_EQ(batch_["act"].size(), 1u);
  EXPECT_EQ(batch_["scene"].size(), 2u);
  EXPECT_EQ(batch_["speech"].size(), 3u);
  EXPECT_EQ(batch_.count("speaker"), 0u);
  EXPECT_EQ(batch_.count("line"), 0u);
}

TEST_F(ShredPlaysTest, XoratorXadtFragments) {
  Shred(Mapping::kXorator);
  int speaker = Col("speech", "speech_speaker");
  int line = Col("speech", "speech_line");
  int id = Col("speech", "speechID");
  const Tuple* speech2 = FindRow(batch_["speech"], id, 2);
  ASSERT_NE(speech2, nullptr);
  ASSERT_EQ((*speech2)[speaker].type(), TypeId::kXadt);
  auto speakers = xadt::ToXmlString((*speech2)[speaker].AsString());
  ASSERT_TRUE(speakers.ok());
  EXPECT_EQ(*speakers, "<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>");
  auto lines = xadt::ToXmlString((*speech2)[line].AsString());
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines, "<LINE>first line</LINE><LINE>second line</LINE>");

  int subtitle = Col("act", "act_subtitle");
  auto subs = xadt::ToXmlString(batch_["act"][0][subtitle].AsString());
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(*subs, "<SUBTITLE>alpha</SUBTITLE><SUBTITLE>beta</SUBTITLE>");
}

TEST_F(ShredPlaysTest, XoratorMissingOptionalIsNull) {
  Shred(Mapping::kXorator);
  // The induct has no SUBHEAD XADT column; its scene's subhead is null for
  // scene 1 and populated for scene 2.
  int subhead = Col("scene", "scene_subhead");
  int id = Col("scene", "sceneID");
  const Tuple* s1 = FindRow(batch_["scene"], id, 1);
  const Tuple* s2 = FindRow(batch_["scene"], id, 2);
  EXPECT_TRUE((*s1)[subhead].is_null());
  ASSERT_FALSE((*s2)[subhead].is_null());
  EXPECT_EQ(*xadt::TextContent((*s2)[subhead].AsString()), "head");
}

TEST_F(ShredPlaysTest, CompressedShreddingRoundTrips) {
  Shred(Mapping::kXorator, /*compress=*/true);
  int line = Col("speech", "speech_line");
  int id = Col("speech", "speechID");
  const Tuple* speech2 = FindRow(batch_["speech"], id, 2);
  ASSERT_NE(speech2, nullptr);
  EXPECT_TRUE(xadt::IsCompressed((*speech2)[line].AsString()));
  EXPECT_EQ(*xadt::ToXmlString((*speech2)[line].AsString()),
            "<LINE>first line</LINE><LINE>second line</LINE>");
}

TEST_F(ShredPlaysTest, IdsPersistAcrossDocuments) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  Shredder shredder(&*schema, false);
  RowBatch batch;
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  EXPECT_EQ(batch["play"].size(), 2u);
  const mapping::TableSpec* play = schema->FindTable("play");
  int id = play->ColumnIndex("playID");
  EXPECT_EQ(batch["play"][0][id].AsInt(), 1);
  EXPECT_EQ(batch["play"][1][id].AsInt(), 2);
  EXPECT_EQ(shredder.NextId("play"), 3);
}

TEST_F(ShredPlaysTest, UnmappedRootRejected) {
  Shred(Mapping::kXorator);
  auto doc = xml::ParseDocument("<NOTPLAY/>");
  ASSERT_TRUE(doc.ok());
  Shredder shredder(&schema_, false);
  RowBatch batch;
  EXPECT_FALSE(shredder.Shred(*doc->root, &batch).ok());
}

TEST(SigmodShredTest, DeepInlinedPathsAndAttributes) {
  auto schema = MapDtd(datagen::kSigmodDtd, Mapping::kHybrid);
  ASSERT_TRUE(schema.ok());
  const char* kDoc =
      "<PP><volume>11</volume><number>2</number><month>6</month>"
      "<year>1999</year><conference>SIGMOD</conference>"
      "<date>1/6/1999</date><confyear>1999</confyear>"
      "<location>Philadelphia</location><sList>"
      "<sListTuple><sectionName SectionPosition='1'>Joins</sectionName>"
      "<articles><aTuple><title articleCode='a1'>Join Order</title>"
      "<authors><author AuthorPosition='1'>Alice</author>"
      "<author AuthorPosition='2'>Bob</author></authors>"
      "<initPage>1</initPage><endPage>12</endPage>"
      "<Toindex><index href='x.xml'>terms</index></Toindex>"
      "<fullText><size href='y.pdf'>120KB</size></fullText>"
      "</aTuple></articles></sListTuple></sList></PP>";
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Shredder shredder(&*schema, false);
  RowBatch batch;
  ASSERT_TRUE(shredder.Shred(*doc->root, &batch).ok());
  const mapping::TableSpec* atuple = schema->FindTable("atuple");
  const Tuple& at = batch["atuple"][0];
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_title")].AsString(), "Join Order");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_title_articlecode")].AsString(),
            "a1");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_toindex_index")].AsString(),
            "terms");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_toindex_index_href")].AsString(),
            "x.xml");
  EXPECT_EQ(at[atuple->ColumnIndex("atuple_fulltext_size_href")].AsString(),
            "y.pdf");
  const mapping::TableSpec* author = schema->FindTable("author");
  ASSERT_EQ(batch["author"].size(), 2u);
  EXPECT_EQ(
      batch["author"][1][author->ColumnIndex("author_authorposition")]
          .AsString(),
      "2");
  EXPECT_EQ(batch["author"][1][author->ColumnIndex("author_childOrder")]
                .AsInt(),
            2);
}

TEST(LoaderTest, LoadsAndDecidesCompression) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto db = ordb::Database::Open({});
  ASSERT_TRUE(db.ok());
  Loader loader(db->get(), &*schema);
  ASSERT_TRUE(loader.CreateTables().ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  std::vector<const xml::Node*> docs(8, doc->root.get());
  auto report = loader.Load(docs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->documents, 8u);
  EXPECT_GT(report->tuples, 40u);
  auto r = (*db)->Query("SELECT COUNT(*) AS n FROM speech");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 24);
}

TEST(LoaderTest, LaterLoadsContinueEveryTablesIds) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kHybrid);
  ASSERT_TRUE(schema.ok());
  auto opened = ordb::Database::Open({});
  ASSERT_TRUE(opened.ok());
  ordb::Database* db = opened->get();
  Loader loader(db, &*schema);
  ASSERT_TRUE(loader.CreateTables().ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  for (int batch = 0; batch < 2; ++batch) {
    auto report = loader.Load({doc->root.get()});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->documents, 1u);
  }

  // Every table's ids stay unique across the two batches.
  for (const mapping::TableSpec& table : schema->tables) {
    std::string id_col;
    for (const mapping::ColumnSpec& col : table.columns) {
      if (col.role == mapping::ColumnRole::kId) id_col = col.name;
    }
    ASSERT_FALSE(id_col.empty()) << table.name;
    auto ids = db->Query("SELECT " + id_col + " FROM " + table.name);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    std::set<int64_t> distinct;
    for (const Tuple& row : ids->rows) distinct.insert(row[0].AsInt());
    EXPECT_EQ(distinct.size(), ids->rows.size()) << table.name;
  }

  // Each document has two speeches inside scenes, so the parent/child join
  // matches two rows per batch, not a cross-batch product.
  const std::string scene_speeches =
      "SELECT COUNT(*) AS n FROM scene, speech WHERE speech_parentID = "
      "sceneID AND speech_parentCODE = 'SCENE'";
  auto joined = db->Query(scene_speeches);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->rows[0][0].AsInt(), 4);

  // Ids continue past the largest stored id, which a DELETE leaves above
  // the row count.
  ASSERT_TRUE(db->Execute("DELETE FROM play WHERE playID = 1").ok());
  auto report = loader.Load({doc->root.get()});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto plays = db->Query("SELECT playID FROM play");
  ASSERT_TRUE(plays.ok()) << plays.status().ToString();
  std::set<int64_t> play_ids;
  for (const Tuple& row : plays->rows) play_ids.insert(row[0].AsInt());
  EXPECT_EQ(play_ids, (std::set<int64_t>{2, 3}));
}

TEST(LoaderTest, ForcedCompressionModes) {
  auto schema = MapDtd(datagen::kPlaysDtd, Mapping::kXorator);
  ASSERT_TRUE(schema.ok());
  auto doc = xml::ParseDocument(kPlayDoc);
  ASSERT_TRUE(doc.ok());
  for (bool compressed : {false, true}) {
    auto db = ordb::Database::Open({});
    ASSERT_TRUE(db.ok());
    Loader loader(db->get(), &*schema);
    ASSERT_TRUE(loader.CreateTables().ok());
    LoadOptions opts;
    opts.force_compression = compressed;
    opts.force_raw = !compressed;
    auto report = loader.Load({doc->root.get()}, opts);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->used_compression, compressed);
  }
}

}  // namespace
}  // namespace xorator::shred
