// Chrome trace-event export tests: TraceToChromeJson output must be valid
// JSON in the trace-event object form ({"displayTimeUnit","traceEvents"}),
// every "X" event must carry ph/ts/dur/pid/tid/name, parallel MakeSlots
// fan-outs must land on distinct synthetic tids starting at the same
// timestamp, and the span tree of a real executor query must render the
// same way. Runs under TSan/ASan via the `sanitizer` label.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "qp.h"
#include "sql/parser.h"

namespace qp::obs {
namespace {

// --- a minimal JSON validator (no third-party parser in the image) ---

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      SkipWs();
      if (!String()) return false;
      if (!Consume(':')) return false;
      if (!Value()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!Value()) return false;
    } while (Consume(','));
    return Consume(']');
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_])))
        digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string s(lit);
    if (text_.compare(pos_, s.size(), s) != 0) return false;
    pos_ += s.size();
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// The complete event carrying span `name`, as a substring (events are
/// emitted on one line each, flat except for the args object).
std::string EventFor(const std::string& json, const std::string& name) {
  const size_t name_pos = json.find("\"name\":\"" + name + "\"");
  EXPECT_NE(name_pos, std::string::npos) << "no event named " << name;
  if (name_pos == std::string::npos) return "";
  const size_t start = json.rfind('{', name_pos);
  size_t end = json.find('}', name_pos);
  if (end != std::string::npos && json.compare(end, 2, "}}") == 0) ++end;
  return json.substr(start, end - start + 1);
}

/// Extracts the numeric value of `field` from a flat event substring.
double FieldOf(const std::string& event, const std::string& field) {
  const size_t pos = event.find("\"" + field + "\":");
  EXPECT_NE(pos, std::string::npos) << field << " missing in " << event;
  if (pos == std::string::npos) return -1;
  return std::stod(event.substr(pos + field.size() + 3));
}

TEST(TraceExportTest, HandBuiltTreeProducesValidSchema) {
  TraceSpan root("query");
  root.set_seconds(0.004);
  TraceSpan* setup = root.AddChild("setup");
  setup->set_seconds(0.001);
  // A parallel fan-out: three slots in index order, tracks 1..3 (the
  // MakeSlots + Adopt convention used by the executor).
  auto slots = TraceSpan::MakeSlots(3);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].set_name("sub " + std::to_string(i));
    slots[i].set_seconds(0.001 * static_cast<double>(i + 1));
    TraceSpan* adopted = root.Adopt(std::move(slots[i]));
    adopted->set_track(i + 1);
  }
  TraceSpan* merge = root.AddChild("merge");
  merge->set_seconds(0.0005);

  const std::string json = TraceToChromeJson(root);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);

  // One process_name + four thread_names (main + three slots), and one
  // "X" complete event per span in the tree.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"M\""), 5u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), 6u);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slot 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slot 3\""), std::string::npos);

  // Slots sit on three distinct synthetic tids and all start at the
  // fan-out point; the serial children around them do not overlap it.
  const std::string s1 = EventFor(json, "sub 0");
  const std::string s2 = EventFor(json, "sub 1");
  const std::string s3 = EventFor(json, "sub 2");
  EXPECT_NE(FieldOf(s1, "tid"), FieldOf(s2, "tid"));
  EXPECT_NE(FieldOf(s2, "tid"), FieldOf(s3, "tid"));
  EXPECT_NE(FieldOf(s1, "tid"), FieldOf(s3, "tid"));
  EXPECT_DOUBLE_EQ(FieldOf(s1, "ts"), FieldOf(s2, "ts"));
  EXPECT_DOUBLE_EQ(FieldOf(s1, "ts"), FieldOf(s3, "ts"));

  const std::string setup_event = EventFor(json, "setup");
  const std::string merge_event = EventFor(json, "merge");
  // setup [0, 1000us) precedes the fan-out; merge starts after the
  // slowest slot (3000us) ends.
  EXPECT_DOUBLE_EQ(FieldOf(setup_event, "ts"), 0.0);
  EXPECT_DOUBLE_EQ(FieldOf(s1, "ts"), 1000.0);
  EXPECT_DOUBLE_EQ(FieldOf(merge_event, "ts"), 4000.0);
  // The root's duration covers its children's extent even though its own
  // recorded seconds (4ms) is smaller than the 4.5ms layout.
  const std::string root_event = EventFor(json, "query");
  EXPECT_GE(FieldOf(root_event, "dur"), 4500.0);

  // Every X event carries the required fields.
  for (const std::string* event :
       {&s1, &s2, &s3, &setup_event, &merge_event, &root_event}) {
    for (const char* field : {"ph", "ts", "dur", "pid", "tid", "name"}) {
      std::string needle = "\"";
      needle += field;
      needle += "\":";
      EXPECT_NE(event->find(needle), std::string::npos)
          << field << " missing in " << *event;
    }
  }
}

TEST(TraceExportTest, AttrsBecomeArgsAndStringsAreEscaped) {
  TraceSpan root("scan \"movie\"\n");
  root.set_seconds(0.001);
  root.AddAttr("rows", size_t{42});
  root.AddAttr("note", "a\\b");
  const std::string json = TraceToChromeJson(root);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"scan \\\"movie\\\"\\n\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"rows\":\"42\",\"note\":\"a\\\\b\"}"),
            std::string::npos);
}

TEST(TraceExportTest, ProcessNameOptionIsRespected) {
  TraceSpan root("r");
  ChromeTraceOptions options;
  options.process_name = "my-proc";
  const std::string json = TraceToChromeJson(root, options);
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"args\":{\"name\":\"my-proc\"}"), std::string::npos);
}

// --- end-to-end: real trace trees from the executor and a PPA run ---

storage::Database MakeDb() {
  datagen::MovieGenConfig config;
  config.num_movies = 80;
  config.num_directors = 15;
  config.num_actors = 40;
  config.num_theatres = 6;
  config.plays_per_theatre = 8;
  auto db = datagen::GenerateMovieDatabase(config);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(TraceExportTest, ExecutorTraceRendersAsValidChromeJson) {
  const storage::Database db = MakeDb();
  exec::Executor executor(&db);
  auto query = sql::ParseQuery(
      "select m.title from movie m, genre g where m.mid = g.mid "
      "and m.year >= 1990");
  ASSERT_TRUE(query.ok()) << query.status();
  TraceSpan root("query");
  auto rows = executor.Execute(**query, &root);
  ASSERT_TRUE(rows.ok()) << rows.status();
  const std::string json = TraceToChromeJson(root);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  // Per-operator attrs survive as args.
  EXPECT_NE(json.find("\"args\":{"), std::string::npos);
}

TEST(TraceExportTest, ParallelSubqueryFanOutLandsOnDistinctTids) {
  const storage::Database db = MakeDb();
  common::ThreadPool pool(4);
  exec::ExecOptions options;
  options.pool = &pool;
  exec::Executor executor(&db, nullptr, options);
  // Two independent IN subqueries -> a MakeSlots fan-out in the executor.
  auto query = sql::ParseQuery(
      "select title from movie where movie.mid in "
      "(select mid from genre where genre.genre = 'comedy') "
      "and movie.mid not in "
      "(select mid from genre where genre.genre = 'musical')");
  ASSERT_TRUE(query.ok()) << query.status();
  TraceSpan root("query");
  auto rows = executor.Execute(**query, &root);
  ASSERT_TRUE(rows.ok()) << rows.status();
  const std::string json = TraceToChromeJson(root);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // At least two slot tracks -> at least two synthetic thread_name events
  // beyond main.
  EXPECT_NE(json.find("\"name\":\"slot 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slot 2\""), std::string::npos);
}

TEST(TraceExportTest, PpaPersonalizeTraceExportsValidJson) {
  const storage::Database db = MakeDb();
  datagen::ProfileGenConfig pg;
  pg.seed = 11;
  pg.num_presence = 4;
  pg.num_negative = 2;
  pg.db_config.num_movies = 80;
  pg.db_config.num_directors = 15;
  pg.db_config.num_actors = 40;
  pg.db_config.num_theatres = 6;
  pg.db_config.plays_per_theatre = 8;
  auto profile = datagen::GenerateProfile(pg);
  ASSERT_TRUE(profile.ok()) << profile.status();
  auto personalizer = core::Personalizer::Make(&db, &*profile);
  ASSERT_TRUE(personalizer.ok());

  core::PersonalizeOptions popts;
  popts.k = 5;
  popts.l = 1;
  popts.algorithm = core::AnswerAlgorithm::kPpa;
  TraceSpan root("personalize");
  popts.trace = &root;
  auto answer =
      personalizer->Personalize("select mid, title from movie", popts);
  ASSERT_TRUE(answer.ok()) << answer.status();
  root.set_seconds(answer->stats.selection_seconds +
                   answer->stats.generation_seconds);

  const std::string json = TraceToChromeJson(root);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"personalize\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced object form: as many opens as closes.
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
}

}  // namespace
}  // namespace qp::obs
