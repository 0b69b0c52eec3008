// Prometheus text-exposition conformance for obs::MetricsRegistry, checked
// with an in-test parser rather than substring spot-checks: every family
// gets exactly one "# TYPE" block of the right type with all of its series
// inside it, label values round-trip through escaping, histogram buckets
// are cumulative and end at +Inf, and the `__other__` cardinality-overflow
// series absorbs new series past the cap. The final test drives the full
// serving stack (session + scheduler + indexes) and pins that every metric
// family this phase added appears in BOTH the text and the JSON exposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "qp.h"
#include "test_support.h"

namespace qp {
namespace {

using test::SmallConfig;

// ---------------------------------------------------------------------------
// A small, strict parser for the Prometheus text format.

struct Sample {
  std::string name;  ///< series name including any _bucket/_sum/_count suffix
  std::map<std::string, std::string> labels;  ///< values UNescaped
  double value = 0.0;
};

struct Exposition {
  /// base -> declared type; populated from "# TYPE" lines.
  std::map<std::string, std::string> types;
  /// base -> number of "# TYPE" lines seen (conformance: must be 1).
  std::map<std::string, int> type_line_count;
  std::vector<Sample> samples;
  bool parse_error = false;
  std::string error;
};

/// Unescapes a label value: \\ -> backslash, \" -> quote, \n -> newline.
std::string Unescape(const std::string& escaped) {
  std::string out;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      const char next = escaped[++i];
      if (next == 'n') {
        out += '\n';
      } else {
        out += next;  // \\ and \"
      }
    } else {
      out += escaped[i];
    }
  }
  return out;
}

Exposition Parse(const std::string& text) {
  Exposition out;
  const auto fail = [&out](const std::string& why, const std::string& line) {
    out.parse_error = true;
    if (out.error.empty()) out.error = why + ": " + line;
  };
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      fail("missing trailing newline", text.substr(pos));
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const size_t name_start = 7;
        const size_t space = line.find(' ', name_start);
        if (space == std::string::npos) {
          fail("malformed TYPE line", line);
          continue;
        }
        const std::string base = line.substr(name_start, space - name_start);
        out.types[base] = line.substr(space + 1);
        out.type_line_count[base]++;
      } else if (line.rfind("# HELP ", 0) != 0) {
        fail("unknown comment", line);
      }
      continue;
    }
    Sample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    sample.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;  // past '{'
      while (i < line.size() && line[i] != '}') {
        const size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          fail("malformed label", line);
          break;
        }
        const std::string key = line.substr(i, eq - i);
        std::string value;
        size_t j = eq + 2;  // past ="
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            value += line[j];
            value += line[j + 1];
            j += 2;
          } else {
            value += line[j];
            ++j;
          }
        }
        if (j >= line.size()) {
          fail("unterminated label value", line);
          break;
        }
        sample.labels[key] = Unescape(value);
        i = j + 1;  // past closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        fail("unterminated label set", line);
        continue;
      }
      ++i;  // past '}'
    }
    if (i >= line.size() || line[i] != ' ') {
      fail("missing value", line);
      continue;
    }
    sample.value = std::strtod(line.c_str() + i + 1, nullptr);
    out.samples.push_back(sample);
  }
  return out;
}

/// Strips _bucket/_sum/_count so histogram samples map back to their base.
std::string BaseOf(const std::string& series_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (series_name.size() > s.size() &&
        series_name.compare(series_name.size() - s.size(), s.size(), s) ==
            0) {
      return series_name.substr(0, series_name.size() - s.size());
    }
  }
  return series_name;
}

const Sample* Find(const Exposition& exposition, const std::string& name,
                   const std::map<std::string, std::string>& labels) {
  for (const Sample& s : exposition.samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Format conformance on a hand-built registry.

TEST(ExpositionTest, TypeLinesOncePerFamilyWithCorrectTypes) {
  obs::MetricsRegistry registry;
  registry.GetCounter("jobs_total", "jobs")->Increment();
  registry.GetCounter("jobs_total", {{"lane", "batch"}}, "jobs")->Increment(2);
  registry.GetGauge("depth", "queue depth")->Set(3.0);
  registry.GetHistogram("latency_seconds", {0.1, 1.0}, "latency")
      ->Observe(0.05);

  const Exposition exposition = Parse(registry.RenderText());
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  EXPECT_EQ(exposition.types.at("jobs_total"), "counter");
  EXPECT_EQ(exposition.types.at("depth"), "gauge");
  EXPECT_EQ(exposition.types.at("latency_seconds"), "histogram");
  for (const auto& [base, count] : exposition.type_line_count) {
    EXPECT_EQ(count, 1) << "family " << base << " declared TYPE twice";
  }
  // Every sample's family has a TYPE declaration.
  for (const Sample& sample : exposition.samples) {
    EXPECT_TRUE(exposition.types.count(BaseOf(sample.name)))
        << sample.name << " has no TYPE line";
  }
}

TEST(ExpositionTest, InterleavedRegistrationStillGroupsFamilies) {
  // Registration order interleaves the two bases (the SLO gauges register
  // attainment/burn for "1m", then again for "5m"); the exposition must
  // still emit each family as ONE block.
  obs::MetricsRegistry registry;
  for (const char* window : {"1m", "5m"}) {
    registry.GetGauge("slo_attainment", {{"window", window}}, "a")->Set(1.0);
    registry.GetGauge("slo_burn", {{"window", window}}, "b")->Set(0.0);
  }
  const std::string text = registry.RenderText();
  const Exposition exposition = Parse(text);
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  EXPECT_EQ(exposition.type_line_count.at("slo_attainment"), 1) << text;
  EXPECT_EQ(exposition.type_line_count.at("slo_burn"), 1) << text;
  // All of a family's series sit inside its block: sample order is grouped.
  std::vector<std::string> bases;
  for (const Sample& s : exposition.samples) {
    if (bases.empty() || bases.back() != s.name) bases.push_back(s.name);
  }
  EXPECT_EQ(bases, (std::vector<std::string>{"slo_attainment", "slo_burn"}));
  ASSERT_NE(Find(exposition, "slo_attainment", {{"window", "1m"}}), nullptr);
  ASSERT_NE(Find(exposition, "slo_attainment", {{"window", "5m"}}), nullptr);
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("h", {1.0, 2.0}, "h");
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(10.0);

  const Exposition exposition = Parse(registry.RenderText());
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  const Sample* le1 = Find(exposition, "h_bucket", {{"le", "1"}});
  const Sample* le2 = Find(exposition, "h_bucket", {{"le", "2"}});
  const Sample* inf = Find(exposition, "h_bucket", {{"le", "+Inf"}});
  ASSERT_NE(le1, nullptr);
  ASSERT_NE(le2, nullptr);
  ASSERT_NE(inf, nullptr);
  EXPECT_DOUBLE_EQ(le1->value, 1.0);
  EXPECT_DOUBLE_EQ(le2->value, 2.0);   // cumulative, not per-bucket
  EXPECT_DOUBLE_EQ(inf->value, 3.0);   // +Inf carries the total count
  const Sample* sum = Find(exposition, "h_sum", {});
  const Sample* count = Find(exposition, "h_count", {});
  ASSERT_NE(sum, nullptr);
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 12.0);
  EXPECT_DOUBLE_EQ(count->value, 3.0);
}

TEST(ExpositionTest, LabelValuesRoundTripThroughEscaping) {
  obs::MetricsRegistry registry;
  const std::string nasty = "C:\\temp\n\"quoted\"";
  registry.GetCounter("weird_total", {{"path", nasty}}, "w")->Increment(7);

  const std::string text = registry.RenderText();
  // The raw text holds the escaped spelling (no literal newline inside the
  // label value — that would split the sample line).
  EXPECT_NE(text.find("\\\\"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\\""), std::string::npos);

  const Exposition exposition = Parse(text);
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  const Sample* sample = Find(exposition, "weird_total", {{"path", nasty}});
  ASSERT_NE(sample, nullptr) << text;
  EXPECT_DOUBLE_EQ(sample->value, 7.0);
}

TEST(ExpositionTest, CardinalityOverflowReroutesToOtherSeries) {
  obs::MetricsRegistry registry;
  // Users a, u1, u2, ... fill the cap.
  registry.GetCounter("hits_total", {{"user", "a"}}, "h")->Increment(1);
  for (size_t i = 1; i < obs::MetricsRegistry::kLabelCardinalityLimit; ++i) {
    registry.GetCounter("hits_total", {{"user", "u" + std::to_string(i)}}, "h")
        ->Increment(2);
  }
  // Past the cap: both land on the __other__ overflow series.
  registry.GetCounter("hits_total", {{"user", "c"}}, "h")->Increment(4);
  registry.GetCounter("hits_total", {{"user", "d"}}, "h")->Increment(8);
  // An existing series keeps resolving to itself, even past the cap.
  registry.GetCounter("hits_total", {{"user", "a"}}, "h")->Increment(16);

  const Exposition exposition = Parse(registry.RenderText());
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  const Sample* a = Find(exposition, "hits_total", {{"user", "a"}});
  const Sample* overflow =
      Find(exposition, "hits_total", {{"user", "__other__"}});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(overflow, nullptr);
  EXPECT_DOUBLE_EQ(a->value, 17.0);
  EXPECT_DOUBLE_EQ(overflow->value, 12.0);  // no sample is ever dropped
  EXPECT_EQ(Find(exposition, "hits_total", {{"user", "c"}}), nullptr);
  // The last user under the cap kept its own series.
  const Sample* last = Find(
      exposition, "hits_total",
      {{"user", "u" + std::to_string(
                          obs::MetricsRegistry::kLabelCardinalityLimit - 1)}});
  ASSERT_NE(last, nullptr);
  EXPECT_DOUBLE_EQ(last->value, 2.0);
  EXPECT_EQ(exposition.type_line_count.at("hits_total"), 1);
}

// ---------------------------------------------------------------------------
// Full-stack family coverage: every family this phase added must appear in
// BOTH expositions after real traffic.

TEST(ExpositionTest, EveryNewFamilyAppearsInTextAndJson) {
  const datagen::ProfileGenConfig config = SmallConfig(11);
  auto built = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(built.ok()) << built.status();
  storage::Database db(std::move(built).value());
  ASSERT_TRUE(db.CreateIndex("genre", "genre", IndexKind::kHash).ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok()) << profile.status();

  serve::ServingContext ctx(&db);
  auto session = ctx.OpenSession("scrape_user", profile.value());
  ASSERT_TRUE(session.ok()) << session.status();
  core::PersonalizeOptions popts;
  popts.k = 4;
  popts.l = 1;
  auto answer =
      session.value()->Personalize("select mid, title from movie", popts);
  ASSERT_TRUE(answer.ok()) << answer.status();

  {
    serve::Scheduler scheduler(&ctx, {});
    serve::Request request;
    request.user_id = "scrape_user";
    request.intercept = [] { return Status::OK(); };
    auto handle = scheduler.Submit(std::move(request));
    ASSERT_TRUE(handle.ok());
    handle.value()->Wait();
    scheduler.Shutdown();
  }

  const std::string text = ctx.metrics()->RenderText();
  const std::string json = ctx.metrics()->RenderJson();
  const Exposition exposition = Parse(text);
  ASSERT_FALSE(exposition.parse_error) << exposition.error;
  for (const auto& [base, count] : exposition.type_line_count) {
    EXPECT_EQ(count, 1) << "family " << base << " declared TYPE twice";
  }

  const struct {
    const char* family;
    const char* type;
  } kFamilies[] = {
      // Session / process state (phase 3 gauges).
      {"qp_serve_sessions", "gauge"},
      {"qp_process_uptime_seconds", "gauge"},
      {"qp_process_resident_bytes", "gauge"},
      {"qp_process_virtual_bytes", "gauge"},
      {"qp_process_threads", "gauge"},
      // Windowed SLO engine.
      {"qp_slo_attainment_ratio", "gauge"},
      {"qp_slo_burn_rate", "gauge"},
      {"qp_slo_latency_p50_seconds", "gauge"},
      {"qp_slo_latency_p99_seconds", "gauge"},
      // Scheduler telemetry.
      {"qp_sched_queue_depth", "gauge"},
      {"qp_sched_queue_depth_at_enqueue", "histogram"},
      {"qp_sched_dispatched_total", "counter"},
      {"qp_sched_submitted_total", "counter"},
      {"qp_sched_shed_total", "counter"},
      // Index catalog + executor path choice.
      {"qp_index_builds_total", "counter"},
      {"qp_index_staleness_hits_total", "counter"},
      {"qp_index_path_total", "counter"},
      {"qp_index_rows_saved_total", "counter"},
      // Pre-existing serving counters must have survived the refactor.
      {"qp_serve_personalize_calls_total", "counter"},
  };
  for (const auto& family : kFamilies) {
    ASSERT_TRUE(exposition.types.count(family.family))
        << family.family << " missing from text exposition";
    EXPECT_EQ(exposition.types.at(family.family), family.type)
        << family.family;
    EXPECT_NE(json.find(family.family), std::string::npos)
        << family.family << " missing from JSON exposition";
  }

  // JSON shape: the three sections, in order.
  EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u);
  EXPECT_NE(json.find("},\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("},\"histograms\":{"), std::string::npos);

  // The executor recorded its per-kind path choices for this traffic.
  ASSERT_NE(Find(exposition, "qp_index_path_total", {{"kind", "scan"}}),
            nullptr);
  ASSERT_NE(Find(exposition, "qp_index_path_total", {{"kind", "probe"}}),
            nullptr);
  ASSERT_NE(Find(exposition, "qp_index_path_total", {{"kind", "range"}}),
            nullptr);
}

TEST(ExpositionTest, JsonEscapesControlBytesInSeriesNames) {
  // Session ids come from the API caller and name the per-user latency
  // series; RFC 8259 allows no raw byte below 0x20 in a JSON string.
  const datagen::ProfileGenConfig config = SmallConfig(11);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok()) << db.status();
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok()) << profile.status();
  serve::ServingContext ctx(&*db);
  ASSERT_TRUE(ctx.OpenSession("tab\tuser", *profile).ok());

  const std::string json = ctx.MetricsJson();
  EXPECT_NE(json.find("tab\\tuser"), std::string::npos) << json;
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << json;
}

}  // namespace
}  // namespace qp
