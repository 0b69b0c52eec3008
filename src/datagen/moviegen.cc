#include "datagen/moviegen.h"

#include <algorithm>
#include <cmath>

#include "index/catalog.h"

namespace qp::datagen {

using storage::Column;
using storage::Database;
using storage::DataType;
using storage::Row;
using storage::Table;
using storage::TableSchema;
using storage::Value;

MovieGenConfig MovieGenConfig::PaperScale() {
  MovieGenConfig c;
  c.num_movies = 340000;
  c.num_directors = 25000;
  c.num_actors = 120000;
  c.num_theatres = 800;
  c.plays_per_theatre = 60;
  return c;
}

MovieGenConfig MovieGenConfig::TestScale() {
  MovieGenConfig c;
  c.num_movies = 400;
  c.num_directors = 40;
  c.num_actors = 150;
  c.num_theatres = 12;
  c.plays_per_theatre = 15;
  return c;
}

const std::vector<std::string>& GenreNames() {
  static const std::vector<std::string> kGenres = {
      "drama",     "comedy",  "thriller",  "action",   "romance",
      "horror",    "sci-fi",  "adventure", "crime",    "documentary",
      "animation", "musical", "fantasy",   "mystery",  "war",
      "western",   "family",  "biography",
  };
  return kGenres;
}

const std::vector<std::string>& RegionNames() {
  static const std::vector<std::string> kRegions = {
      "downtown", "north", "south", "east", "west", "suburbs",
  };
  return kRegions;
}

Status CreateMovieSchema(Database* db) {
  auto create = [db](const char* name, std::vector<Column> cols,
                     std::vector<std::string> pk) -> Status {
    QP_ASSIGN_OR_RETURN(Table * t,
                        db->CreateTable(TableSchema(name, std::move(cols),
                                                    std::move(pk))));
    (void)t;
    return Status::OK();
  };
  QP_RETURN_IF_ERROR(create("theatre",
                            {{"tid", DataType::kInt},
                             {"name", DataType::kString},
                             {"phone", DataType::kString},
                             {"region", DataType::kString},
                             {"ticket", DataType::kDouble}},
                            {"tid"}));
  QP_RETURN_IF_ERROR(create("play",
                            {{"tid", DataType::kInt},
                             {"mid", DataType::kInt},
                             {"date", DataType::kString}},
                            {}));
  QP_RETURN_IF_ERROR(create("genre",
                            {{"mid", DataType::kInt},
                             {"genre", DataType::kString}},
                            {}));
  QP_RETURN_IF_ERROR(create("movie",
                            {{"mid", DataType::kInt},
                             {"title", DataType::kString},
                             {"year", DataType::kInt},
                             {"duration", DataType::kInt}},
                            {"mid"}));
  QP_RETURN_IF_ERROR(create("cast",
                            {{"mid", DataType::kInt},
                             {"aid", DataType::kInt},
                             {"award", DataType::kString},
                             {"role", DataType::kString}},
                            {}));
  QP_RETURN_IF_ERROR(create("actor",
                            {{"aid", DataType::kInt},
                             {"name", DataType::kString}},
                            {"aid"}));
  QP_RETURN_IF_ERROR(create("directed",
                            {{"mid", DataType::kInt},
                             {"did", DataType::kInt}},
                            {}));
  QP_RETURN_IF_ERROR(create("director",
                            {{"did", DataType::kInt},
                             {"name", DataType::kString}},
                            {"did"}));

  auto link = [db](const char* a, const char* b) -> Status {
    QP_ASSIGN_OR_RETURN(storage::AttributeRef left,
                        storage::AttributeRef::Parse(a));
    QP_ASSIGN_OR_RETURN(storage::AttributeRef right,
                        storage::AttributeRef::Parse(b));
    return db->AddJoinLink(left, right);
  };
  QP_RETURN_IF_ERROR(link("theatre.tid", "play.tid"));
  QP_RETURN_IF_ERROR(link("play.mid", "movie.mid"));
  QP_RETURN_IF_ERROR(link("movie.mid", "genre.mid"));
  QP_RETURN_IF_ERROR(link("movie.mid", "cast.mid"));
  QP_RETURN_IF_ERROR(link("cast.aid", "actor.aid"));
  QP_RETURN_IF_ERROR(link("movie.mid", "directed.mid"));
  QP_RETURN_IF_ERROR(link("directed.did", "director.did"));
  return Status::OK();
}

Status CreateDefaultMovieIndexes(Database* db) {
  using index::IndexKind;
  // Hash indexes on every join/PK column the schema's join links touch.
  static constexpr const char* kHashColumns[][2] = {
      {"theatre", "tid"},  {"play", "tid"},     {"play", "mid"},
      {"movie", "mid"},    {"genre", "mid"},    {"cast", "mid"},
      {"cast", "aid"},     {"actor", "aid"},    {"directed", "mid"},
      {"directed", "did"}, {"director", "did"},
  };
  for (const auto& [table, column] : kHashColumns) {
    QP_RETURN_IF_ERROR(db->CreateIndex(table, column, IndexKind::kHash));
  }
  // Sorted runs on the columns range predicates commonly target.
  static constexpr const char* kRangeColumns[][2] = {
      {"movie", "year"}, {"movie", "duration"}, {"theatre", "ticket"},
  };
  for (const auto& [table, column] : kRangeColumns) {
    QP_RETURN_IF_ERROR(db->CreateIndex(table, column, IndexKind::kBTree));
  }
  return Status::OK();
}

namespace {

std::string SyntheticName(const char* prefix, size_t i) {
  return std::string(prefix) + " " + std::to_string(i);
}

}  // namespace

Result<Database> GenerateMovieDatabase(const MovieGenConfig& config) {
  Database db;
  QP_RETURN_IF_ERROR(CreateMovieSchema(&db));
  Rng rng(config.seed);

  const auto& genres = GenreNames();
  const size_t n_genres = std::min(config.num_genres, genres.size());
  ZipfDistribution genre_zipf(n_genres, config.zipf_skew);
  ZipfDistribution director_zipf(config.num_directors, config.zipf_skew);
  ZipfDistribution actor_zipf(config.num_actors, config.zipf_skew);

  QP_ASSIGN_OR_RETURN(Table * movie, db.GetTable("movie"));
  QP_ASSIGN_OR_RETURN(Table * genre, db.GetTable("genre"));
  QP_ASSIGN_OR_RETURN(Table * cast, db.GetTable("cast"));
  QP_ASSIGN_OR_RETURN(Table * actor, db.GetTable("actor"));
  QP_ASSIGN_OR_RETURN(Table * directed, db.GetTable("directed"));
  QP_ASSIGN_OR_RETURN(Table * director, db.GetTable("director"));
  QP_ASSIGN_OR_RETURN(Table * theatre, db.GetTable("theatre"));
  QP_ASSIGN_OR_RETURN(Table * play, db.GetTable("play"));

  for (size_t d = 1; d <= config.num_directors; ++d) {
    director->AppendUnchecked(
        {Value(static_cast<int64_t>(d)), Value(SyntheticName("Director", d))});
  }
  for (size_t a = 1; a <= config.num_actors; ++a) {
    actor->AppendUnchecked(
        {Value(static_cast<int64_t>(a)), Value(SyntheticName("Actor", a))});
  }

  static const char* kAwards[] = {"", "", "", "", "oscar", "bafta", "palme"};
  static const char* kRoles[] = {"lead", "support", "cameo"};

  for (size_t m = 1; m <= config.num_movies; ++m) {
    const int64_t mid = static_cast<int64_t>(m);
    // Durations cluster around 90-120 minutes (triangular-ish by averaging).
    const int64_t duration =
        (rng.UniformInt(config.min_duration, config.max_duration) +
         rng.UniformInt(config.min_duration, config.max_duration)) /
        2;
    movie->AppendUnchecked({Value(mid), Value(SyntheticName("Movie", m)),
                            Value(rng.UniformInt(config.min_year,
                                                 config.max_year)),
                            Value(duration)});
    // Genres: distinct Zipf picks.
    const size_t n = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(config.max_genres_per_movie)));
    std::vector<size_t> picked;
    for (size_t g = 0; g < n; ++g) {
      const size_t rank = genre_zipf.Sample(rng);
      if (std::find(picked.begin(), picked.end(), rank) != picked.end()) {
        continue;
      }
      picked.push_back(rank);
      genre->AppendUnchecked({Value(mid), Value(genres[rank - 1])});
    }
    directed->AppendUnchecked(
        {Value(mid),
         Value(static_cast<int64_t>(director_zipf.Sample(rng)))});
    const size_t n_cast = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(config.min_cast),
                       static_cast<int64_t>(config.max_cast)));
    for (size_t c = 0; c < n_cast; ++c) {
      cast->AppendUnchecked(
          {Value(mid), Value(static_cast<int64_t>(actor_zipf.Sample(rng))),
           Value(kAwards[rng.Index(std::size(kAwards))]),
           Value(kRoles[rng.Index(std::size(kRoles))])});
    }
  }

  const auto& regions = RegionNames();
  ZipfDistribution region_zipf(regions.size(), 0.8);
  for (size_t t = 1; t <= config.num_theatres; ++t) {
    const int64_t tid = static_cast<int64_t>(t);
    theatre->AppendUnchecked(
        {Value(tid), Value(SyntheticName("Theatre", t)),
         Value("555-" + std::to_string(1000 + t)),
         Value(regions[region_zipf.Sample(rng) - 1]),
         Value(std::round(rng.UniformDouble(config.min_ticket,
                                            config.max_ticket) * 2.0) / 2.0)});
    for (size_t p = 0; p < config.plays_per_theatre; ++p) {
      const int64_t mid =
          rng.UniformInt(1, static_cast<int64_t>(config.num_movies));
      play->AppendUnchecked(
          {Value(tid), Value(mid),
           Value("2004-" + std::to_string(rng.UniformInt(1, 12)) + "-" +
                 std::to_string(rng.UniformInt(1, 28)))});
    }
  }
  if (config.default_indexes) {
    QP_RETURN_IF_ERROR(CreateDefaultMovieIndexes(&db));
  }
  return db;
}

}  // namespace qp::datagen
