// Synthetic movie database on the paper's exact schema (Section 3):
//
//   THEATRE(tid, name, phone, region, ticket)
//   PLAY(tid, mid, date)          GENRE(mid, genre)
//   MOVIE(mid, title, year, duration)
//   CAST(mid, aid, award, role)   ACTOR(aid, name)
//   DIRECTED(mid, did)            DIRECTOR(did, name)
//
// Substitutes the paper's IMDb snapshot (~340k films): value distributions
// are Zipf-skewed (genres, directors, actors) so selectivities vary by
// orders of magnitude like real data, and every schema-level join link is
// declared so personalization graphs can traverse the full schema.

#pragma once

#include "common/random.h"
#include "common/status.h"
#include "storage/database.h"

namespace qp::datagen {

/// \brief Scale knobs for the generated database.
struct MovieGenConfig {
  uint64_t seed = 42;
  size_t num_movies = 10000;
  size_t num_directors = 800;
  size_t num_actors = 5000;
  size_t num_theatres = 150;
  size_t num_genres = 18;
  /// Genre labels per movie (1..max).
  size_t max_genres_per_movie = 3;
  /// Cast entries per movie.
  size_t min_cast = 2;
  size_t max_cast = 8;
  /// How many distinct movies each theatre currently plays.
  size_t plays_per_theatre = 40;
  /// Zipf skew for genre/director/actor popularity.
  double zipf_skew = 1.1;
  /// Movie year range.
  int64_t min_year = 1950;
  int64_t max_year = 2004;
  /// Duration range in minutes.
  int64_t min_duration = 60;
  int64_t max_duration = 220;
  /// Ticket price range in euros.
  double min_ticket = 4.0;
  double max_ticket = 12.0;
  /// Register the default secondary indexes (CreateDefaultMovieIndexes)
  /// on the generated database. On by default — the engine the paper
  /// measured always had its join/PK access structures — so every test,
  /// example and bench gets indexed probes; the scaling bench turns it
  /// off to measure the unindexed series.
  bool default_indexes = true;

  /// Paper-scale configuration (~340k movies), used by the timing benches
  /// when QP_FULL_SCALE is set.
  static MovieGenConfig PaperScale();
  /// Small configuration for unit tests.
  static MovieGenConfig TestScale();
};

/// The genre vocabulary (index 0 is the most popular under Zipf).
const std::vector<std::string>& GenreNames();

/// The theatre region vocabulary; "downtown" is the most common.
const std::vector<std::string>& RegionNames();

/// Creates the empty schema (tables + join links) in `db`.
Status CreateMovieSchema(storage::Database* db);

/// Registers the standard secondary indexes for the movie schema: hash
/// indexes on every primary-key / join column (movie.mid, cast.aid, ...)
/// and sorted runs on the range-predicate columns (movie.year,
/// movie.duration, theatre.ticket). Call after the schema exists; the
/// catalog rebuilds lazily, so this is cheap on an empty database.
Status CreateDefaultMovieIndexes(storage::Database* db);

/// Generates a full database according to `config`.
Result<storage::Database> GenerateMovieDatabase(const MovieGenConfig& config);

}  // namespace qp::datagen
