// Randomized differential churn harness — the correctness spine of
// incremental invalidation. For each seed it generates a mutation script
// (interleaved preference adds / removes / doi updates / join edits /
// ranking swaps) and replays it against TWO servers:
//   - the INCREMENTAL session, which keeps its state across mutations and
//     repairs it from the profile's mutation journal;
//   - a COLD control, whose session is closed and reopened from the current
//     profile before every batch, so every artifact is rebuilt from
//     scratch.
// After every mutation, for every query/options combo, the two must agree
// byte for byte: answers and ExecStats counters (SameAnswerPayload) and the
// query log's answer-identity projection (AnswerIdentityString — the
// deterministic fields minus the cache-outcome fields, which legitimately
// differ between a repairing and a rebuilding server). The whole replay
// runs at 1, 2 and 8 threads, and the incremental session's FULL
// DeterministicString stream must be identical across the three — the
// repo-wide determinism contract extended to churn.
//
// Counters prove the incremental path actually engaged: every mutation
// step must be a graph REPAIR (journal hit), never a wholesale rebuild.
//
// Seed range: QP_CHURN_SEED_START / QP_CHURN_SEED_COUNT (defaults 0 / 100)
// let CI shard the space; the acceptance bar is >= 100 sequences total.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "qp.h"

namespace qp::serve {
namespace {

using core::CombinationStyle;
using core::DoiPair;
using core::PersonalizeOptions;
using core::RankingFunction;
using core::SameAnswerPayload;
using core::UserProfile;
using sql::BinaryOp;
using storage::Value;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// splitmix64 — deterministic, seedable, no libc rand state.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
};

DoiPair RandomDoi(Rng& rng) {
  // Nonzero degrees in [-0.95, -0.15] u [0.15, 0.95], one decimal step —
  // never indifferent, so AddSelection/UpdateSelectionDoi always accept.
  const double magnitude = 0.15 + 0.1 * static_cast<double>(rng.Below(9));
  const double degree = rng.Below(4) == 0 ? -magnitude : magnitude;
  return *DoiPair::Exact(degree, 0);
}

Status AddRandomSelection(UserProfile& profile, Rng& rng) {
  // Candidate pool over the generated movie schema. A duplicate condition
  // is rejected by AddSelection; retry a few times, then no-op.
  for (int attempt = 0; attempt < 4; ++attempt) {
    Status status = Status::OK();
    switch (rng.Below(5)) {
      case 0:
        status = profile.AddSelection(
            "movie.year", BinaryOp::kGe,
            Value(int64_t{1950} + static_cast<int64_t>(rng.Below(12)) * 5),
            RandomDoi(rng));
        break;
      case 1:
        status = profile.AddSelection(
            "movie.year", BinaryOp::kLt,
            Value(int64_t{1960} + static_cast<int64_t>(rng.Below(10)) * 5),
            RandomDoi(rng));
        break;
      case 2:
        status = profile.AddSelection(
            "movie.duration", BinaryOp::kLe,
            Value(int64_t{80} + static_cast<int64_t>(rng.Below(11)) * 10),
            RandomDoi(rng));
        break;
      case 3: {
        static const char* kGenres[] = {"comedy", "drama", "action",
                                        "thriller"};
        status = profile.AddSelection("genre.genre", BinaryOp::kEq,
                                      Value(kGenres[rng.Below(4)]),
                                      RandomDoi(rng));
        break;
      }
      default:
        status = profile.AddSelection(
            "theatre.ticket", BinaryOp::kLt,
            Value(5.0 + static_cast<double>(rng.Below(10))), RandomDoi(rng));
        break;
    }
    if (status.ok()) return status;
  }
  return Status::OK();  // pool exhausted this round: skip the step
}

Status AddRandomJoin(UserProfile& profile, Rng& rng) {
  // Reverse edges of the generator's join skeleton (all schema-valid).
  static const std::pair<const char*, const char*> kEdges[] = {
      {"directed.mid", "movie.mid"}, {"director.did", "directed.did"},
      {"genre.mid", "movie.mid"},    {"cast.mid", "movie.mid"},
      {"actor.aid", "cast.aid"},
  };
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto& edge = kEdges[rng.Below(5)];
    const double degree = 0.3 + 0.1 * static_cast<double>(rng.Below(7));
    Status status = profile.AddJoin(edge.first, edge.second, degree);
    if (status.ok()) return status;
  }
  return Status::OK();
}

/// Applies one random, always-valid mutation to `profile`. Deterministic in
/// (rng state, profile state), so replays across thread counts see the
/// exact same script.
Status ApplyRandomMutation(UserProfile& profile, Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
    case 1:
    case 2:
      return AddRandomSelection(profile, rng);
    case 3: {  // remove a random selection
      if (profile.selections().empty()) return AddRandomSelection(profile, rng);
      const auto& victim =
          profile.selections()[rng.Below(profile.selections().size())];
      return profile.RemoveSelection(victim.condition);
    }
    case 4:
    case 5:
    case 6: {  // doi drift on an existing preference
      if (profile.selections().empty()) return AddRandomSelection(profile, rng);
      const auto& target =
          profile.selections()[rng.Below(profile.selections().size())];
      return profile.UpdateSelectionDoi(target.condition, RandomDoi(rng));
    }
    case 7:
      return AddRandomJoin(profile, rng);
    case 8: {  // remove a random join
      if (profile.joins().empty()) return AddRandomJoin(profile, rng);
      const auto& victim = profile.joins()[rng.Below(profile.joins().size())];
      return profile.RemoveJoin(victim.from, victim.to);
    }
    default: {  // ranking philosophy swap
      static const CombinationStyle kStyles[] = {CombinationStyle::kDominant,
                                                 CombinationStyle::kReserved,
                                                 CombinationStyle::kInflationary};
      profile.set_preferred_ranking(RankingFunction::Make(kStyles[rng.Below(3)]));
      return Status::OK();
    }
  }
}

datagen::ProfileGenConfig ChurnConfig(uint64_t seed) {
  datagen::ProfileGenConfig config;
  config.seed = seed;
  config.num_presence = 3;
  config.num_negative = 1;
  config.num_absence_11 = 1;
  config.num_elastic = 1;
  config.db_config.num_movies = 40;
  config.db_config.num_directors = 10;
  config.db_config.num_actors = 20;
  config.db_config.num_theatres = 4;
  config.db_config.plays_per_theatre = 4;
  return config;
}

struct Combo {
  std::string sql;
  PersonalizeOptions options;
};

std::vector<Combo> Combos() {
  std::vector<Combo> combos(3);
  combos[0].sql = "select mid, title from movie";
  combos[0].options.k = 5;
  combos[0].options.l = 1;
  combos[1].sql = "select mid, title, year from movie";
  combos[1].options.k = 0;  // all related preferences: mutations always show
  combos[1].options.l = 1;
  combos[1].options.use_profile_ranking = true;
  combos[2].sql = "select mid, title from movie";
  combos[2].options.k = 4;
  combos[2].options.l = 1;
  combos[2].options.target_doi = 0.5;  // doi-target selection path
  return combos;
}

constexpr size_t kSteps = 8;

TEST(ChurnDifferentialTest, IncrementalMatchesColdRebuildAcrossThreads) {
  const uint64_t seed_start = EnvU64("QP_CHURN_SEED_START", 0);
  const uint64_t seed_count = EnvU64("QP_CHURN_SEED_COUNT", 100);
  const std::vector<Combo> combos = Combos();

  for (uint64_t seed = seed_start; seed < seed_start + seed_count; ++seed) {
    const auto config = ChurnConfig(seed);
    auto db = datagen::GenerateMovieDatabase(config.db_config);
    ASSERT_TRUE(db.ok());
    auto profile = datagen::GenerateProfile(config);
    ASSERT_TRUE(profile.ok()) << profile.status();

    std::vector<std::string> per_thread_log;
    for (size_t num_threads : {1u, 2u, 8u}) {
      ServingContext::Options ctx_opts;
      ctx_opts.num_threads = num_threads;
      ServingContext inc_ctx(&*db, ctx_opts);
      ServingContext cold_ctx(&*db, ctx_opts);
      auto inc = inc_ctx.OpenSession("churn", *profile);
      ASSERT_TRUE(inc.ok()) << inc.status();

      // Reseeded per thread count, so every replay runs the same script.
      Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x1234567ull};
      for (size_t step = 0; step <= kSteps; ++step) {
        if (step > 0) {
          const uint64_t before_epoch = (*inc)->profile().epoch();
          Status mutated = (*inc)->Mutate([&](UserProfile& live) {
            return ApplyRandomMutation(live, rng);
          });
          ASSERT_TRUE(mutated.ok())
              << "seed=" << seed << " step=" << step << ": " << mutated;
          if (std::getenv("QP_CHURN_DEBUG") != nullptr) {
            auto delta = (*inc)->profile().MutationsSince(before_epoch);
            std::fprintf(stderr, "seed=%llu step=%zu:\n",
                         static_cast<unsigned long long>(seed), step);
            if (delta.has_value()) {
              for (const auto& m : *delta) {
                std::fprintf(stderr, "  %s\n", m.ToString().c_str());
              }
            }
          }
        }
        // Cold control: a fresh session over the CURRENT profile — every
        // artifact rebuilt from scratch, nothing carried over.
        if (step > 0) {
          ASSERT_TRUE(cold_ctx.CloseSession("churn").ok());
        }
        auto cold = cold_ctx.OpenSession("churn", (*inc)->profile());
        ASSERT_TRUE(cold.ok()) << cold.status();

        for (size_t c = 0; c < combos.size(); ++c) {
          auto warm = (*inc)->Personalize(combos[c].sql, combos[c].options);
          auto fresh = (*cold)->Personalize(combos[c].sql, combos[c].options);
          ASSERT_EQ(warm.ok(), fresh.ok())
              << "seed=" << seed << " threads=" << num_threads
              << " step=" << step << " combo=" << c << " incremental: "
              << warm.status() << " cold: " << fresh.status();
          if (warm.ok()) {
            EXPECT_TRUE(SameAnswerPayload(*warm, *fresh))
                << "seed=" << seed << " threads=" << num_threads
                << " step=" << step << " combo=" << c;
            if (!SameAnswerPayload(*warm, *fresh) &&
                std::getenv("QP_CHURN_DEBUG") != nullptr) {
              std::fprintf(stderr, "warm prefs:\n");
              for (const auto& p : warm->preferences) {
                std::fprintf(stderr, "  %s\n", p.pref.ToString().c_str());
              }
              std::fprintf(stderr, "fresh prefs:\n");
              for (const auto& p : fresh->preferences) {
                std::fprintf(stderr, "  %s\n", p.pref.ToString().c_str());
              }
            }
          } else {
            EXPECT_EQ(warm.status().code(), fresh.status().code());
          }
        }
      }

      // The incremental server must have REPAIRED its way through the
      // script: one cold build, every mutation a journal hit.
      const ServeCounters c = inc_ctx.counters();
      EXPECT_EQ(c.graph_builds, 1u) << "seed=" << seed;
      EXPECT_EQ(c.graph_repairs, kSteps) << "seed=" << seed;
      EXPECT_EQ(c.wholesale_rebuilds, 0u) << "seed=" << seed;

      // Query-log projections: the answer-identity view must agree between
      // the repairing and the rebuilding server, record for record.
      const auto inc_records = inc_ctx.query_log()->Snapshot();
      const auto cold_records = cold_ctx.query_log()->Snapshot();
      ASSERT_EQ(inc_records.size(), cold_records.size());
      std::string identity, cold_identity, deterministic;
      for (size_t i = 0; i < inc_records.size(); ++i) {
        identity += inc_records[i].AnswerIdentityString() + "\n";
        cold_identity += cold_records[i].AnswerIdentityString() + "\n";
        deterministic += inc_records[i].DeterministicString() + "\n";
      }
      EXPECT_EQ(identity, cold_identity)
          << "seed=" << seed << " threads=" << num_threads;
      per_thread_log.push_back(std::move(deterministic));
    }

    // The determinism contract under churn: the incremental session's full
    // deterministic log — cache outcomes included — is byte-identical at
    // every thread count.
    ASSERT_EQ(per_thread_log.size(), 3u);
    EXPECT_EQ(per_thread_log[0], per_thread_log[1]) << "seed=" << seed;
    EXPECT_EQ(per_thread_log[0], per_thread_log[2]) << "seed=" << seed;
  }
}

TEST(ChurnDifferentialTest, JournalGapFallsBackToWholesaleRebuild) {
  const auto config = ChurnConfig(7);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto session = ctx.OpenSession("gap", *profile);
  ASSERT_TRUE(session.ok());
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  const std::string sql = "select mid, title from movie";
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());

  // More mutations than the journal retains: the delta is unrecoverable
  // and the next call must pay a wholesale rebuild — and still match cold.
  Rng rng{0xfeedull};
  Status churned = (*session)->Mutate([&](UserProfile& live) {
    for (size_t i = 0; i < UserProfile::kJournalCapacity + 8; ++i) {
      QP_RETURN_IF_ERROR(ApplyRandomMutation(live, rng));
    }
    return Status::OK();
  });
  ASSERT_TRUE(churned.ok()) << churned;

  auto warm = (*session)->Personalize(sql, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  const ServeCounters c = ctx.counters();
  EXPECT_EQ(c.wholesale_rebuilds, 1u);
  EXPECT_EQ(c.graph_repairs, 0u);
  EXPECT_EQ(c.graph_builds, 2u);

  core::UserProfile now = (*session)->profile();
  auto personalizer = core::Personalizer::Make(&*db, &now);
  ASSERT_TRUE(personalizer.ok());
  auto cold = personalizer->Personalize(sql, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_TRUE(SameAnswerPayload(*cold, *warm));
}

TEST(ChurnDifferentialTest, WholesaleProfileReplacementIsBeyondRepair) {
  const auto config = ChurnConfig(9);
  auto db = datagen::GenerateMovieDatabase(config.db_config);
  ASSERT_TRUE(db.ok());
  auto profile = datagen::GenerateProfile(config);
  ASSERT_TRUE(profile.ok());

  ServingContext ctx(&*db);
  auto session = ctx.OpenSession("swap", *profile);
  ASSERT_TRUE(session.ok());
  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  const std::string sql = "select mid, title from movie";
  ASSERT_TRUE((*session)->Personalize(sql, options).ok());

  // Replacing the profile object wholesale changes the lineage: its journal
  // describes a DIFFERENT history, so repair must refuse even though the
  // epochs look comparable.
  auto other = datagen::GenerateProfile(ChurnConfig(10));
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*session)
                  ->Mutate([&](core::UserProfile& live) {
                    live = *other;
                    return Status::OK();
                  })
                  .ok());
  auto warm = (*session)->Personalize(sql, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  const ServeCounters c = ctx.counters();
  EXPECT_EQ(c.graph_repairs, 0u);
  EXPECT_EQ(c.wholesale_rebuilds, 1u);

  core::UserProfile now = (*session)->profile();
  auto personalizer = core::Personalizer::Make(&*db, &now);
  ASSERT_TRUE(personalizer.ok());
  auto cold = personalizer->Personalize(sql, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(SameAnswerPayload(*cold, *warm));
}

}  // namespace
}  // namespace qp::serve
