// Tests for the paper's extension features: qualitative descriptors
// (Section 2), per-user ranking-function learning (Section 6.3) and
// context-derived K/L (Sections 1/7).

#include <gtest/gtest.h>

#include "core/context_policy.h"
#include "core/descriptor.h"
#include "core/learn_ranking.h"
#include "core/personalizer.h"
#include "datagen/moviegen.h"
#include "datagen/profilegen.h"
#include "sql/parser.h"

namespace qp::core {
namespace {

using sql::BinaryOp;
using storage::Value;

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

TEST(DescriptorTest, DefaultVocabulary) {
  const DescriptorRegistry registry = DescriptorRegistry::Default();
  auto best = registry.Lookup("best");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->lo, 0.85);
  EXPECT_EQ(best->hi, 1.0);
  EXPECT_TRUE(registry.Lookup("BEST").ok());  // case-insensitive
  EXPECT_FALSE(registry.Lookup("mediocre").ok());
  EXPECT_EQ(registry.Names().size(), 5u);
}

TEST(DescriptorTest, DefineValidation) {
  DescriptorRegistry registry;
  EXPECT_TRUE(registry.Define("ok", -0.5, 0.5).ok());
  EXPECT_FALSE(registry.Define("", 0, 1).ok());
  EXPECT_FALSE(registry.Define("bad", 0.5, 0.2).ok());
  EXPECT_FALSE(registry.Define("bad", -2, 0).ok());
  EXPECT_FALSE(registry.Define("bad", 0, 2).ok());
  // Redefinition overrides.
  EXPECT_TRUE(registry.Define("ok", 0.0, 0.1).ok());
  EXPECT_EQ(registry.Lookup("ok")->hi, 0.1);
}

TEST(DescriptorTest, DescribePicksNarrowestMatch) {
  const DescriptorRegistry registry = DescriptorRegistry::Default();
  // 0.9 is in best [0.85,1], good [0.6,1] and fair [0.3,1]: best is
  // narrowest.
  EXPECT_EQ(registry.Describe(0.9), "best");
  EXPECT_EQ(registry.Describe(0.7), "good");
  EXPECT_EQ(registry.Describe(0.1), "weak");
  EXPECT_EQ(registry.Describe(-0.4), "unwanted");
  EXPECT_EQ(DescriptorRegistry().Describe(0.5), "");
}

TEST(DescriptorTest, IntervalContains) {
  DoiInterval interval{0.3, 0.7};
  EXPECT_TRUE(interval.Contains(0.3));
  EXPECT_TRUE(interval.Contains(0.7));
  EXPECT_FALSE(interval.Contains(0.29));
  EXPECT_FALSE(interval.Contains(0.71));
}

TEST(DescriptorTest, PersonalizeWithDescriptorFiltersAnswers) {
  auto db = datagen::GenerateMovieDatabase(datagen::MovieGenConfig::TestScale());
  ASSERT_TRUE(db.ok());
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok());
  auto personalizer = Personalizer::Make(&*db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");
  ASSERT_TRUE(query.ok());

  PersonalizeOptions plain;
  plain.k = 5;
  plain.l = 1;
  auto unfiltered = personalizer->Personalize((*query)->single(), plain);
  ASSERT_TRUE(unfiltered.ok());

  PersonalizeOptions options = plain;
  options.descriptor = "good";
  auto good = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_LE(good->tuples.size(), unfiltered->tuples.size());
  for (const auto& t : good->tuples) {
    EXPECT_GE(t.doi, 0.6);
  }
  options.descriptor = "nonexistent";
  EXPECT_FALSE(personalizer->Personalize((*query)->single(), options).ok());
}

// ---------------------------------------------------------------------------
// Ranking-function learning
// ---------------------------------------------------------------------------

RankingFeedback Observe(const RankingFunction& latent,
                        std::vector<double> pos, std::vector<double> neg) {
  RankingFeedback f;
  f.reported_interest = latent.Rank(pos, neg);
  f.satisfied_degrees = std::move(pos);
  f.failed_degrees = std::move(neg);
  return f;
}

class LearnRankingTest
    : public ::testing::TestWithParam<std::pair<CombinationStyle, MixedStyle>> {
};

TEST_P(LearnRankingTest, RecoversTheLatentFunction) {
  const auto [style, mixed] = GetParam();
  const RankingFunction latent(style, style, mixed);
  RankingFunctionLearner learner;
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> pos, neg;
    const size_t np = static_cast<size_t>(rng.UniformInt(1, 5));
    const size_t nn = static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t j = 0; j < np; ++j) pos.push_back(rng.UniformDouble(0.05, 1));
    for (size_t j = 0; j < nn; ++j) neg.push_back(-rng.UniformDouble(0.05, 1));
    ASSERT_TRUE(learner.AddFeedback(Observe(latent, pos, neg)).ok());
  }
  auto best = learner.Best();
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->positive_style(), style);
  EXPECT_EQ(best->mixed_style(), mixed);
  auto fits = learner.Evaluate();
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->size(), 6u);
  EXPECT_NEAR(fits->front().mean_abs_error, 0.0, 1e-12);
  for (size_t i = 1; i < fits->size(); ++i) {
    EXPECT_GE((*fits)[i].mean_abs_error, (*fits)[i - 1].mean_abs_error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLatents, LearnRankingTest,
    ::testing::Values(
        std::pair{CombinationStyle::kInflationary, MixedStyle::kSum},
        std::pair{CombinationStyle::kInflationary,
                  MixedStyle::kCountWeighted},
        std::pair{CombinationStyle::kDominant, MixedStyle::kCountWeighted},
        std::pair{CombinationStyle::kReserved, MixedStyle::kCountWeighted}));

TEST(LearnRankingTest2, ValidatesInputs) {
  RankingFunctionLearner learner;
  EXPECT_FALSE(learner.AddFeedback({{1.5}, {}, 0.5}).ok());
  EXPECT_FALSE(learner.AddFeedback({{0.5}, {0.5}, 0.5}).ok());
  EXPECT_FALSE(learner.AddFeedback({{0.5}, {}, 2.0}).ok());
  EXPECT_FALSE(learner.Best().ok());  // no feedback
}

TEST(LearnRankingTest2, FeedbackFromPersonalizedTuple) {
  PersonalizedTuple tuple;
  tuple.satisfied = {{0, 0.8}, {1, 0.4}};
  tuple.failed = {{2, -0.3}};
  RankingFunctionLearner learner;
  ASSERT_TRUE(learner.AddFeedback(tuple, 7.0).ok());  // score on [-10, 10]
  EXPECT_EQ(learner.num_observations(), 1u);
}

TEST(LearnRankingTest2, StoredInProfileAndSerialized) {
  UserProfile profile;
  ASSERT_TRUE(profile.AddSelection("movie.year", BinaryOp::kGe,
                                   Value(int64_t{1990}),
                                   *DoiPair::Exact(0.5, 0)).ok());
  EXPECT_FALSE(profile.preferred_ranking().has_value());
  profile.set_preferred_ranking(
      RankingFunction::Make(CombinationStyle::kDominant, MixedStyle::kSum));
  const std::string text = profile.Serialize();
  EXPECT_NE(text.find("ranking: dominant sum"), std::string::npos) << text;

  auto parsed = UserProfile::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->preferred_ranking().has_value());
  EXPECT_EQ(parsed->preferred_ranking()->positive_style(),
            CombinationStyle::kDominant);
  EXPECT_EQ(parsed->preferred_ranking()->mixed_style(), MixedStyle::kSum);
  EXPECT_EQ(parsed
                ->PreferredRankingOr(
                    RankingFunction::Make(CombinationStyle::kReserved))
                .positive_style(),
            CombinationStyle::kDominant);
  EXPECT_FALSE(UserProfile::Parse("ranking: bogus\n").ok());
}

TEST(LearnRankingTest2, PersonalizerUsesProfileRanking) {
  auto db = datagen::GenerateMovieDatabase(datagen::MovieGenConfig::TestScale());
  ASSERT_TRUE(db.ok());
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok());
  profile->set_preferred_ranking(RankingFunction::Make(
      CombinationStyle::kDominant, MixedStyle::kCountWeighted));
  auto personalizer = Personalizer::Make(&*db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid from movie");

  PersonalizeOptions options;
  options.k = 5;
  options.l = 1;
  options.use_profile_ranking = true;
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok());
  // Tuple dois must match the dominant function, not the default
  // inflationary one.
  const RankingFunction dominant = RankingFunction::Make(
      CombinationStyle::kDominant, MixedStyle::kCountWeighted);
  for (const auto& t : answer->tuples) {
    std::vector<double> pos, neg;
    for (const auto& o : t.satisfied) pos.push_back(o.degree);
    for (const auto& o : t.failed) neg.push_back(o.degree);
    EXPECT_NEAR(t.doi, dominant.Rank(pos, neg), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Context policy
// ---------------------------------------------------------------------------

TEST(KLPolicyTest, DeviceScaling) {
  QueryEnvironment desktop;
  const auto d = KLPolicy::Derive(desktop, 100);
  QueryEnvironment mobile;
  mobile.device = QueryEnvironment::Device::kMobile;
  const auto m = KLPolicy::Derive(mobile, 100);
  QueryEnvironment voice;
  voice.device = QueryEnvironment::Device::kVoice;
  const auto v = KLPolicy::Derive(voice, 100);
  // Smaller devices: fewer preferences considered, more required.
  EXPECT_GT(d.k, m.k);
  EXPECT_GT(m.k, v.k);
  EXPECT_LT(d.l, m.l);
  EXPECT_LT(m.l, v.l);
}

TEST(KLPolicyTest, RespectsProfileSizeAndLBound) {
  QueryEnvironment desktop;
  const auto small = KLPolicy::Derive(desktop, 3);
  EXPECT_LE(small.k, 3u);
  EXPECT_LE(small.l, small.k);

  QueryEnvironment voice;
  voice.device = QueryEnvironment::Device::kVoice;
  voice.on_the_go = true;
  const auto tiny = KLPolicy::Derive(voice, 2);
  EXPECT_LE(tiny.l, std::max<size_t>(tiny.k, 1));
}

TEST(KLPolicyTest, OnTheGoTightens) {
  QueryEnvironment mobile;
  mobile.device = QueryEnvironment::Device::kMobile;
  const auto at_desk = KLPolicy::Derive(mobile, 100);
  mobile.on_the_go = true;
  const auto moving = KLPolicy::Derive(mobile, 100);
  EXPECT_GT(moving.l, at_desk.l);
}

TEST(KLPolicyTest, DerivedOptionsPersonalize) {
  auto db = datagen::GenerateMovieDatabase(datagen::MovieGenConfig::TestScale());
  ASSERT_TRUE(db.ok());
  auto profile = datagen::AlsProfile();
  ASSERT_TRUE(profile.ok());
  auto personalizer = Personalizer::Make(&*db, &*profile);
  ASSERT_TRUE(personalizer.ok());
  auto query = sql::ParseQuery("select mid, title from movie");

  QueryEnvironment mobile;
  mobile.device = QueryEnvironment::Device::kMobile;
  PersonalizeOptions options =
      KLPolicy::Derive(mobile, profile->NumPreferences());
  auto answer = personalizer->Personalize((*query)->single(), options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  for (const auto& t : answer->tuples) {
    EXPECT_GE(t.satisfied.size(), options.l);
  }
}

}  // namespace
}  // namespace qp::core
