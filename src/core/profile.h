// User profiles: the stored set of atomic preferences (Section 3, Figure 2).
//
// Profiles serialize to/from a text format mirroring the paper's notation:
//
//   # Al's profile
//   doi(DIRECTOR.name = 'W. Allen') = (0.8, 0)
//   doi(MOVIE.year < 1980) = (-0.7, 0)
//   doi(MOVIE.duration = 120) = (e(0.7)[90,150], e(-0.5)[90,150])
//   doi(MOVIE.mid = DIRECTED.mid) = (1)
//
// Elastic components: e(d)[lo,hi] is triangular (peak at the condition's
// target value, support [lo,hi]); e(d)[a,b,c,d] is trapezoidal.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <optional>

#include "common/status.h"
#include "core/preference.h"
#include "core/ranking.h"
#include "storage/database.h"

namespace qp::core {

/// Renders one doi component in the profile text format: a bare degree for
/// constants, "e(d)[support_lo,core_lo,core_hi,support_hi]" for elastic.
std::string SerializeDoiFunction(const DoiFunction& f);

/// What one successful profile mutation did. The journal entries drive
/// incremental invalidation: consumers holding state derived at an older
/// epoch ask MutationsSince() for the exact delta and repair instead of
/// rebuilding.
enum class ProfileMutationKind {
  kAddSelection,
  kRemoveSelection,
  /// Doi pair of an existing selection preference replaced in place
  /// (UpdateSelectionDoi): the condition set is unchanged, only degrees —
  /// and therefore criticalities and derived graph statistics — moved.
  kUpdateSelectionDoi,
  kAddJoin,
  kRemoveJoin,
  /// set_preferred_ranking / clear_preferred_ranking: no preference and no
  /// graph structure changed, only the resolved ranking.
  kSetRanking,
};

/// \brief One journal entry: the mutation that produced `epoch`.
struct ProfileMutation {
  uint64_t epoch = 0;  ///< UserProfile::epoch() AFTER this mutation
  ProfileMutationKind kind = ProfileMutationKind::kSetRanking;
  /// Selection mutations: the (unique) condition touched.
  SelectionCondition condition;
  /// Join mutations: the directed edge touched.
  storage::AttributeRef join_from, join_to;

  /// Relations whose graph neighborhood this mutation can change: the
  /// condition's relation for selection mutations, both endpoints for join
  /// mutations, none for ranking swaps.
  std::vector<std::string> AffectedRelations() const;

  /// True when the mutation changes the number of stored preferences —
  /// which invalidates derived state that depends on the global profile
  /// size (the doi-target selection's N estimate), not just on the touched
  /// relations.
  bool ChangesPreferenceCount() const {
    return kind == ProfileMutationKind::kAddSelection ||
           kind == ProfileMutationKind::kRemoveSelection ||
           kind == ProfileMutationKind::kAddJoin ||
           kind == ProfileMutationKind::kRemoveJoin;
  }

  std::string ToString() const;
};

/// \brief A user's stored atomic preferences.
class UserProfile {
 public:
  UserProfile() = default;

  /// Adds a selection preference. Fails on: indifferent doi (the paper does
  /// not store them), duplicate condition, elastic doi on a non-numeric
  /// target value.
  Status AddSelection(SelectionPreference pref);

  /// Adds a join preference. Fails if degree is outside [0, 1] or the
  /// directed edge already exists.
  Status AddJoin(JoinPreference pref);

  /// Convenience: parses "TABLE.attr" strings and builds the preference.
  Status AddSelection(const std::string& attr, sql::BinaryOp op,
                      storage::Value value, DoiPair doi);
  Status AddJoin(const std::string& from_attr, const std::string& to_attr,
                 double degree);

  /// Removes the selection preference with exactly this condition; NotFound
  /// if absent. Any PersonalizationGraph built over this profile must call
  /// RefreshDerivedStats() afterwards (its edge pointers are rebuilt there).
  Status RemoveSelection(const SelectionCondition& condition);

  /// Removes the directed join preference from -> to; NotFound if absent.
  Status RemoveJoin(const storage::AttributeRef& from,
                    const storage::AttributeRef& to);

  /// Replaces the doi pair of the selection preference with exactly this
  /// condition (the profile-churn fast path: degrees drift, conditions
  /// stay). NotFound if absent; the same validation as AddSelection applies
  /// to the new pair (no indifferent doi, elastic requires a numeric
  /// target).
  Status UpdateSelectionDoi(const SelectionCondition& condition, DoiPair doi);

  const std::vector<SelectionPreference>& selections() const {
    return selections_;
  }
  const std::vector<JoinPreference>& joins() const { return joins_; }

  /// Total number of stored atomic preferences (the paper's estimate for N
  /// in Section 4.2).
  size_t NumPreferences() const { return selections_.size() + joins_.size(); }

  /// Selection preferences whose attribute belongs to `relation`.
  std::vector<const SelectionPreference*> SelectionsOn(
      const std::string& relation) const;

  /// Join preferences leaving `relation`.
  std::vector<const JoinPreference*> JoinsFrom(
      const std::string& relation) const;

  /// The user's learned ranking philosophy (Section 6.3 suggests storing
  /// it in the profile); see core/learn_ranking.h for how it is fit.
  void set_preferred_ranking(RankingFunction ranking) {
    preferred_ranking_ = ranking;
    Journal(ProfileMutationKind::kSetRanking);
  }
  void clear_preferred_ranking() {
    preferred_ranking_.reset();
    Journal(ProfileMutationKind::kSetRanking);
  }

  /// Monotonic mutation counter: bumped by every successful profile change
  /// (add/remove preference, doi update, ranking-philosophy update).
  /// Consumers that derive state from the profile — the personalization
  /// graph, selected preference sets, rewritten query plans — record the
  /// epoch they were built under and treat a mismatch as invalidation
  /// (qp::serve does exactly this). Copies carry the source's epoch and
  /// keep counting independently from there.
  ///
  /// The read is atomic so a serving warm path can check staleness without
  /// a lock while a mutator holds the profile's external mutex; everything
  /// ELSE in the profile still requires that external serialization
  /// (serve::Session::Mutate provides it).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Identity of this profile's mutation lineage: fresh for every
  /// constructed (or parsed/loaded) profile, inherited by copies and
  /// moves. Epochs and journals of two different lineages are
  /// incomparable even when the numbers happen to align — qp::serve
  /// treats a lineage change (a Session::Mutate that assigns a whole new
  /// profile) as beyond repair and rebuilds.
  uint64_t lineage() const { return lineage_; }

  /// The exact mutations that advanced epoch() past `since_epoch`, oldest
  /// first — empty when since_epoch == epoch(). nullopt when the bounded
  /// journal no longer reaches back that far (or since_epoch is from a
  /// different profile lineage); the caller must fall back to a wholesale
  /// rebuild.
  std::optional<std::vector<ProfileMutation>> MutationsSince(
      uint64_t since_epoch) const;

  /// Journal retention: how many most-recent mutations MutationsSince can
  /// reconstruct. Deltas larger than this cost a wholesale rebuild anyway.
  static constexpr size_t kJournalCapacity = 64;

  UserProfile(const UserProfile& other)
      : selections_(other.selections_),
        joins_(other.joins_),
        preferred_ranking_(other.preferred_ranking_),
        journal_(other.journal_),
        epoch_(other.epoch()),
        lineage_(other.lineage_) {}
  UserProfile& operator=(const UserProfile& other) {
    if (this == &other) return *this;
    selections_ = other.selections_;
    joins_ = other.joins_;
    preferred_ranking_ = other.preferred_ranking_;
    journal_ = other.journal_;
    epoch_.store(other.epoch(), std::memory_order_release);
    lineage_ = other.lineage_;
    return *this;
  }
  UserProfile(UserProfile&& other) noexcept
      : selections_(std::move(other.selections_)),
        joins_(std::move(other.joins_)),
        preferred_ranking_(std::move(other.preferred_ranking_)),
        journal_(std::move(other.journal_)),
        epoch_(other.epoch()),
        lineage_(other.lineage_) {}
  UserProfile& operator=(UserProfile&& other) noexcept {
    if (this == &other) return *this;
    selections_ = std::move(other.selections_);
    joins_ = std::move(other.joins_);
    preferred_ranking_ = std::move(other.preferred_ranking_);
    journal_ = std::move(other.journal_);
    epoch_.store(other.epoch(), std::memory_order_release);
    lineage_ = other.lineage_;
    return *this;
  }
  const std::optional<RankingFunction>& preferred_ranking() const {
    return preferred_ranking_;
  }
  /// The stored ranking function, or `fallback` when none was learned.
  RankingFunction PreferredRankingOr(RankingFunction fallback) const {
    return preferred_ranking_.value_or(fallback);
  }

  /// Checks every referenced attribute against `db` (existence and, for
  /// elastic preferences, numeric type).
  Status Validate(const storage::Database& db) const;

  /// Renders the Figure-2 style text form.
  std::string Serialize() const;

  /// Parses the text form ('#' starts a comment line).
  static Result<UserProfile> Parse(const std::string& text);

  /// File I/O wrappers around Serialize/Parse.
  Status Save(const std::string& path) const;
  static Result<UserProfile> Load(const std::string& path);

 private:
  /// Bumps the epoch and appends the matching journal entry (evicting the
  /// oldest once kJournalCapacity is exceeded). Every successful mutation
  /// funnels through here so epoch and journal can never disagree.
  ProfileMutation& Journal(ProfileMutationKind kind);

  /// Process-unique lineage id (monotonic counter).
  static uint64_t NextLineage();

  std::vector<SelectionPreference> selections_;
  std::vector<JoinPreference> joins_;
  std::optional<RankingFunction> preferred_ranking_;
  /// Most-recent mutations, oldest first; entry i produced epoch
  /// journal_[i].epoch. Bounded by kJournalCapacity.
  std::deque<ProfileMutation> journal_;
  /// Atomic for the lock-free staleness check; see epoch().
  std::atomic<uint64_t> epoch_{0};
  /// See lineage().
  uint64_t lineage_ = NextLineage();
};

}  // namespace qp::core
