// Prepared execution of PPA's parameterized point queries Q_i^S(t) /
// Q_i^A(t). A probe asks: does the base-query tuple with id t reach a row
// making preference P's condition TRUE, and at what degree?
//
// Executing each probe as a fresh SQL query pays planning overhead per
// tuple, and PPA issues |tuples| x K of them. Probes are therefore prepared
// once per preference: the anchor lookup and every join hop bind to the
// catalog's hash-index snapshots on their join columns (falling back to a
// per-lookup scan producing the identical matches when no index is
// registered), and the final condition compiles to a direct comparison or
// an elastic-support test. Preferences sharing the same join
// path (e.g. every director preference walks MOVIE -> DIRECTED -> DIRECTOR)
// also share the walk itself through PathWalk, the way the paper's union
// query Q_i(t) shares one scan across its branches. This mirrors what a
// production engine does with prepared parameterized statements, and is
// semantically identical to executing the rewriter's satisfaction/violation
// query with `pk = t` appended (asserted by the probe tests).
//
// PPA prepares walks only for preferences anchored at the base query's
// first FROM relation, whose primary key is the tuple id. A preference
// anchored at any other query relation (genre.genre on a movie-genre join)
// has no walk: PPA runs its satisfaction/violation query once per call and
// answers every probe from the resulting tid -> degree map, so those probes
// cost one query per preference per call.

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/preference.h"
#include "index/hash_index.h"
#include "storage/database.h"

namespace qp::core {

/// \brief The join-path part of a probe: anchor lookup plus a chain of
/// index hops. Returns the reachable rows of the path's target relation.
class PathWalk {
 public:
  PathWalk() = default;

  /// Prepares a walk for `pref`'s join path. The anchor relation needs a
  /// single-column primary key.
  static Result<PathWalk> Prepare(const storage::Database* db,
                                  const ImplicitPreference& pref);

  /// Rows of the target relation reachable from the anchor tuple with
  /// primary-key value `anchor_key` (the anchor rows themselves for an
  /// empty path), in ascending row order per step — identical whether a
  /// hop is index-backed or scan-backed. Returns the number of rows
  /// physically examined (matches on indexed hops, the whole relation on
  /// scan fallbacks) — PPA's probe_rows_examined accounting. Thread-safe:
  /// index snapshots are bound at Prepare time, so concurrent probes over
  /// one walk read shared immutable state only — PPA fans point probes out
  /// across a pool on exactly this path.
  size_t Frontier(const storage::Value& anchor_key,
                  std::vector<const storage::Row*>* out) const;

  /// Key identifying walks that traverse the same join-edge sequence.
  const std::string& signature() const { return signature_; }

 private:
  /// One relation lookup: the catalog's hash snapshot on the join column
  /// when registered (kept alive by the shared_ptr even if the catalog
  /// rebuilds), else a per-lookup scan over the relation.
  struct Binding {
    const storage::Table* table = nullptr;
    size_t col = 0;
    std::shared_ptr<const index::HashIndex> snapshot;
  };

  struct Hop {
    /// Column index of the join key in the *previous* relation's row.
    size_t from_col = 0;
    Binding to;
  };

  /// Appends the rows of `b.table` whose `b.col` equals `key` (ascending
  /// row order); returns rows examined.
  static size_t Matches(const Binding& b, const storage::Value& key,
                        std::vector<const storage::Row*>* out);

  Binding anchor_;
  std::vector<Hop> hops_;
  std::string signature_;
};

/// \brief The condition part of a probe: evaluates the preference's
/// truth-side condition and degree over a walk frontier.
class PathCondition {
 public:
  PathCondition() = default;

  static Result<PathCondition> Prepare(const storage::Database* db,
                                       const ImplicitPreference& pref);

  /// Returns the tuple's truth-side degree j * dT(u) — maximized over join
  /// fan-out — when some frontier row makes the condition TRUE, else
  /// std::nullopt.
  std::optional<double> TruthDegree(
      const std::vector<const storage::Row*>& frontier) const;

 private:
  size_t condition_col_ = 0;
  sql::BinaryOp op_ = sql::BinaryOp::kEq;
  storage::Value value_;
  /// Elastic truth range (used instead of op/value when set).
  bool elastic_ = false;
  double support_lo_ = 0.0, support_hi_ = 0.0;
  DoiFunction d_true_;
  double join_product_ = 1.0;
};

/// \brief A standalone compiled probe (walk + condition).
class PathProbe {
 public:
  PathProbe() = default;

  static Result<PathProbe> Prepare(const storage::Database* db,
                                   const ImplicitPreference& pref);

  /// Evaluates the preference's condition for the anchor tuple whose
  /// primary-key value is `anchor_key`.
  std::optional<double> TruthDegree(const storage::Value& anchor_key) const;

  const PathWalk& walk() const { return walk_; }
  const PathCondition& condition() const { return condition_; }

 private:
  PathWalk walk_;
  PathCondition condition_;
};

}  // namespace qp::core
