// Aggregate-function machinery. Built-ins (COUNT, SUM, AVG, MIN, MAX) plus a
// registry for user-defined aggregates — the paper's SPA ranks groups with a
// "user-defined aggregate function" r(degree), which the personalization
// layer registers here.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/value.h"

namespace qp::exec {

/// \brief Streaming state of a registered aggregate: fed one value per
/// group row, then finalized.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  /// Accumulates one input (the evaluated argument, or NULL for COUNT(*)).
  virtual void Add(const storage::Value& v) = 0;
  /// Produces the aggregate result.
  virtual storage::Value Finalize() const = 0;
};

using AggregatorFactory = std::function<std::unique_ptr<Aggregator>()>;

/// \brief One aggregate function, resolved by name once per query. A
/// built-in folds its inputs in place; a registered one feeds a fresh
/// Aggregator from its factory, one per group.
class AggregateFunction {
 public:
  /// The aggregate of `n` inputs, `input(i)` returning the i-th (any
  /// value for COUNT(*)). COUNT counts every input, SUM and AVG the
  /// numeric ones (SUM is a DOUBLE, AVG of none is NULL), MIN and MAX skip
  /// NULLs and keep the first of equal extremes.
  template <typename Input>
  storage::Value Fold(size_t n, const Input& input) const {
    switch (kind_) {
      case Kind::kCount:
        return storage::Value(static_cast<int64_t>(n));
      case Kind::kSum:
      case Kind::kAvg: {
        double sum = 0.0;
        size_t count = 0;
        for (size_t i = 0; i < n; ++i) {
          const storage::Value& v = input(i);
          if (!v.is_numeric()) continue;
          sum += v.ToNumeric();
          ++count;
        }
        if (kind_ == Kind::kSum) return storage::Value(sum);
        return count == 0 ? storage::Value::Null()
                          : storage::Value(sum / static_cast<double>(count));
      }
      case Kind::kMin:
      case Kind::kMax: {
        storage::Value best;  // NULL until the first non-NULL input
        for (size_t i = 0; i < n; ++i) {
          const storage::Value& v = input(i);
          if (v.is_null()) continue;
          const bool better = kind_ == Kind::kMin ? v < best : v > best;
          if (best.is_null() || better) best = v;
        }
        return best;
      }
      case Kind::kRegistered:
        break;
    }
    const std::unique_ptr<Aggregator> aggregator = factory_();
    for (size_t i = 0; i < n; ++i) aggregator->Add(input(i));
    return aggregator->Finalize();
  }

 private:
  friend class AggregateRegistry;
  enum class Kind { kCount, kSum, kAvg, kMin, kMax, kRegistered };

  Kind kind_ = Kind::kCount;
  AggregatorFactory factory_;
};

/// \brief Name -> aggregate registry consulted by the executor.
///
/// Lookup is case-insensitive. Built-ins are implicitly available; a
/// registered name shadows nothing (built-in names are reserved).
///
/// Thread-safety contract: once a registry is handed to an Executor, it is
/// read-only — Resolve()/Contains() may be called concurrently, so
/// registered factories must be safe to invoke concurrently from worker
/// threads (the morsel-parallel GROUP BY path folds groups in parallel, one
/// fresh Aggregator per group). Register() must finish before execution
/// starts.
class AggregateRegistry {
 public:
  /// Registers `name`; fails on duplicates or built-in names.
  Status Register(const std::string& name, AggregatorFactory factory);

  /// Resolves `name` (built-in or registered).
  Result<AggregateFunction> Resolve(const std::string& name) const;

  /// True if `name` resolves to a built-in or registered aggregate.
  bool Contains(const std::string& name) const;

 private:
  std::map<std::string, AggregatorFactory> custom_;
};

}  // namespace qp::exec
