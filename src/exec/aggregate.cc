#include "exec/aggregate.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"

namespace qp::exec {

namespace {

/// The built-in aggregate names, in AggregateFunction::Kind order.
constexpr const char* kBuiltins[] = {"count", "sum", "avg", "min", "max"};

/// Index of `key` (lower case) among the built-ins, or their count.
size_t BuiltinIndex(const std::string& key) {
  return std::find(std::begin(kBuiltins), std::end(kBuiltins), key) -
         std::begin(kBuiltins);
}

}  // namespace

Status AggregateRegistry::Register(const std::string& name,
                                   AggregatorFactory factory) {
  const std::string key = ToLower(name);
  if (BuiltinIndex(key) < std::size(kBuiltins)) {
    return Status::InvalidArgument("aggregate name '" + key +
                                   "' is reserved (built-in)");
  }
  if (!custom_.emplace(key, std::move(factory)).second) {
    return Status::AlreadyExists("aggregate '" + key + "' already registered");
  }
  return Status::OK();
}

Result<AggregateFunction> AggregateRegistry::Resolve(
    const std::string& name) const {
  const std::string key = ToLower(name);
  AggregateFunction fn;
  if (const size_t k = BuiltinIndex(key); k < std::size(kBuiltins)) {
    fn.kind_ = static_cast<AggregateFunction::Kind>(k);
    return fn;
  }
  const auto it = custom_.find(key);
  if (it == custom_.end()) {
    return Status::NotFound("unknown aggregate function '" + key + "'");
  }
  fn.kind_ = AggregateFunction::Kind::kRegistered;
  fn.factory_ = it->second;
  return fn;
}

bool AggregateRegistry::Contains(const std::string& name) const {
  const std::string key = ToLower(name);
  return BuiltinIndex(key) < std::size(kBuiltins) || custom_.count(key) > 0;
}

}  // namespace qp::exec
