// Helpers shared by the serving-stack tests: the small generated-profile
// configuration they personalize against, and a latch that parks a
// scheduler worker.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

#include "common/status.h"
#include "datagen/profilegen.h"

namespace qp::test {

/// A small profile over an 80-movie database: 4 presence, 2 negative, one
/// 1-1 absence and one elastic preference.
inline datagen::ProfileGenConfig SmallConfig(uint64_t seed) {
  datagen::ProfileGenConfig config;
  config.seed = seed;
  config.num_presence = 4;
  config.num_negative = 2;
  config.num_absence_11 = 1;
  config.num_elastic = 1;
  config.db_config.num_movies = 80;
  config.db_config.num_directors = 15;
  config.db_config.num_actors = 40;
  config.db_config.num_theatres = 6;
  config.db_config.plays_per_theatre = 8;
  return config;
}

/// Wedge: an intercept that parks the (single) worker thread until
/// Release(), so everything submitted behind it queues up deterministically.
class Latch {
 public:
  std::optional<Status> Block(size_t) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

}  // namespace qp::test
