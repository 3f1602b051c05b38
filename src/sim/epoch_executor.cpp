#include "sim/epoch_executor.hpp"

#include <algorithm>
#include <cassert>

namespace pam {

EpochExecutor::EpochExecutor(std::size_t threads, std::size_t shards)
    : shards_(shards) {
  assert(threads > 0 && shards > 0);
  // More threads than shards would only idle; the caller's thread is
  // worker 0, so only threads-1 std::threads are spawned.
  const std::size_t effective = std::min(threads, shards);
  workers_.reserve(effective > 0 ? effective - 1 : 0);
  for (std::size_t w = 1; w < effective; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

EpochExecutor::~EpochExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void EpochExecutor::run_slice(std::size_t worker_index,
                              const ShardWork& shard_work) {
  const std::size_t stride = workers_.size() + 1;
  for (std::size_t s = worker_index; s < shards_; s += stride) {
    shard_work(s);
  }
}

void EpochExecutor::worker_loop(std::size_t worker_index) {
  std::uint64_t seen = 0;
  for (;;) {
    const ShardWork* work = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = epoch_;
      work = work_;
    }
    run_slice(worker_index, *work);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
    done_cv_.notify_one();
  }
}

void EpochExecutor::run_epoch(const ShardWork& shard_work) {
  if (workers_.empty()) {
    // threads == 1 (or a single shard): fully inline, no synchronization.
    run_slice(0, shard_work);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    work_ = &shard_work;
    outstanding_ = workers_.size();
    ++epoch_;
  }
  start_cv_.notify_all();
  run_slice(0, shard_work);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return outstanding_ == 0; });
  work_ = nullptr;
}

}  // namespace pam
