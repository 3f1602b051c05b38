// The sharded kernel's only threading primitive: a barrier-synchronized
// worker pool that advances every shard through one epoch and parks.
//
// This file (and its .cpp) is the single place in the codebase where raw
// std::thread / std::mutex / std::condition_variable may appear — pam_lint
// rule D006 flags them anywhere else.  Funnelling all parallelism through
// this executor is what keeps the simulation deterministic: shards share
// nothing mid-epoch (each shard's state is touched only by the worker that
// owns it for the epoch), and every cross-shard interaction happens on the
// caller's thread between run_epoch calls, under the happens-before edges
// the barrier establishes.
//
// Work assignment is static round-robin — worker w runs shards w, w+T,
// w+2T, ... — so which thread advances a shard is fixed, but it also does
// not matter: determinism comes from shard isolation, not scheduling.
//
// threads == 1 runs every shard inline on the caller's thread; no worker
// threads are ever created, and the run is trivially identical to the
// multi-threaded one.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pam {

class EpochExecutor {
 public:
  /// Spawns min(threads, shards) - 1 persistent workers (the caller's
  /// thread acts as worker 0); 1 thread means fully inline execution.
  EpochExecutor(std::size_t threads, std::size_t shards);
  ~EpochExecutor();

  EpochExecutor(const EpochExecutor&) = delete;
  EpochExecutor& operator=(const EpochExecutor&) = delete;

  /// One epoch's per-shard work.  Type-erased because the persistent
  /// workers pick it up through work_.
  using ShardWork = std::function<void(std::size_t)>;  // pam-lint: allow(P003) built once per epoch; one indirect call per shard per epoch, never per packet

  [[nodiscard]] std::size_t threads() const noexcept { return workers_.size() + 1; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Runs `shard_work(s)` once for every shard s in [0, shards) and returns
  /// when all calls finished.  The callback must touch only shard-owned
  /// state (plus its own mailbox row of the fabric).  Blocking barrier:
  /// on return, everything the workers wrote is visible to the caller, and
  /// everything the caller wrote before the call was visible to them.
  void run_epoch(const ShardWork& shard_work);

 private:
  void worker_loop(std::size_t worker_index);
  void run_slice(std::size_t worker_index, const ShardWork& shard_work);

  std::size_t shards_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;  ///< caller -> workers: epoch posted
  std::condition_variable done_cv_;   ///< workers -> caller: slice finished
  const ShardWork* work_ = nullptr;  // guarded by mu_
  std::uint64_t epoch_ = 0;        ///< generation counter (guarded by mu_)
  std::size_t outstanding_ = 0;    ///< workers still in the epoch (guarded by mu_)
  bool shutdown_ = false;          ///< guarded by mu_
};

}  // namespace pam
