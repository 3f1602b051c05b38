// Cross-rack frame exchange for the sharded datacenter kernel.
//
// When a chain node is leased to another rack (a cross_rack_move), packets
// reaching it are serialized into FabricFrames — the byte buffer plus the
// simulator metadata that must survive the crossing — and buffered into the
// per-(src,dst) mailbox of the sending shard.  Mailboxes are drained only
// at epoch barriers, in deterministic (dst, src, seq) order, which is what
// makes the parallel run bit-identical to the single-threaded one.
//
// Ownership protocol (this is what keeps the exchange lock-free and
// TSan-clean): between two barriers, mailbox row `src` is written only by
// shard `src`'s thread; nobody reads it.  At the barrier every shard thread
// is parked, and the main thread alone moves frames out.  Frame storage is
// recycled through per-shard arenas (`acquire`/`release`) so the steady
// state allocates nothing per packet — buffers keep their capacity across
// reuse (pam_lint rule D005).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace pam {

/// One packet on the rack-to-rack fabric: routing, the wire bytes, and the
/// path metadata a Packet carries (id, ingress timestamp, PCIe crossings,
/// hop count).  Visit frames travel home -> host; return frames travel
/// host -> home carrying the visit's outcome and the (possibly rewritten)
/// bytes.
struct FabricFrame {
  enum class Kind : std::uint8_t { kVisit = 0, kReturn = 1 };
  enum class Outcome : std::uint8_t {
    kPassed = 0,
    kDroppedNic,   ///< drop-tail at the host SmartNIC
    kDroppedNf,    ///< policy drop by the leased NF
  };

  Kind kind = Kind::kVisit;
  Outcome outcome = Outcome::kPassed;
  std::size_t chain = 0;  ///< global chain id
  std::size_t node = 0;   ///< index of the leased node within the chain
  std::uint64_t seq = 0;  ///< per-mailbox sequence; stamps the drain order
  SimTime sent_at;        ///< send time on the source shard's clock

  std::vector<std::uint8_t> bytes;  ///< the frame on the wire
  std::uint64_t packet_id = 0;
  SimTime ingress_time;
  std::uint32_t pcie_crossings = 0;
  std::uint32_t hops = 0;
};

class ShardFabric {
 public:
  explicit ShardFabric(std::size_t shards);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Pops a recycled frame from `src`'s arena (or grows it once).  Callable
  /// only from the shard's own thread mid-epoch.
  [[nodiscard]] FabricFrame acquire(std::size_t src);

  /// Buffers `frame` into mailbox (src, dst), stamping its sequence number.
  /// Callable only from shard `src`'s thread mid-epoch.
  void send(std::size_t src, std::size_t dst, FabricFrame frame);

  /// Returns a consumed frame's storage to `shard`'s arena.  Callable only
  /// from the shard's own thread (or at a barrier).
  void release(std::size_t shard, FabricFrame frame);

  using Deliver = std::function<void(std::size_t, std::size_t, FabricFrame&&)>;  // pam-lint: allow(P003) one drain callback per epoch barrier; the per-frame cost is one indirect call, never an allocation

  /// Drains every mailbox in (dst, src, seq) order, invoking
  /// `deliver(src, dst, frame)` for each frame.  Mailbox vectors are
  /// cleared but keep their capacity.  Barrier-only: every shard thread
  /// must be parked.
  void exchange(const Deliver& deliver);

  /// True when no mailbox holds a frame (used by the drain loop).
  [[nodiscard]] bool idle() const noexcept;

  [[nodiscard]] std::uint64_t frames_exchanged() const noexcept {
    return frames_exchanged_;
  }
  /// Frames sent by shard `src` over the whole run (per-shard report field).
  [[nodiscard]] std::uint64_t frames_from(std::size_t src) const {
    return frames_from_[src];
  }

 private:
  struct Mailbox {
    std::vector<FabricFrame> frames;
    std::uint64_t next_seq = 0;
  };

  [[nodiscard]] Mailbox& box(std::size_t src, std::size_t dst) {
    return boxes_[src * shards_ + dst];
  }

  std::size_t shards_;
  std::vector<Mailbox> boxes_;                   ///< src-major (src, dst) grid
  std::vector<std::vector<FabricFrame>> arenas_; ///< per-shard recycle stacks
  std::vector<std::uint64_t> frames_from_;
  std::uint64_t frames_exchanged_ = 0;
};

}  // namespace pam
