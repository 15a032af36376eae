// Slab/SoA packet storage with free-list id recycling — the open-system
// refactor that lets resident memory track the LIVE backlog instead of
// the arrival horizon.
//
// IDENTITY VS PLACEMENT. A packet has two distinct numbers:
//
//   * its logical PacketId — the global injection sequence number. It is
//     unique per logical packet forever (never reused), it keys the
//     packet's gap stream Rng::stream(seed, id) and its slot-keyed send
//     coins CounterRng(seed, 2^32 + id) (pure in (seed, id, slot)), and
//     it defines the CANONICAL ascending-id order every cross-packet
//     effect is applied in;
//
//   * its slab index — where the record currently lives inside the
//     PacketStore. Slabs of departed packets are pushed on a free list
//     and handed to later arrivals, so slab indices are recycled and
//     carry NO identity: nothing observable (coins, resolve order,
//     observer callbacks) may ever depend on them. Each slab carries a
//     generation counter, bumped on reuse, so tests and debug assertions
//     can detect stale handles.
//
// Because every observable quantity is keyed on the logical id and never
// on the slab, a run with reclamation enabled is bit-identical to the
// same run with reclamation off (and to the pre-slab dense layout) on
// any finite scenario — which bench_t14's hard cross-check enforces.
//
// LAYOUT. The hot per-slot lanes the resolve phases stream over —
// slot-keyed coin keys, cached send probabilities, next-access slots —
// live in separate parallel arrays (structure-of-arrays) so the batched
// coin evaluation reads contiguous memory; the cold remainder (protocol
// state, gap stream, arrival bookkeeping) stays in the per-slab record.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/protocol.hpp"

namespace lowsense::detail {

/// Cold per-packet record (one slab each; hot lanes are in PacketStore).
struct Packet {
  std::unique_ptr<Protocol> proto;
  Rng rng{0};  ///< per-packet stream: gap draws (geometric / windowed)
  PacketId id = 0;  ///< logical id; unique per logical packet, never recycled
  Slot arrival = 0;
  std::uint64_t accesses = 0;
  std::uint64_t sends = 0;
  std::uint32_t generation = 0;  ///< slab reuse count (0 = first tenant)
  bool active = false;
  bool sent = false;  ///< scratch: did it transmit in the slot being resolved?
};

class PacketStore {
 public:
  /// Slab for a NEW logical packet: pops the free list when reclamation
  /// has returned one (bumping its generation), grows the arrays
  /// otherwise. The record comes back zeroed except for `id` and
  /// `generation`; the hot lanes are reset to their empty values.
  std::uint32_t acquire(PacketId id) {
    std::uint32_t slab;
    if (!free_.empty()) {
      slab = free_.back();
      free_.pop_back();
      ++recycled_;
      Packet& pkt = recs_[slab];
      const std::uint32_t gen = pkt.generation + 1;
      pkt = Packet{};
      pkt.generation = gen;
    } else {
      slab = static_cast<std::uint32_t>(recs_.size());
      recs_.emplace_back();
      coin_key_.push_back(0);
      send_prob_.push_back(0.0);
      next_access_.push_back(kNoSlot);
    }
    recs_[slab].id = id;
    coin_key_[slab] = 0;
    send_prob_[slab] = 0.0;
    next_access_[slab] = kNoSlot;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return slab;
  }

  /// Returns a departed packet's slab to the free list and releases its
  /// heavy state (the protocol instance). The record keeps its id and
  /// generation until the slab is re-acquired, so late readers can still
  /// see `active == false` and stale-handle assertions stay meaningful.
  void release(std::uint32_t slab) {
    assert(slab < recs_.size() && !recs_[slab].active);
    recs_[slab].proto.reset();
    free_.push_back(slab);
    assert(live_ > 0);
    --live_;
  }

  Packet& at(std::uint32_t slab) noexcept {
    assert(slab < recs_.size());
    return recs_[slab];
  }
  const Packet& at(std::uint32_t slab) const noexcept {
    assert(slab < recs_.size());
    return recs_[slab];
  }

  // Hot SoA lanes, aligned with the slab index.
  std::uint64_t& coin_key(std::uint32_t slab) noexcept { return coin_key_[slab]; }
  double& send_prob(std::uint32_t slab) noexcept { return send_prob_[slab]; }
  double send_prob(std::uint32_t slab) const noexcept { return send_prob_[slab]; }
  Slot& next_access(std::uint32_t slab) noexcept { return next_access_[slab]; }
  Slot next_access(std::uint32_t slab) const noexcept { return next_access_[slab]; }

  /// Slabs ever allocated. With reclamation on this tracks the PEAK live
  /// population; without it, all arrivals.
  std::uint32_t capacity() const noexcept { return static_cast<std::uint32_t>(recs_.size()); }
  std::uint64_t live() const noexcept { return live_; }
  std::uint64_t peak_live() const noexcept { return peak_live_; }
  /// Acquisitions served from the free list (slab reuses).
  std::uint64_t recycled() const noexcept { return recycled_; }
  std::uint64_t free_count() const noexcept { return free_.size(); }

 private:
  std::vector<Packet> recs_;
  std::vector<std::uint64_t> coin_key_;  ///< CounterRng::key() per slab
  std::vector<double> send_prob_;        ///< cached contribution to C(t)
  std::vector<Slot> next_access_;        ///< absolute slot of the next access
  std::vector<std::uint32_t> free_;      ///< reclaimed slabs (LIFO)
  std::uint64_t live_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace lowsense::detail
