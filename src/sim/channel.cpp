// Implementation of the shared simulation core: the ternary-feedback
// channel semantics of §1.1 live in the three-phase resolve below. See
// sim_core.hpp for the open-system storage, sharding, and determinism
// invariants.
#include "sim/sim_core.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace lowsense::detail {

namespace {

/// Stream offset of the per-packet send-coin keys: the packet with
/// logical id i draws its coins from CounterRng(seed, kPacketCoinStream
/// + i). The offset keeps the packet key space disjoint from the small
/// stream ids the jammers use (0xb1, 0xb2 — see jammer_rng in
/// harness/experiment.hpp). Logical ids are never recycled, so a slab's
/// next tenant always draws from a fresh, decorrelated coin key.
constexpr std::uint64_t kPacketCoinStream = 1ULL << 32;

constexpr PacketId kNoPacket = std::numeric_limits<PacketId>::max();

}  // namespace

SimCore::SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
                 const RunConfig& config)
    : factory_(factory), arrivals_(arrivals), jammer_(jammer), config_(config) {
  unsigned shards = config.shards;
  if (shards == 0) shards = ParallelExecutor::default_threads();
  if (shards < 1) shards = 1;
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) shards_.emplace_back(s, shards);
  scratch_pos_.resize(shards);
  if (shards > 1) {
    // The caller thread works shard 0, so the pool only needs S-1
    // workers. Idle-spin is enabled only when the host can actually run
    // the shards concurrently — the resolve forks twice per heavy slot,
    // so the futex wakeup would otherwise dominate; on an oversubscribed
    // box spinning would steal the cycles the working thread needs.
    // "Oversubscribed" includes running INSIDE a replicate-pool worker
    // (--threads=K x --shards=M spawns K sibling SimCores), not just a
    // host with fewer cores than shards.
    const bool spin = !ParallelExecutor::on_worker_thread() &&
                      ParallelExecutor::default_threads() >= shards;
    pool_.emplace(shards - 1, spin ? 40 : 0);
  }
}

Slot SimCore::next_arrival_slot() {
  if (!pending_ && !arrivals_done_) {
    pending_ = arrivals_.next();
    if (!pending_) arrivals_done_ = true;
  }
  return pending_ ? pending_->slot : kNoSlot;
}

void SimCore::inject_arrivals_at(Slot t) {
  while (next_arrival_slot() == t) {
    const std::uint64_t count = pending_->count;
    pending_.reset();
    for (std::uint64_t i = 0; i < count; ++i) {
      const PacketId id = next_id_++;
      PacketShard& sh = shards_[id % shards_.size()];
      PacketStore& store = sh.store();
      const std::uint32_t slab = store.acquire(id);
      Packet& pkt = store.at(slab);
      pkt.proto = factory_.create();
      pkt.rng = Rng::stream(config_.seed, id);
      store.coin_key(slab) = CounterRng(config_.seed, kPacketCoinStream + id).key();
      pkt.arrival = t;
      pkt.active = true;
      store.send_prob(slab) = pkt.proto->send_prob();
      // A packet injected at slot t may act in slot t itself (Fig. 1 sets
      // w_u(t) = w_min at the injection slot), so the first gap is
      // anchored at t, not t+1.
      const std::uint64_t gap = pkt.proto->draw_gap(pkt.rng);
      const Slot first = gap == kNoSlot ? kNoSlot : t + gap - 1;
      store.next_access(slab) = first;
      if (first != kNoSlot) sh.wheel().schedule(slab, first);
      counters_.contention += store.send_prob(slab);
      ++counters_.arrivals;
      ++counters_.backlog;
      max_window_ = std::max(max_window_, pkt.proto->window());
      for (auto* obs : observers_) obs->on_arrival(t, id, *pkt.proto);
    }
    peak_backlog_ = std::max(peak_backlog_, counters_.backlog);
  }
}

SystemView SimCore::view() const noexcept {
  SystemView v;
  v.n_active = counters_.backlog;
  v.contention = counters_.contention;
  v.arrivals = counters_.arrivals;
  v.successes = counters_.successes;
  return v;
}

Slot SimCore::next_access_slot() const noexcept {
  Slot next = kNoSlot;
  for (const PacketShard& s : shards_) next = std::min(next, s.wheel().next_scheduled());
  return next;
}

bool SimCore::no_future_access() const noexcept {
  for (const PacketShard& s : shards_) {
    if (!s.wheel().empty()) return false;
  }
  return true;
}

void SimCore::depart(Slot t, std::size_t shard_idx, std::uint32_t slab) {
  PacketStore& store = shards_[shard_idx].store();
  Packet& pkt = store.at(slab);
  assert(pkt.active);
  // No wheel entry to drop: a packet departs only in a slot it accessed,
  // and its entry for that slot was popped before the resolve ran. Mark
  // the access spent so nothing re-schedules it.
  store.next_access(slab) = kNoSlot;
  pkt.active = false;
  counters_.contention -= store.send_prob(slab);
  --counters_.backlog;
  ++counters_.successes;
  latency_stats_.add(static_cast<double>(t - pkt.arrival + 1));
  // Fold the departed packet's per-packet stats NOW — its record may be
  // reclaimed at the end of this slot. At most one packet departs per
  // slot, so the accumulation order (departures in slot order, then the
  // survivors in ascending id at finish) is canonical: independent of
  // engine, shard count, slab placement, and reclamation.
  access_stats_.add(static_cast<double>(pkt.accesses));
  send_stats_.add(static_cast<double>(pkt.sends));
  access_hist_.add(static_cast<double>(pkt.accesses));
  max_accesses_ = std::max(max_accesses_, pkt.accesses);
  for (auto* obs : observers_) {
    obs->on_departure(t, pkt.id, pkt.arrival, pkt.accesses, pkt.sends, pkt.proto->window());
  }
  // The slab is released only after phase 3 — it is still referenced by
  // this slot's accessor list (which checks `active`).
  if (config_.reclaim) reclaim_pending_ = {shard_idx, slab};
}

void SimCore::run_phase(Phase phase, PacketShard& shard) {
  if (phase == Phase::kSendDraws) {
    phase_send_draws(phase_slot_, shard);
  } else {
    phase_feedback(phase_slot_, phase_fb_, shard);
  }
}

void SimCore::run_sharded(std::size_t total_accessors, Phase phase) {
  if (pool_ && total_accessors >= kParallelMinAccessors) {
    try {
      for (std::uint32_t s = 1; s < shards_.size(); ++s) {
        // 16-byte trivially-copyable capture: fits std::function's
        // small-object buffer, so the twice-per-slot fork never mallocs.
        pool_->submit([this, phase, s] { run_phase(phase, shards_[s]); });
      }
      run_phase(phase, shards_[0]);  // the calling thread takes shard 0
    } catch (...) {
      // In-flight workers still mutate shard scratch: they MUST drain
      // before this frame unwinds (whether submit or our own share
      // threw). The caller's exception wins over any worker one.
      try {
        pool_->wait();
      } catch (...) {
      }
      throw;
    }
    pool_->wait();
  } else {
    for (PacketShard& shard : shards_) run_phase(phase, shard);
  }
}

// Visits every accessor-aligned entry across the shards in canonical
// ascending-LOGICAL-id order: `list_of(shard)` selects the (sorted)
// per-shard id list, fn(id, shard_index, pos) handles one entry. Both
// serial phases use THIS loop, so they cannot disagree on the canonical
// order — which is the determinism contract.
template <typename GetList, typename Fn>
void SimCore::for_each_in_id_order(GetList&& list_of, Fn&& fn) {
  std::fill(scratch_pos_.begin(), scratch_pos_.end(), 0);
  for (;;) {
    PacketId best = kNoPacket;
    std::size_t best_shard = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<PacketId>& ids = list_of(shards_[s]);
      if (scratch_pos_[s] < ids.size() && ids[scratch_pos_[s]] < best) {
        best = ids[scratch_pos_[s]];
        best_shard = s;
      }
    }
    if (best == kNoPacket) break;
    fn(best, best_shard, scratch_pos_[best_shard]++);
  }
}

// Phase 1 — parallel per shard: canonicalize the bucket (ascending
// LOGICAL id — slab order is placement, not identity, and recycling
// makes it non-monotone), tally accesses, and evaluate the slot-keyed
// send coins in one batched call. Writes only shard-owned state.
void SimCore::phase_send_draws(Slot t, PacketShard& shard) {
  PacketStore& store = shard.store();
  auto& acc = shard.accessors;
  const std::size_t k = acc.size();
  auto& tmp = shard.sort_tmp;
  tmp.resize(k);
  for (std::size_t i = 0; i < k; ++i) tmp[i] = {store.at(acc[i]).id, acc[i]};
  std::sort(tmp.begin(), tmp.end());
  shard.accessor_ids.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    shard.accessor_ids[i] = tmp[i].first;
    acc[i] = tmp[i].second;
  }
  shard.senders.clear();
  shard.sender_ids.clear();
  shard.coin_keys.resize(k);
  shard.coin_ps.resize(k);
  shard.coin_out.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    Packet& pkt = store.at(acc[i]);
    assert(pkt.active);  // a reclaimed slab can never sit in the wheel
    ++pkt.accesses;
    shard.coin_keys[i] = store.coin_key(acc[i]);
    shard.coin_ps[i] = pkt.proto->send_prob_given_access();
  }
  CounterRng::bernoulli_batch(shard.coin_keys.data(), shard.coin_ps.data(), k, t,
                              shard.coin_out.data());
  for (std::size_t i = 0; i < k; ++i) {
    Packet& pkt = store.at(acc[i]);
    pkt.sent = shard.coin_out[i] != 0;
    if (pkt.sent) {
      ++pkt.sends;
      shard.senders.push_back(acc[i]);
      shard.sender_ids.push_back(shard.accessor_ids[i]);
    }
  }
}

// Phase 3 — parallel per shard: deliver the observation to every accessor
// that did not depart, redraw its gap, and re-register it in the shard's
// own wheel. The cross-shard effects (contention, max window, observer
// callbacks) are only RECORDED here, in `outcomes`, and applied by the
// serial shard-merge in resolve_phases.
void SimCore::phase_feedback(Slot t, Feedback fb, PacketShard& shard) {
  PacketStore& store = shard.store();
  const auto& acc = shard.accessors;
  shard.outcomes.assign(acc.size(), {});
  for (std::size_t i = 0; i < acc.size(); ++i) {
    Packet& pkt = store.at(acc[i]);
    PacketShard::Outcome& out = shard.outcomes[i];
    if (!pkt.active) {
      out.departed = true;  // the slot's winner: no feedback, no redraw
      continue;
    }
    out.old_window = pkt.proto->window();
    pkt.proto->on_observation(Observation{fb, pkt.sent});
    out.new_window = pkt.proto->window();
    const double new_sp = pkt.proto->send_prob();
    out.contention_delta = new_sp - store.send_prob(acc[i]);
    store.send_prob(acc[i]) = new_sp;
    const std::uint64_t gap = pkt.proto->draw_gap(pkt.rng);
    const Slot next = gap == kNoSlot ? kNoSlot : t + gap;
    store.next_access(acc[i]) = next;
    if (next != kNoSlot) shard.wheel().schedule(acc[i], next);
  }
}

void SimCore::resolve_slot(Slot t) {
  for (PacketShard& shard : shards_) {
    shard.accessors.clear();
    shard.wheel().pop_slot(t, &shard.accessors);
  }
  resolve_phases(t);
}

void SimCore::resolve_phases(Slot t) {
  std::size_t total = 0;
  for (const PacketShard& shard : shards_) total += shard.accessors.size();

  // 1. Send decisions: one slot-keyed coin per accessor, batched per
  //    shard. Pure in (seed, id, t), so shard scheduling cannot matter.
  phase_slot_ = t;
  run_sharded(total, Phase::kSendDraws);

  // 2. Arbitration (serial). Merge the shards' sender lists in ascending
  //    id order; adaptive jammers see `view` (state through slot t-1 plus
  //    this slot's injections, which are the adversary's own); reactive
  //    jammers additionally see the sender list.
  scratch_sender_pids_.clear();
  scratch_sender_slabs_.clear();
  for_each_in_id_order(
      [](PacketShard& s) -> const std::vector<PacketId>& { return s.sender_ids; },
      [this](PacketId id, std::size_t sh, std::size_t pos) {
        scratch_sender_pids_.push_back(id);
        scratch_sender_slabs_.push_back(shards_[sh].senders[pos]);
      });
  const bool jammed = jammer_.jam(t, view(), scratch_sender_pids_);

  //    Outcome (§1.1): jam => noisy; two senders => noisy; one sender and
  //    no jam => success; else empty.
  const bool success = !jammed && scratch_sender_pids_.size() == 1;
  Feedback fb = Feedback::kNoisy;
  if (success) {
    fb = Feedback::kSuccess;
  } else if (!jammed && scratch_sender_pids_.empty()) {
    fb = Feedback::kEmpty;
  }

  //    Departure of the winner (it learns its success implicitly and never
  //    receives an on_observation callback).
  if (success) {
    const PacketId winner = scratch_sender_pids_.front();
    depart(t, winner % shards_.size(), scratch_sender_slabs_.front());
  }

  // 3. Feedback to every other accessor + gap redraw + wheel
  //    re-registration, parallel per shard ...
  phase_fb_ = fb;
  run_sharded(total, Phase::kFeedback);

  //    ... then the serial shard-merge: apply the recorded contention
  //    deltas and fire the window-change observers in ascending-id order
  //    (the FP accumulation order is part of the determinism contract).
  for_each_in_id_order(
      [](PacketShard& s) -> const std::vector<PacketId>& { return s.accessor_ids; },
      [this, t](PacketId id, std::size_t shard, std::size_t pos) {
        const PacketShard::Outcome& out = shards_[shard].outcomes[pos];
        if (out.departed) return;
        counters_.contention += out.contention_delta;
        max_window_ = std::max(max_window_, out.new_window);
        if (out.new_window != out.old_window) {
          for (auto* o : observers_) o->on_window_change(t, id, out.old_window, out.new_window);
        }
      });

  // 4. Counters + observers.
  ++counters_.active_slots;
  if (jammed) ++counters_.jammed_active_slots;
  counters_.slot = t;

  SlotInfo info;
  info.slot = t;
  info.accessors = static_cast<std::uint32_t>(total);
  info.senders = static_cast<std::uint32_t>(scratch_sender_pids_.size());
  info.jammed = jammed;
  info.success = success;
  info.feedback = fb;
  for (auto* obs : observers_) obs->on_slot(info, counters_);

  // 5. Open-system reclamation: the winner's slab goes back to its
  //    shard's free list now that phase 3 and every observer are done
  //    with the record. The NEXT arrival may reuse it — under a fresh
  //    logical id, so nothing observable changes (see sim_core.hpp).
  if (reclaim_pending_) {
    shards_[reclaim_pending_->first].store().release(reclaim_pending_->second);
    reclaim_pending_.reset();
  }
}

void SimCore::account_quiet_span(Slot lo, Slot hi) {
  if (hi < lo) return;
  const std::uint64_t len = hi - lo + 1;
  const std::uint64_t jams = jammer_.count_quiet_range(lo, hi, view());
  counters_.active_slots += len;
  counters_.jammed_active_slots += jams;
  counters_.slot = hi;
  for (auto* obs : observers_) obs->on_quiet_span(lo, hi, jams, counters_);
}

std::vector<const Packet*> SimCore::live_packets() const {
  std::vector<const Packet*> live;
  live.reserve(counters_.backlog);
  for (const PacketShard& s : shards_) {
    const PacketStore& store = s.store();
    for (std::uint32_t slab = 0; slab < store.capacity(); ++slab) {
      if (store.at(slab).active) live.push_back(&store.at(slab));
    }
  }
  std::sort(live.begin(), live.end(),
            [](const Packet* a, const Packet* b) { return a->id < b->id; });
  return live;
}

double SimCore::recompute_contention() const {
  double c = 0.0;
  for (const Packet* pkt : live_packets()) c += pkt->proto->send_prob();
  return c;
}

void SimCore::finish(RunResult* result) {
  // Departed packets folded their stats at departure (slot order); the
  // survivors are swept here in ascending LOGICAL id — the accumulation
  // order, and therefore every derived statistic bit for bit, is
  // independent of the shard count, the engine, and slab placement.
  for (const Packet* pkt : live_packets()) {
    access_stats_.add(static_cast<double>(pkt->accesses));
    send_stats_.add(static_cast<double>(pkt->sends));
    access_hist_.add(static_cast<double>(pkt->accesses));
    max_accesses_ = std::max(max_accesses_, pkt->accesses);
  }
  result->counters = counters_;
  result->drained = arrivals_exhausted() && counters_.backlog == 0;
  result->max_accesses = max_accesses_;
  result->peak_backlog = peak_backlog_;
  result->max_window_seen = max_window_;
  result->jams_total = jammer_.jams_used();
  for (const PacketShard& s : shards_) {
    result->slab_capacity += s.store().capacity();
    result->slabs_recycled += s.store().recycled();
  }
  result->access_stats = access_stats_;
  result->send_stats = send_stats_;
  result->latency_stats = latency_stats_;
  result->access_hist = access_hist_;
  for (auto* obs : observers_) obs->on_run_end(counters_);
}

}  // namespace lowsense::detail
