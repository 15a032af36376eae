// Implementation of the shared simulation core: the ternary-feedback
// channel semantics of §1.1 live in the three-phase resolve below. See
// sim_core.hpp for the open-system storage and determinism invariants.
#include "sim/sim_core.hpp"

#include <algorithm>
#include <cassert>

namespace lowsense::detail {

namespace {

/// Stream offset of the per-packet send-coin keys: the packet with
/// logical id i draws its coins from CounterRng(seed, kPacketCoinStream
/// + i). The offset keeps the packet key space disjoint from the small
/// stream ids the jammers use (0xb1, 0xb2 — see jammer_rng in
/// harness/experiment.hpp). Logical ids are never recycled, so a slab's
/// next tenant always draws from a fresh, decorrelated coin key.
constexpr std::uint64_t kPacketCoinStream = 1ULL << 32;

}  // namespace

SimCore::SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
                 const RunConfig& config)
    : factory_(factory), arrivals_(arrivals), jammer_(jammer), config_(config) {}

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
      const std::uint32_t slab = store_.acquire(id);
      Packet& pkt = store_.at(slab);
      pkt.proto = factory_.create();
      pkt.rng = Rng::stream(config_.seed, id);
      store_.coin_key(slab) = CounterRng(config_.seed, kPacketCoinStream + id).key();
      pkt.arrival = t;
      pkt.active = true;
      store_.send_prob(slab) = pkt.proto->send_prob();
      // A packet injected at slot t may act in slot t itself (Fig. 1 sets
      // w_u(t) = w_min at the injection slot), so the first gap is
      // anchored at t, not t+1.
      const std::uint64_t gap = pkt.proto->draw_gap(pkt.rng);
      const Slot first = gap == kNoSlot ? kNoSlot : t + gap - 1;
      store_.next_access(slab) = first;
      if (first != kNoSlot) wheel_.schedule(slab, first);
      counters_.contention += store_.send_prob(slab);
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

void SimCore::depart(Slot t, std::uint32_t slab) {
  Packet& pkt = store_.at(slab);
  assert(pkt.active);
  // No wheel entry to drop: a packet departs only in a slot it accessed,
  // and its entry for that slot was popped before the resolve ran. Mark
  // the access spent so nothing re-schedules it.
  store_.next_access(slab) = kNoSlot;
  pkt.active = false;
  counters_.contention -= store_.send_prob(slab);
  --counters_.backlog;
  ++counters_.successes;
  latency_stats_.add(static_cast<double>(t - pkt.arrival + 1));
  // Fold the departed packet's per-packet stats NOW — its record may be
  // reclaimed at the end of this slot. At most one packet departs per
  // slot, so the accumulation order (departures in slot order, then the
  // survivors in ascending id at finish) is canonical: independent of
  // engine, slab placement, and reclamation.
  access_stats_.add(static_cast<double>(pkt.accesses));
  send_stats_.add(static_cast<double>(pkt.sends));
  access_hist_.add(static_cast<double>(pkt.accesses));
  max_accesses_ = std::max(max_accesses_, pkt.accesses);
  for (auto* obs : observers_) {
    obs->on_departure(t, pkt.id, pkt.arrival, pkt.accesses, pkt.sends, pkt.proto->window());
  }
}

// Phase 1: canonicalize the bucket (ascending LOGICAL id — slab order is
// placement, not identity, and recycling makes it non-monotone), tally
// accesses, and evaluate the slot-keyed send coins in one batched call.
std::uint32_t SimCore::phase_send_draws(Slot t) {
  auto& acc = accessors_;
  const std::size_t k = acc.size();
  sort_tmp_.resize(k);
  for (std::size_t i = 0; i < k; ++i) sort_tmp_[i] = {store_.at(acc[i]).id, acc[i]};
  // Logical ids are unique, so comparing them alone is a total order.
  std::sort(sort_tmp_.begin(), sort_tmp_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  coin_keys_.resize(k);
  coin_ps_.resize(k);
  coin_out_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    acc[i] = sort_tmp_[i].second;
    Packet& pkt = store_.at(acc[i]);
    assert(pkt.active);  // a reclaimed slab can never sit in the wheel
    ++pkt.accesses;
    coin_keys_[i] = store_.coin_key(acc[i]);
    coin_ps_[i] = pkt.proto->send_prob_given_access();
  }
  CounterRng::bernoulli_batch(coin_keys_.data(), coin_ps_.data(), k, t, coin_out_.data());
  sender_ids_.clear();
  std::uint32_t first_sender = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Packet& pkt = store_.at(acc[i]);
    pkt.sent = coin_out_[i] != 0;
    if (pkt.sent) {
      ++pkt.sends;
      if (sender_ids_.empty()) first_sender = acc[i];
      sender_ids_.push_back(sort_tmp_[i].first);
    }
  }
  return first_sender;
}

// Phase 3: in ascending id, deliver the observation to every accessor
// that did not depart, redraw its gap and re-register it in the wheel,
// then apply its contention delta and fire on_window_change (after the
// slot's on_departure). The FP accumulation order is part of the
// determinism contract.
void SimCore::phase_feedback(Slot t, Feedback fb) {
  for (const std::uint32_t slab : accessors_) {
    Packet& pkt = store_.at(slab);
    if (!pkt.active) continue;  // the slot's winner: no feedback, no redraw
    const double old_window = pkt.proto->window();
    pkt.proto->on_observation(Observation{fb, pkt.sent});
    const double new_window = pkt.proto->window();
    const double new_sp = pkt.proto->send_prob();
    counters_.contention += new_sp - store_.send_prob(slab);
    store_.send_prob(slab) = new_sp;
    const std::uint64_t gap = pkt.proto->draw_gap(pkt.rng);
    const Slot next = gap == kNoSlot ? kNoSlot : t + gap;
    store_.next_access(slab) = next;
    if (next != kNoSlot) wheel_.schedule(slab, next);
    max_window_ = std::max(max_window_, new_window);
    if (new_window != old_window) {
      for (auto* o : observers_) o->on_window_change(t, pkt.id, old_window, new_window);
    }
  }
}

bool SimCore::over_budget(Slot t) const noexcept {
  if (config_.max_slot != 0 && t > config_.max_slot) return true;
  return config_.max_active_slots != 0 && counters_.active_slots >= config_.max_active_slots;
}

// The one run loop; sim_core.hpp documents the two walks.
RunResult SimCore::run(EngineKind walk) {
  Slot t = 0;
  while (!over_budget(t)) {
    if (n_active() == 0) {
      // Inactive stretch: skip (uncounted) to the next arrival.
      t = next_arrival_slot();
      if (t == kNoSlot) break;  // drained
    } else if (walk == EngineKind::kSlot) {
      // A backlog with no scheduled access and no arrival to come is
      // silent forever: stop instead of spinning on empty slots.
      if (no_future_access() && next_arrival_slot() == kNoSlot) break;
    } else {
      const Slot next_ev = std::min(next_arrival_slot(), next_access_slot());
      if (next_ev == kNoSlot) break;  // silent forever, as above
      if (next_ev > t) {
        // Access-free active span [t, next_ev-1]: state is constant, so
        // account it in one step, clipped to both budgets.
        Slot hi = next_ev - 1;
        if (config_.max_slot != 0) hi = std::min(hi, config_.max_slot);
        if (config_.max_active_slots != 0) {
          const std::uint64_t remaining = config_.max_active_slots - counters_.active_slots;
          if (hi - t + 1 > remaining) hi = t + remaining - 1;
        }
        account_quiet_span(t, hi);
        t = hi + 1;
        if (t != next_ev) break;  // a budget cut the span short
      }
    }
    // The skip may land past a budget; such a slot is never resolved.
    if (over_budget(t)) break;
    // Injections first: a packet may access in its arrival slot.
    inject_arrivals_at(t);
    resolve_slot(t);
    ++t;
  }
  RunResult result;
  finish(&result);
  return result;
}

void SimCore::resolve_slot(Slot t) {
  accessors_.clear();
  wheel_.pop_slot(t, &accessors_);

  // 1. Send decisions: one slot-keyed coin per accessor, pure in
  //    (seed, id, t).
  const std::uint32_t first_sender = phase_send_draws(t);

  // 2. Arbitration. Adaptive jammers see `view` (state through slot t-1
  //    plus this slot's injections, which are the adversary's own);
  //    reactive jammers additionally see the ascending-id sender list.
  const bool jammed = jammer_.jam(t, view(), sender_ids_);

  //    Outcome (§1.1): jam => noisy; two senders => noisy; one sender and
  //    no jam => success; else empty.
  const bool success = !jammed && sender_ids_.size() == 1;
  Feedback fb = Feedback::kNoisy;
  if (success) {
    fb = Feedback::kSuccess;
  } else if (!jammed && sender_ids_.empty()) {
    fb = Feedback::kEmpty;
  }

  //    Departure of the winner (it learns its success implicitly and never
  //    receives an on_observation callback).
  if (success) depart(t, first_sender);

  // 3. Feedback to every other accessor + gap redraw + wheel
  //    re-registration + contention and window bookkeeping.
  phase_feedback(t, fb);

  // 4. Counters + observers.
  ++counters_.active_slots;
  if (jammed) ++counters_.jammed_active_slots;
  counters_.slot = t;

  SlotInfo info;
  info.slot = t;
  info.accessors = static_cast<std::uint32_t>(accessors_.size());
  info.senders = static_cast<std::uint32_t>(sender_ids_.size());
  info.jammed = jammed;
  info.success = success;
  info.feedback = fb;
  for (auto* obs : observers_) obs->on_slot(info, counters_);

  // 5. Open-system reclamation: the winner's slab goes back to the free
  //    list now that phase 3 (which checks `active`) and every observer
  //    are done with the record. The NEXT arrival may reuse it — under a
  //    fresh logical id, so nothing observable changes (see sim_core.hpp).
  if (success && config_.reclaim) store_.release(first_sender);
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
  for (std::uint32_t slab = 0; slab < store_.capacity(); ++slab) {
    if (store_.at(slab).active) live.push_back(&store_.at(slab));
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
  // independent of the engine and slab placement.
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
  result->slab_capacity = store_.capacity();
  result->slabs_recycled = store_.recycled();
  result->access_stats = access_stats_;
  result->send_stats = send_stats_;
  result->latency_stats = latency_stats_;
  result->access_hist = access_hist_;
  for (auto* obs : observers_) obs->on_run_end(counters_);
}

}  // namespace lowsense::detail
