#include "layers.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "sim/sim_core.hpp"

namespace perfbench {

using lowsense::ArrivalBurst;
using lowsense::ArrivalProcess;
using lowsense::Counters;
using lowsense::Jammer;
using lowsense::Observation;
using lowsense::Observer;
using lowsense::PacketId;
using lowsense::Protocol;
using lowsense::ProtocolFactory;
using lowsense::Rng;
using lowsense::Slot;
using lowsense::SlotInfo;
using lowsense::SystemView;
using lowsense::detail::SimCore;

namespace {

/// Time one call in this many, per kind and thread. Kinds called once
/// per access or slot are subsampled; rare ones are timed every call.
constexpr std::array<std::uint64_t, kCallCount> kStride = {
    1,   // create
    32,  // protocol query
    8,   // protocol update
    8,   // protocol gap draw
    1,   // arrivals next
    8,   // jam
    4,   // quiet-range replay
    1,   // jammer other
    8,   // digest
    8,   // empty timed region
};

/// The top-level span the driver thread is in; read by workers too.
std::atomic<std::uint8_t> g_parent{static_cast<std::uint8_t>(kSpanOutside)};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadStats>> blocks;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadStats& local_stats() {
  thread_local ThreadStats* block = nullptr;
  if (block == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(std::make_unique<ThreadStats>());
    block = r.blocks.back().get();
  }
  return *block;
}

/// Counts one child call and, when it falls on the sampling stride,
/// times it until the end of the enclosing scope.
class CallTimer {
 public:
  explicit CallTimer(Call c) noexcept : stats_(local_stats()), call_(c) {
    const std::uint8_t parent = g_parent.load(std::memory_order_relaxed);
    ++stats_.calls[parent][c];
    if (stats_.tick[c]++ % kStride[c] == 0) {
      ++stats_.sampled_in[parent];
      start_ = now_ns();
    }
  }
  ~CallTimer() {
    if (start_ < 0) return;
    ++stats_.sampled[call_];
    stats_.sampled_ns[call_] += now_ns() - start_;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  ThreadStats& stats_;
  Call call_;
  std::int64_t start_ = -1;
};

class ProtocolProbe final : public Protocol {
 public:
  explicit ProtocolProbe(std::unique_ptr<Protocol> inner) : inner_(std::move(inner)) {}

  double access_prob() const noexcept override {
    CallTimer t(kCallQuery);
    return inner_->access_prob();
  }
  double send_prob_given_access() const noexcept override {
    CallTimer t(kCallQuery);
    return inner_->send_prob_given_access();
  }
  void on_observation(const Observation& obs) override {
    CallTimer t(kCallUpdate);
    inner_->on_observation(obs);
  }
  double window() const noexcept override {
    CallTimer t(kCallQuery);
    return inner_->window();
  }
  const char* name() const noexcept override {
    CallTimer t(kCallQuery);
    return inner_->name();
  }
  // Forwarded, never inherited: protocols with their own schedule
  // (windowed Ethernet) override draw_gap, and the default would draw a
  // geometric gap from access_prob instead.
  std::uint64_t draw_gap(Rng& rng) const override {
    CallTimer t(kCallGap);
    return inner_->draw_gap(rng);
  }

 private:
  std::unique_ptr<Protocol> inner_;
};

class FactoryProbe final : public ProtocolFactory {
 public:
  explicit FactoryProbe(const ProtocolFactory& inner) : inner_(inner) {}

  std::unique_ptr<Protocol> create() const override {
    std::unique_ptr<Protocol> p;
    {
      CallTimer t(kCallCreate);
      p = inner_.create();
    }
    return std::make_unique<ProtocolProbe>(std::move(p));
  }
  std::string name() const override { return inner_.name(); }

 private:
  const ProtocolFactory& inner_;
};

class ArrivalsProbe final : public ArrivalProcess {
 public:
  explicit ArrivalsProbe(ArrivalProcess& inner) : inner_(inner) {}

  std::optional<ArrivalBurst> next() override {
    CallTimer t(kCallArrivals);
    std::optional<ArrivalBurst> b = inner_.next();
    if (b) ++bursts_;
    return b;
  }
  std::string name() const override { return inner_.name(); }
  std::uint64_t bursts() const noexcept { return bursts_; }

 private:
  ArrivalProcess& inner_;
  std::uint64_t bursts_ = 0;
};

class JammerProbe final : public Jammer {
 public:
  explicit JammerProbe(Jammer& inner) : inner_(inner) {}

  bool jam(Slot slot, const SystemView& view, std::span<const PacketId> senders) override {
    CallTimer t(kCallJam);
    return inner_.jam(slot, view, senders);
  }
  std::uint64_t count_quiet_range(Slot lo, Slot hi, const SystemView& view) override {
    CallTimer t(kCallQuietRange);
    return inner_.count_quiet_range(lo, hi, view);
  }
  std::uint64_t jams_used() const noexcept override {
    CallTimer t(kCallJammerOther);
    return inner_.jams_used();
  }
  std::string name() const override {
    CallTimer t(kCallJammerOther);
    return inner_.name();
  }

 private:
  Jammer& inner_;
};

/// Forwards every callback to the digest and remembers the accessor
/// count of the slot resolved last (the loop's bucket-size probe).
class DigestProbe final : public Observer {
 public:
  explicit DigestProbe(Observer& inner) : inner_(inner) {}

  void on_arrival(Slot slot, PacketId id, const Protocol& proto) override {
    CallTimer t(kCallDigest);
    inner_.on_arrival(slot, id, proto);
  }
  void on_departure(Slot slot, PacketId id, Slot arrival_slot, std::uint64_t accesses,
                    std::uint64_t sends, double final_window) override {
    CallTimer t(kCallDigest);
    inner_.on_departure(slot, id, arrival_slot, accesses, sends, final_window);
  }
  void on_window_change(Slot slot, PacketId id, double old_window, double new_window) override {
    CallTimer t(kCallDigest);
    inner_.on_window_change(slot, id, old_window, new_window);
  }
  void on_slot(const SlotInfo& info, const Counters& counters) override {
    last_accessors_ = info.accessors;
    {
      CallTimer t(kCallDigest);
      inner_.on_slot(info, counters);
    }
    CallTimer self_timing(kCallEmpty);
  }
  void on_quiet_span(Slot from, Slot to, std::uint64_t jams, const Counters& counters) override {
    CallTimer t(kCallDigest);
    inner_.on_quiet_span(from, to, jams, counters);
  }
  void on_run_end(const Counters& counters) override {
    CallTimer t(kCallDigest);
    inner_.on_run_end(counters);
  }

  std::uint32_t last_accessors() const noexcept { return last_accessors_; }

 private:
  Observer& inner_;
  std::uint32_t last_accessors_ = 0;
};

/// Chained span clock: each lap closes the open span at the same clock
/// read that opens the next one, so the loop's glue between two calls is
/// charged to the call that follows it.
class SpanClock {
 public:
  explicit SpanClock(LoopProfile& p) : p_(p), mark_(now_ns()) {}

  void open(Span s) noexcept { g_parent.store(s, std::memory_order_relaxed); }
  /// Closes span s; returns its duration.
  std::int64_t lap(Span s) noexcept {
    const std::int64_t t = now_ns();
    const std::int64_t d = t - mark_;
    mark_ = t;
    p_.span_ns[s] += d;
    ++p_.span_calls[s];
    g_parent.store(static_cast<std::uint8_t>(kSpanOutside), std::memory_order_relaxed);
    return d;
  }

 private:
  LoopProfile& p_;
  std::int64_t mark_;
};

struct LoopState {
  SimCore& core;
  const lowsense::RunConfig& config;
  const DigestProbe& digest;
  LoopProfile& prof;
  SpanClock clock;

  Slot next_arrival() {
    clock.open(kSpanArrivals);
    const Slot s = core.next_arrival_slot();
    clock.lap(kSpanArrivals);
    return s;
  }
  void inject(Slot t) {
    const std::uint64_t before = core.counters().arrivals;
    clock.open(kSpanInject);
    core.inject_arrivals_at(t);
    clock.lap(kSpanInject);
    prof.injected += core.counters().arrivals - before;
  }
  void resolve(Slot t) {
    clock.open(kSpanResolve);
    core.resolve_slot(t);
    const std::int64_t d = clock.lap(kSpanResolve);
    const std::uint64_t k = digest.last_accessors();
    ++prof.slots;
    prof.accesses += k;
    prof.bucket_max = std::max<std::uint64_t>(prof.bucket_max, k);
    if (k >= SimCore::kParallelMinAccessors) {
      ++prof.heavy_slots;
      prof.heavy_accesses += k;
      prof.heavy_ns += d;
    } else {
      prof.light_ns += d;
    }
  }
  bool over_budget(Slot t) const {
    if (config.max_active_slots != 0 &&
        core.counters().active_slots >= config.max_active_slots) {
      return true;
    }
    return config.max_slot != 0 && t > config.max_slot;
  }
};

// EventEngine::run, call for call (src/sim/event_engine.cpp). The one
// liberty: inject_arrivals_at is skipped when no burst is due at t,
// where the engine's call is a no-op.
void event_loop(LoopState& s) {
  const lowsense::RunConfig& config = s.config;
  SimCore& core = s.core;
  Slot t = 0;
  while (true) {
    if (s.over_budget(t)) break;
    const Slot next_arr = s.next_arrival();
    s.clock.open(kSpanWheel);
    const Slot next_acc = core.next_access_slot();
    s.clock.lap(kSpanWheel);
    ++s.prof.queries;
    const Slot next_ev = std::min(next_arr, next_acc);
    if (next_ev == lowsense::kNoSlot) break;

    if (core.n_active() == 0) {
      t = next_ev;
    } else if (next_ev > t) {
      Slot hi = next_ev - 1;
      if (config.max_slot != 0) hi = std::min(hi, config.max_slot);
      if (config.max_active_slots != 0) {
        const std::uint64_t remaining = config.max_active_slots - core.counters().active_slots;
        if (hi - t + 1 > remaining) hi = t + remaining - 1;
      }
      s.clock.open(kSpanQuiet);
      core.account_quiet_span(t, hi);
      s.clock.lap(kSpanQuiet);
      ++s.prof.quiet_spans;
      s.prof.quiet_slots += hi - t + 1;
      t = hi + 1;
      if (t != next_ev) break;
    }
    if (s.over_budget(t)) break;
    if (next_arr == t) s.inject(t);
    s.resolve(t);
    ++t;
  }
}

// SlotEngine::run, call for call (src/sim/slot_engine.cpp).
void slot_loop(LoopState& s) {
  const lowsense::RunConfig& config = s.config;
  SimCore& core = s.core;
  Slot t = 0;
  while (true) {
    if (s.over_budget(t)) break;
    if (core.n_active() == 0) {
      const Slot next = s.next_arrival();
      if (next == lowsense::kNoSlot) break;
      t = next;
      if (config.max_slot != 0 && t > config.max_slot) break;
    } else {
      s.clock.open(kSpanWheel);
      const bool silent = core.no_future_access();
      s.clock.lap(kSpanWheel);
      ++s.prof.queries;
      if (silent && s.next_arrival() == lowsense::kNoSlot) break;
    }
    if (s.next_arrival() == t) s.inject(t);
    s.resolve(t);
    ++t;
  }
}

}  // namespace

std::uint64_t CallTotals::count(Call c) const noexcept {
  std::uint64_t n = 0;
  for (const auto& row : calls) n += row[c];
  return n;
}

double CallTotals::timer_ns() const noexcept {
  if (sampled[kCallEmpty] == 0) return 0.0;
  return static_cast<double>(sampled_ns[kCallEmpty]) / static_cast<double>(sampled[kCallEmpty]);
}

double CallTotals::raw_ns(Call c) const noexcept {
  if (sampled[c] == 0) return 0.0;
  return static_cast<double>(sampled_ns[c]) / static_cast<double>(sampled[c]);
}

double CallTotals::mean_ns(Call c) const noexcept {
  return sampled[c] == 0 ? 0.0 : raw_ns(c) - timer_ns();
}

bool CallTotals::resolved(Call c) const noexcept {
  return sampled[c] == 0 || mean_ns(c) >= timer_ns();
}

double CallTotals::driver_children_ns(std::size_t s) const noexcept {
  double ns = 2.0 * static_cast<double>(driver_sampled_in[s]) * timer_ns();
  for (std::size_t c = 0; c < kCallCount; ++c) {
    ns += static_cast<double>(driver_calls[s][c]) * mean_ns(static_cast<Call>(c));
  }
  return ns;
}

void CallTotals::add(const CallTotals& o) {
  for (std::size_t s = 0; s <= kSpanCount; ++s) {
    for (std::size_t c = 0; c < kCallCount; ++c) {
      calls[s][c] += o.calls[s][c];
      driver_calls[s][c] += o.driver_calls[s][c];
    }
    driver_sampled_in[s] += o.driver_sampled_in[s];
  }
  for (std::size_t c = 0; c < kCallCount; ++c) {
    sampled[c] += o.sampled[c];
    sampled_ns[c] += o.sampled_ns[c];
  }
}

void reset_call_stats() {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& b : r.blocks) *b = ThreadStats{};
  }
  local_stats().driver = true;
}

CallTotals collect_call_stats() {
  CallTotals out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.blocks) {
    for (std::size_t s = 0; s <= kSpanCount; ++s) {
      for (std::size_t c = 0; c < kCallCount; ++c) {
        out.calls[s][c] += b->calls[s][c];
        if (b->driver) out.driver_calls[s][c] += b->calls[s][c];
      }
      if (b->driver) out.driver_sampled_in[s] += b->sampled_in[s];
    }
    for (std::size_t c = 0; c < kCallCount; ++c) {
      out.sampled[c] += b->sampled[c];
      out.sampled_ns[c] += b->sampled_ns[c];
    }
  }
  return out;
}

void LoopProfile::add(const LoopProfile& o) {
  for (std::size_t s = 0; s < kSpanCount; ++s) {
    span_ns[s] += o.span_ns[s];
    span_calls[s] += o.span_calls[s];
  }
  construct_ns += o.construct_ns;
  wall_ns += o.wall_ns;
  slots += o.slots;
  accesses += o.accesses;
  bucket_max = std::max(bucket_max, o.bucket_max);
  heavy_slots += o.heavy_slots;
  heavy_accesses += o.heavy_accesses;
  heavy_ns += o.heavy_ns;
  light_ns += o.light_ns;
  quiet_spans += o.quiet_spans;
  quiet_slots += o.quiet_slots;
  queries += o.queries;
  injected += o.injected;
  bursts += o.bursts;
  jams += o.jams;
}

TracedRun run_traced(const lowsense::Scenario& scenario, std::uint64_t seed) {
  TracedRun out;
  LoopProfile& prof = out.loop;
  const std::int64_t begin = now_ns();

  auto factory = scenario.protocol();
  auto arrivals = scenario.arrivals(seed);
  std::unique_ptr<Jammer> jammer =
      scenario.jammer ? scenario.jammer(seed) : std::make_unique<lowsense::NoJammer>();
  FactoryProbe factory_probe(*factory);
  ArrivalsProbe arrivals_probe(*arrivals);
  JammerProbe jammer_probe(*jammer);
  lowsense::TraceDigest digest;
  DigestProbe digest_probe(digest);
  lowsense::RunConfig config = scenario.config;
  config.seed = seed;
  {
    SimCore core(factory_probe, arrivals_probe, jammer_probe, config);
    core.add_observer(&digest_probe);
    prof.construct_ns = now_ns() - begin;

    LoopState state{core, config, digest_probe, prof, SpanClock(prof)};
    if (scenario.engine == lowsense::EngineKind::kSlot) {
      slot_loop(state);
    } else {
      event_loop(state);
    }
    state.clock.open(kSpanFinish);
    core.finish(&out.result);
    state.clock.lap(kSpanFinish);
  }  // the shard pool joins here, before anyone sums its workers' blocks
  prof.wall_ns = now_ns() - begin;
  prof.bursts = arrivals_probe.bursts();
  prof.jams = out.result.jams_total;
  out.digest = digest.hex();
  return out;
}

}  // namespace perfbench
