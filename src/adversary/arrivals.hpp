// Packet arrival processes (the adversary's injection side, §1.1).
//
// An ArrivalProcess is a pull-stream of bursts at strictly increasing
// slots: nothing is pre-expanded, so a schedule is O(1) memory no matter
// how long the horizon — the open-system engines pull one burst ahead as
// the run advances. Both engines consume the same stream representation,
// so any process works with either engine. Stochastic processes
// (Poisson, AQT) take a `max_packets` truncation; 0 means UNBOUNDED —
// the stream never exhausts and the run is bounded by its slot budgets
// instead (steady-state mode). Adaptivity in this library lives in the
// jammers; arrival schedules are fixed per run (each adversarial pattern
// is a concrete worst-case schedule from the paper's discussion).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace lowsense {

struct ArrivalBurst {
  Slot slot = 0;
  std::uint64_t count = 0;
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Next burst, at a slot strictly greater than any previously returned.
  /// std::nullopt once the stream is exhausted (infinite processes never
  /// return nullopt but engines bound runs by horizon / packet budget).
  virtual std::optional<ArrivalBurst> next() = 0;

  virtual std::string name() const = 0;
};

/// All N packets arrive in slot 0 — the classical batch instance on which
/// BEB's throughput is Θ(1/log N) [23].
class BatchArrivals final : public ArrivalProcess {
 public:
  explicit BatchArrivals(std::uint64_t n, Slot slot = 0) : n_(n), slot_(slot) {}
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "batch"; }

 private:
  std::uint64_t n_;
  Slot slot_;
  bool done_ = false;
};

/// Fixed schedule of bursts (must be strictly increasing in slot).
class ScheduleArrivals final : public ArrivalProcess {
 public:
  explicit ScheduleArrivals(std::vector<ArrivalBurst> bursts);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "schedule"; }

 private:
  std::vector<ArrivalBurst> bursts_;
  std::size_t idx_ = 0;
};

/// Poisson arrivals at `rate` packets/slot (iid per slot), optionally
/// truncated after `max_packets` (0 = unbounded stream). Generated
/// lazily via exponential gaps. The rate must be finite and in
/// (0, kMaxRate]; anything else throws std::invalid_argument.
class PoissonArrivals final : public ArrivalProcess {
 public:
  /// Largest accepted rate, 2^52. Per-slot counts at rates >= 32 come
  /// from a normal approximation (Rng::poisson) that lands within 2^30 of
  /// the rate, so up to here its double converts to uint64 in range; far
  /// beyond it the cast is undefined behaviour and the nonzero-count loop
  /// can spin forever.
  static constexpr double kMaxRate = 0x1p52;

  PoissonArrivals(double rate, std::uint64_t max_packets, Rng rng);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override { return "poisson"; }

 private:
  double rate_;
  double p_nonempty_;        ///< P(Poisson(rate) > 0), the per-slot gap probability
  double log1m_p_nonempty_;  ///< ln(1 - p_nonempty_), for the cached gap draw
  bool unbounded_;
  std::uint64_t remaining_;
  Rng rng_;
  Slot cur_ = 0;
  bool first_ = true;
};

/// In-window placement patterns for adversarial-queuing arrivals.
enum class AqtPattern {
  kSpread,  ///< budget spaced evenly through each window
  kFront,   ///< whole budget as one burst at the window start
  kRandom,  ///< half the budget at uniform random offsets per window (half
            ///< so that sliding windows straddling a boundary stay legal)
  kPulse,   ///< alternating loaded/empty windows, double budget when loaded
};

/// Adversarial-queuing arrivals (granularity S, rate λ): at most λ·S
/// packets in any window of S consecutive slots, placed adversarially
/// (§1.1). `kPulse` drops the whole λ·S budget as one burst at the start
/// of every other window (maximum burstiness at half the average rate);
/// all patterns satisfy the sliding-window constraint, which the
/// AqtConstraintChecker (aqt.hpp) verifies in tests.
/// `max_packets` of 0 means an unbounded stream (steady-state mode).
class AqtArrivals final : public ArrivalProcess {
 public:
  AqtArrivals(double lambda, Slot granularity, AqtPattern pattern, std::uint64_t max_packets,
              Rng rng);
  std::optional<ArrivalBurst> next() override;
  std::string name() const override;

 private:
  void fill_window();

  double lambda_;
  Slot s_;
  AqtPattern pattern_;
  bool unbounded_;
  std::uint64_t remaining_;
  Rng rng_;
  Slot window_start_ = 0;
  std::uint64_t window_index_ = 0;
  std::vector<ArrivalBurst> pending_;  // bursts of the current window
  std::size_t pending_idx_ = 0;
};

}  // namespace lowsense
