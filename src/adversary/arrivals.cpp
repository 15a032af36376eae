#include "adversary/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lowsense {

std::optional<ArrivalBurst> BatchArrivals::next() {
  if (done_ || n_ == 0) return std::nullopt;
  done_ = true;
  return ArrivalBurst{slot_, n_};
}

ScheduleArrivals::ScheduleArrivals(std::vector<ArrivalBurst> bursts) : bursts_(std::move(bursts)) {
  for (std::size_t i = 1; i < bursts_.size(); ++i) {
    if (bursts_[i].slot <= bursts_[i - 1].slot) {
      throw std::invalid_argument("ScheduleArrivals: slots must be strictly increasing");
    }
  }
}

std::optional<ArrivalBurst> ScheduleArrivals::next() {
  while (idx_ < bursts_.size() && bursts_[idx_].count == 0) ++idx_;
  if (idx_ >= bursts_.size()) return std::nullopt;
  return bursts_[idx_++];
}

PoissonArrivals::PoissonArrivals(double rate, std::uint64_t max_packets, Rng rng)
    : rate_(rate),
      p_nonempty_(-std::expm1(-rate)),
      log1m_p_nonempty_(std::log1p(-p_nonempty_)),
      unbounded_(max_packets == 0),
      remaining_(max_packets),
      rng_(rng) {
  if (!(rate > 0.0 && rate <= kMaxRate)) {
    throw std::invalid_argument("PoissonArrivals: rate must be finite, positive and <= 2^52");
  }
}

std::optional<ArrivalBurst> PoissonArrivals::next() {
  if (!unbounded_ && remaining_ == 0) return std::nullopt;
  // Slot-level Poisson process: geometric-ish gap to the next nonempty
  // slot, then a conditioned-nonzero Poisson count in that slot.
  const std::uint64_t gap = rng_.geometric_gap(p_nonempty_, log1m_p_nonempty_);
  const Slot slot = first_ ? cur_ + gap - 1 : cur_ + gap;
  first_ = false;
  cur_ = slot;
  std::uint64_t count = rng_.poisson_positive(rate_);
  if (!unbounded_) {
    count = std::min<std::uint64_t>(count, remaining_);
    remaining_ -= count;
  }
  return ArrivalBurst{slot, count};
}

AqtArrivals::AqtArrivals(double lambda, Slot granularity, AqtPattern pattern,
                         std::uint64_t max_packets, Rng rng)
    : lambda_(lambda),
      s_(granularity),
      pattern_(pattern),
      unbounded_(max_packets == 0),
      remaining_(max_packets),
      rng_(rng) {
  if (!(lambda > 0.0) || lambda > 1.0) throw std::invalid_argument("AqtArrivals: lambda in (0,1]");
  if (s_ < 2) throw std::invalid_argument("AqtArrivals: granularity must be >= 2");
  // floor(λ·S) > kMaxWindowBudget, computed in double as fill_window does.
  if (lambda * static_cast<double>(s_) >= static_cast<double>(kMaxWindowBudget) + 1.0) {
    throw std::invalid_argument("AqtArrivals: window budget lambda*S must be <= 2^20");
  }
}

std::string AqtArrivals::name() const {
  switch (pattern_) {
    case AqtPattern::kSpread: return "aqt-spread";
    case AqtPattern::kFront: return "aqt-front";
    case AqtPattern::kRandom: return "aqt-random";
    case AqtPattern::kPulse: return "aqt-pulse";
  }
  return "aqt";
}

void AqtArrivals::fill_window() {
  pending_.clear();
  pending_idx_ = 0;
  const auto budget = static_cast<std::uint64_t>(lambda_ * static_cast<double>(s_));
  if (budget == 0) {
    // Degenerate rate: one packet every ceil(1/lambda) slots.
    pending_.push_back({window_start_, 1});
    return;
  }
  switch (pattern_) {
    case AqtPattern::kFront:
      pending_.push_back({window_start_, budget});
      break;
    case AqtPattern::kPulse:
      if (window_index_ % 2 == 0) pending_.push_back({window_start_, budget});
      break;
    case AqtPattern::kSpread: {
      // `budget` singletons evenly spaced through the window.
      for (std::uint64_t i = 0; i < budget; ++i) {
        const Slot off = i * s_ / budget;
        if (!pending_.empty() && pending_.back().slot == window_start_ + off) {
          ++pending_.back().count;
        } else {
          pending_.push_back({window_start_ + off, 1});
        }
      }
      break;
    }
    case AqtPattern::kRandom: {
      // Random placement must remain legal under SLIDING windows: offsets
      // can cluster at adjacent window boundaries, so a straddling window
      // could see two windows' worth. Placing only floor(budget/2) events
      // per window keeps every sliding window at <= 2*(budget/2) <= budget.
      const std::uint64_t half = budget / 2;
      if (half == 0) {
        // Budget 1: one event every OTHER window keeps sliding loads <= 1.
        if (window_index_ % 2 == 0) {
          pending_.push_back({window_start_ + rng_.next_below(s_), 1});
        }
        break;
      }
      std::vector<Slot> offs;
      offs.reserve(half);
      for (std::uint64_t i = 0; i < half; ++i) offs.push_back(rng_.next_below(s_));
      std::sort(offs.begin(), offs.end());
      for (Slot off : offs) {
        if (!pending_.empty() && pending_.back().slot == window_start_ + off) {
          ++pending_.back().count;
        } else {
          pending_.push_back({window_start_ + off, 1});
        }
      }
      break;
    }
  }
}

std::optional<ArrivalBurst> AqtArrivals::next() {
  if (!unbounded_ && remaining_ == 0) return std::nullopt;
  while (pending_idx_ >= pending_.size()) {
    if (window_index_ > 0 || !pending_.empty()) {
      window_start_ += s_;
    }
    fill_window();
    ++window_index_;
  }
  ArrivalBurst burst = pending_[pending_idx_++];
  if (!unbounded_) {
    burst.count = std::min<std::uint64_t>(burst.count, remaining_);
    remaining_ -= burst.count;
  }
  return burst;
}

}  // namespace lowsense
