#include "core/rng.hpp"

#include <algorithm>
#include <limits>

namespace lowsense {

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() - std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

std::uint64_t Rng::geometric_gap(double p, double log1m_p) noexcept {
  if (p >= 1.0) return 1;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  // Inverse transform: gap = ceil(ln U / ln(1-p)) for U in (0,1].
  const double u = next_double_pos();
  const double g = std::ceil(std::log(u) / log1m_p);
  if (g >= 9.0e18) return std::numeric_limits<std::uint64_t>::max();
  return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
}

std::uint64_t Rng::poisson_knuth(double l) noexcept {
  std::uint64_t k = 0;
  double prod = next_double_pos();
  while (prod > l) {
    ++k;
    prod *= next_double_pos();
  }
  return k;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 32.0) return poisson_knuth(std::exp(-mean));
  // Normal approximation with continuity correction; adequate for the
  // high-rate arrival processes used in long-horizon experiments.
  const double u1 = next_double_pos();
  const double u2 = next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double x = mean + std::sqrt(mean) * z + 0.5;
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x);
}

std::uint64_t Rng::poisson_positive(double mean) noexcept {
  if (!(mean > 0.0)) return 0;
  std::uint64_t k = 0;
  if (mean < 32.0) {
    const double l = std::exp(-mean);  // fixed across the rejection loop
    do {
      k = poisson_knuth(l);
    } while (k == 0);
  } else {
    do {
      k = poisson(mean);
    } while (k == 0);
  }
  return k;
}

std::uint64_t CounterRng::draw_below(std::uint64_t counter, std::uint64_t n,
                                     std::uint64_t lane) const noexcept {
  if (n <= 1) return 0;
  const auto wide = static_cast<unsigned __int128>(draw(counter, lane));
  return static_cast<std::uint64_t>((wide * n) >> 64);
}

std::uint64_t CounterRng::bernoulli_threshold(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return 1ULL << 53;  // every draw >> 11 is below 2^53
  // p * 2^53 is an exact power-of-two scaling; ceil() makes the integer
  // compare equivalent to the real one for both integral and fractional
  // thresholds (x < T_real  <=>  x < ceil(T_real) for integer x).
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

// The three batched coin loops below are the golden-pinned reference
// (tests/core_rng_test.cpp). This TU builds with -ffp-contract=off (see
// CMakeLists.txt) so the jittered-band double math is never fused into
// FMAs on targets where contraction is the compiler default.

std::uint64_t CounterRng::count_bernoulli_span(std::uint64_t lo, std::uint64_t hi, double p,
                                               std::uint64_t cap,
                                               std::uint64_t lane) const noexcept {
  if (hi < lo || cap == 0) return 0;
  const std::uint64_t thr = bernoulli_threshold(p);
  if (thr == 0) return 0;
  const std::uint64_t len = hi - lo + 1;
  if (thr == (1ULL << 53)) return len < cap ? len : cap;
  std::uint64_t n = 0;
  std::uint64_t c = lo;
  // 64-coin blocks: build a success mask, popcount it. Counting is
  // monotone, so min(total, cap) equals the loop-until-cap replay and
  // the cap check only needs to run per block. The full-range span
  // (lo = 0, hi = 2^64 - 1) wraps the block length to 0 and returns 0.
  while (c <= hi && n < cap) {
    const std::uint64_t block = std::min<std::uint64_t>(64, hi - c + 1);
    std::uint64_t mask = 0;
    for (std::uint64_t i = 0; i < block; ++i) {
      mask |= static_cast<std::uint64_t>((draw_with_key(key_, c + i, lane) >> 11) < thr) << i;
    }
    n += static_cast<std::uint64_t>(__builtin_popcountll(mask));
    if (c + block - 1 == hi) break;  // avoid overflow when hi is huge
    c += block;
  }
  return n < cap ? n : cap;
}

void CounterRng::bernoulli_batch(const std::uint64_t* keys, const double* ps, std::size_t n,
                                 std::uint64_t counter, std::uint8_t* out,
                                 std::uint64_t lane) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((draw_with_key(keys[i], counter, lane) >> 11) <
                                       bernoulli_threshold(ps[i]));
  }
}

std::uint64_t CounterRng::count_jittered_band_span(std::uint64_t lo, std::uint64_t hi,
                                                   double contention, double band_lo,
                                                   double band_hi, double jitter, double rate,
                                                   std::uint64_t cap) const noexcept {
  if (hi < lo || cap == 0) return 0;
  const std::uint64_t thr = bernoulli_threshold(rate);
  if (thr == 0) return 0;  // the lane-0 coin never hits, band or no band
  // Per slot: lanes 1/2 jitter each band edge outward by an independent
  // uniform amount in [0, jitter); lane 0 is the jam coin, as an integer
  // threshold compare (exact — see bernoulli_threshold). Unlike the span
  // count above, this loop never forms a length, so the full-range span
  // walks slots until the cap stops it.
  std::uint64_t n = 0;
  for (std::uint64_t t = lo; t <= hi && n < cap; ++t) {
    const double u_lo = static_cast<double>(draw_with_key(key_, t, 1) >> 11) * 0x1.0p-53;
    const double u_hi = static_cast<double>(draw_with_key(key_, t, 2) >> 11) * 0x1.0p-53;
    const double lo_t = band_lo - jitter * u_lo;
    const double hi_t = band_hi + jitter * u_hi;
    if (contention < lo_t || contention > hi_t) continue;
    n += static_cast<std::uint64_t>((draw_with_key(key_, t, 0) >> 11) < thr);
  }
  return n < cap ? n : cap;
}

}  // namespace lowsense
