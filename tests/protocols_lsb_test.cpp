// Unit tests for LOW-SENSING BACKOFF: the exact Fig. 1 arithmetic, the
// probability identities, and parameterized sweeps over the constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/low_sensing.hpp"

namespace lowsense {
namespace {

LowSensingParams default_params() { return LowSensingParams{}; }

TEST(LowSensingParams, DefaultsAreValid) {
  EXPECT_TRUE(default_params().valid());
  // The defaults must keep the listen probability unclamped at w_min:
  // c * ln^e(w_min) <= w_min.
  const LowSensingParams p = default_params();
  const double boost = p.c * std::pow(std::log(p.w_min), p.listen_exponent);
  EXPECT_LE(boost, p.w_min);
}

TEST(LowSensingParams, RejectsBadValues) {
  LowSensingParams p;
  p.c = 0.0;
  EXPECT_FALSE(p.valid());
  p = LowSensingParams{};
  p.w_min = 2.0;
  EXPECT_FALSE(p.valid());
  p = LowSensingParams{};
  p.listen_exponent = -1;
  EXPECT_FALSE(p.valid());
}

TEST(LowSensing, InitialWindowIsWMin) {
  LowSensingBackoff lsb(default_params());
  EXPECT_DOUBLE_EQ(lsb.window(), default_params().w_min);
}

TEST(LowSensing, SendProbIsOneOverW) {
  // The defining identity of Fig. 1: listen_prob * send_given_listen = 1/w
  // whenever neither factor is clamped.
  LowSensingBackoff lsb(default_params());
  EXPECT_NEAR(lsb.send_prob(), 1.0 / lsb.window(), 1e-12);

  // Grow the window and re-check the identity at a large w.
  for (int i = 0; i < 200; ++i) lsb.on_observation({Feedback::kNoisy, false});
  EXPECT_GT(lsb.window(), 100.0);
  EXPECT_NEAR(lsb.send_prob(), 1.0 / lsb.window(), 1e-12);
}

TEST(LowSensing, ListenProbMatchesFormula) {
  const LowSensingParams p = default_params();
  LowSensingBackoff lsb(p);
  const double w = lsb.window();
  const double expect = p.c * std::pow(std::log(w), p.listen_exponent) / w;
  EXPECT_NEAR(lsb.access_prob(), std::min(expect, 1.0), 1e-12);
}

TEST(LowSensing, NoisySlotBacksOffByExactFactor) {
  const LowSensingParams p = default_params();
  LowSensingBackoff lsb(p);
  const double w0 = lsb.window();
  const double factor = 1.0 + 1.0 / (p.c * std::log(w0));
  lsb.on_observation({Feedback::kNoisy, false});
  EXPECT_NEAR(lsb.window(), w0 * factor, 1e-12);
}

TEST(LowSensing, EmptySlotBacksOnByExactFactor) {
  const LowSensingParams p = default_params();
  LowSensingBackoff lsb(p);
  // First back off twice so the floor is not binding.
  lsb.on_observation({Feedback::kNoisy, false});
  lsb.on_observation({Feedback::kNoisy, false});
  const double w0 = lsb.window();
  const double factor = 1.0 + 1.0 / (p.c * std::log(w0));
  lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_NEAR(lsb.window(), w0 / factor, 1e-12);
}

TEST(LowSensing, BackonFloorsAtWMin) {
  LowSensingBackoff lsb(default_params());
  for (int i = 0; i < 50; ++i) lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_DOUBLE_EQ(lsb.window(), default_params().w_min);
}

TEST(LowSensing, SuccessFeedbackLeavesWindowUnchanged) {
  LowSensingBackoff lsb(default_params());
  lsb.on_observation({Feedback::kNoisy, false});
  const double w = lsb.window();
  lsb.on_observation({Feedback::kSuccess, false});
  EXPECT_DOUBLE_EQ(lsb.window(), w);
}

TEST(LowSensing, SentFlagDoesNotChangeUpdateRule) {
  // Fig. 1 keys only on what was heard; a sender that collided hears noise.
  LowSensingBackoff a(default_params());
  LowSensingBackoff b(default_params());
  a.on_observation({Feedback::kNoisy, true});
  b.on_observation({Feedback::kNoisy, false});
  EXPECT_DOUBLE_EQ(a.window(), b.window());
}

TEST(LowSensing, WindowNeverBelowTwoWithoutFloor) {
  LowSensingParams p = default_params();
  p.backon_floor = false;  // ablation mode
  LowSensingBackoff lsb(p);
  for (int i = 0; i < 500; ++i) lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_GE(lsb.window(), 2.0);  // Lemma 5.1 requires w >= 2 always
}

TEST(LowSensing, BackoffBackonRoundTripsApproximately) {
  // Backing off then on uses slightly different factors (evaluated at
  // different w), so the round trip is close to but not exactly identity.
  LowSensingBackoff lsb(default_params());
  for (int i = 0; i < 10; ++i) lsb.on_observation({Feedback::kNoisy, false});
  const double w = lsb.window();
  lsb.on_observation({Feedback::kNoisy, false});
  lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_NEAR(lsb.window(), w, w * 0.05);
}

TEST(LowSensing, ProbabilitiesAlwaysValid) {
  LowSensingBackoff lsb(default_params());
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const Feedback f = rng.bernoulli(0.5) ? Feedback::kNoisy : Feedback::kEmpty;
    lsb.on_observation({f, false});
    ASSERT_GE(lsb.access_prob(), 0.0);
    ASSERT_LE(lsb.access_prob(), 1.0);
    ASSERT_GE(lsb.send_prob_given_access(), 0.0);
    ASSERT_LE(lsb.send_prob_given_access(), 1.0);
    ASSERT_GE(lsb.window(), 2.0);
  }
}

TEST(LowSensing, ListenProbDecreasesInW) {
  // For w >= w_min with c ln^3 grows slower than w, listening gets rarer
  // as the window grows — the energy-saving mechanism.
  LowSensingBackoff lsb(default_params());
  double prev = lsb.access_prob();
  for (int i = 0; i < 300; ++i) {
    lsb.on_observation({Feedback::kNoisy, false});
    const double cur = lsb.access_prob();
    if (lsb.window() > 100.0) {
      ASSERT_LT(cur, prev);
    }
    prev = cur;
  }
}

TEST(LowSensingNoCd, SuccessBacksOnEverythingElseBacksOff) {
  LowSensingParams p;
  p.no_collision_detection = true;
  LowSensingBackoff lsb(p);
  const double w0 = lsb.window();
  // Empty now reads as "no success" and backs OFF (the key inversion).
  lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_GT(lsb.window(), w0);
  const double w1 = lsb.window();
  lsb.on_observation({Feedback::kNoisy, false});
  EXPECT_GT(lsb.window(), w1);
  // Success backs on, flooring at w_min.
  for (int i = 0; i < 50; ++i) lsb.on_observation({Feedback::kSuccess, false});
  EXPECT_DOUBLE_EQ(lsb.window(), p.w_min);
}

TEST(LowSensingNoCd, ExactFactorsMatchTernaryRules) {
  LowSensingParams p;
  p.no_collision_detection = true;
  LowSensingBackoff lsb(p);
  const double w0 = lsb.window();
  const double factor = 1.0 + 1.0 / (p.c * std::log(w0));
  lsb.on_observation({Feedback::kEmpty, false});
  EXPECT_NEAR(lsb.window(), w0 * factor, 1e-12);
}

TEST(LowSensing, FactoryProducesFreshInstances) {
  LowSensingFactory factory;
  auto a = factory.create();
  auto b = factory.create();
  a->on_observation({Feedback::kNoisy, false});
  EXPECT_GT(a->window(), b->window());
}

// --- Cache coherence: the cached ln(w) / ln(1 - p) never go stale --------

// Fig. 1 written the slow way: ln(w) recomputed at every use, the
// probabilities refreshed after every observation, and the gap drawn
// from ln(1 - p) on the spot. LowSensingBackoff must match it bit for bit.
struct ReferenceLsb {
  LowSensingParams p;
  double w;
  double listen = 0.0;
  double send_given = 0.0;

  explicit ReferenceLsb(const LowSensingParams& params) : p(params), w(params.w_min) {
    refresh();
  }

  void refresh() {
    double b = 1.0;
    for (int i = 0; i < p.listen_exponent; ++i) b *= std::log(w);
    const double boost = p.c * std::max(b, 1.0);
    listen = std::min(boost / w, 1.0);
    send_given = std::min(1.0 / boost, 1.0);
  }

  void observe(Feedback f) {
    const double factor = 1.0 + 1.0 / (p.c * std::max(std::log(w), 1.0));
    if (p.no_collision_detection ? f == Feedback::kSuccess : f == Feedback::kEmpty) {
      w /= factor;
      if (p.backon_floor) w = std::max(w, p.w_min);
      w = std::max(w, 2.0);
    } else if (p.no_collision_detection || f == Feedback::kNoisy) {
      w *= factor;
    }
    refresh();
  }

  std::uint64_t gap(Rng& rng) const {
    if (listen >= 1.0) return 1;
    const double g = std::ceil(std::log(rng.next_double_pos()) / std::log1p(-listen));
    if (g >= 9.0e18) return kNoSlot;
    return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
  }
};

void expect_coherent_with_reference(const LowSensingParams& p, std::uint64_t seed) {
  ASSERT_TRUE(p.valid());
  LowSensingBackoff lsb(p);
  ReferenceLsb ref(p);
  Rng feedback(seed);
  Rng gaps_a(seed + 1);
  Rng gaps_b(seed + 1);
  for (int i = 0; i < 20000; ++i) {
    // Alternate noisy-heavy and empty-heavy stretches so the window both
    // climbs far above w_min and sits on the floor for long runs.
    const double p_noisy = (i / 1000) % 2 == 0 ? 0.6 : 0.25;
    const double roll = feedback.next_double();
    const Feedback f = roll < p_noisy ? Feedback::kNoisy
                                      : (roll < 0.85 ? Feedback::kEmpty : Feedback::kSuccess);
    lsb.on_observation({f, roll < 0.1});
    ref.observe(f);
    ASSERT_EQ(lsb.window(), ref.w) << "step " << i;
    ASSERT_EQ(lsb.access_prob(), ref.listen) << "step " << i;
    ASSERT_EQ(lsb.send_prob_given_access(), ref.send_given) << "step " << i;
    ASSERT_EQ(lsb.draw_gap(gaps_a), ref.gap(gaps_b)) << "step " << i;
  }
  EXPECT_EQ(gaps_a.next_u64(), gaps_b.next_u64());
}

TEST(LowSensingCache, MatchesReferenceForEveryExponent) {
  for (int e = 0; e <= 8; ++e) {
    LowSensingParams p;
    p.listen_exponent = e;
    SCOPED_TRACE(e);
    expect_coherent_with_reference(p, 100 + static_cast<std::uint64_t>(e));
  }
}

TEST(LowSensingCache, MatchesReferenceWithoutBackonFloor) {
  for (int e : {1, 3}) {
    LowSensingParams p;
    p.listen_exponent = e;
    p.backon_floor = false;
    SCOPED_TRACE(e);
    expect_coherent_with_reference(p, 200 + static_cast<std::uint64_t>(e));
  }
}

TEST(LowSensingCache, MatchesReferenceWithoutCollisionDetection) {
  for (bool floor : {true, false}) {
    LowSensingParams p;
    p.no_collision_detection = true;
    p.backon_floor = floor;
    SCOPED_TRACE(floor);
    expect_coherent_with_reference(p, floor ? 301 : 302);
  }
}

// --- Parameterized sweep: the Fig. 1 identities hold across constants ----

struct ParamCase {
  double c;
  double w_min;
  int exponent;
};

class LowSensingParamSweep : public ::testing::TestWithParam<ParamCase> {};

TEST_P(LowSensingParamSweep, InvariantsHoldUnderRandomFeedback) {
  const ParamCase pc = GetParam();
  LowSensingParams p;
  p.c = pc.c;
  p.w_min = pc.w_min;
  p.listen_exponent = pc.exponent;
  ASSERT_TRUE(p.valid());
  LowSensingBackoff lsb(p);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double roll = rng.next_double();
    const Feedback f =
        roll < 0.45 ? Feedback::kNoisy : (roll < 0.9 ? Feedback::kEmpty : Feedback::kSuccess);
    lsb.on_observation({f, false});
    ASSERT_GE(lsb.window(), std::min(p.w_min, 2.0));
    ASSERT_LE(lsb.access_prob(), 1.0);
    ASSERT_GT(lsb.access_prob(), 0.0);
    // Unconditional send probability never exceeds 1/w (equality when
    // unclamped), so contention sums stay bounded by Σ 1/w.
    ASSERT_LE(lsb.send_prob(), 1.0 / lsb.window() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Constants, LowSensingParamSweep,
                         ::testing::Values(ParamCase{0.25, 16.0, 3}, ParamCase{0.5, 16.0, 3},
                                           ParamCase{1.0, 128.0, 3}, ParamCase{2.0, 1024.0, 3},
                                           ParamCase{0.5, 16.0, 0}, ParamCase{0.5, 16.0, 1},
                                           ParamCase{0.5, 16.0, 2}, ParamCase{0.5, 64.0, 4}));

}  // namespace
}  // namespace lowsense
