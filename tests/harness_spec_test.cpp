// Arrival and jammer spec strings, protocol names and numeric flags are
// untrusted input (CLI flags, pack lines): each malformed value must come
// back as nullptr / nullopt / a std::invalid_argument — which every caller
// turns into a usage error with exit 2 — rather than abort at run time,
// wrap a sign into 2^64, drop trailing bytes, or quietly run with NaN.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/parse.hpp"
#include "harness/experiment.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

TEST(NumberParse, UnsignedTakesTheWholeStringOrNothing) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "10abc", "1e6", "5e3", "0x10", "1.0",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad)) << bad;
  }
}

TEST(NumberParse, DoubleMustBeWholeAndFinite) {
  EXPECT_EQ(parse_f64("0.25"), 0.25);
  EXPECT_EQ(parse_f64("-3"), -3.0);
  EXPECT_EQ(parse_f64("1e6"), 1e6);
  for (const char* bad : {"", "nan", "NaN", "inf", "-inf", "infinity", "1e400", "0.2x", " 0.2",
                          "0.2 ", "+0.2", "abc"}) {
    EXPECT_FALSE(parse_f64(bad)) << bad;
  }
}

TEST(ArgsNumbers, MalformedValuesThrowInsteadOfTruncating) {
  const Args args = make_args({"--seed=1e6", "--reps=abc", "--max-active-slots=5e3",
                               "--threads=-1", "--rate=0.2x", "--lambda=nan", "--n=42",
                               "--p=0.5"});
  for (const char* key : {"seed", "reps", "max-active-slots", "threads"}) {
    EXPECT_THROW(args.u64(key, 1), std::invalid_argument) << key;
  }
  for (const char* key : {"rate", "lambda"}) {
    EXPECT_THROW(args.f64(key, 1.0), std::invalid_argument) << key;
  }
  EXPECT_EQ(args.u64("n", 1), 42u);
  EXPECT_EQ(args.f64("p", 1.0), 0.5);
  EXPECT_EQ(args.u64("absent", 7), 7u);
}

TEST(ProtocolSpec, AlohaProbabilityIsTheWholeField) {
  EXPECT_TRUE(make_protocol("aloha:0.5"));
  for (const char* bad : {"aloha:0.5xyz", "aloha:nan", "aloha:", "aloha:0", "aloha:1.5"}) {
    EXPECT_FALSE(make_protocol(bad)) << bad;
  }
}

TEST(ArrivalsSpec, TrailingBytesAreRejected) {
  EXPECT_FALSE(parse_arrivals_spec("batch:10abc"));
  EXPECT_FALSE(parse_arrivals_spec("poisson:0.05x,10"));
  EXPECT_FALSE(parse_arrivals_spec("aqt:0.1,5,front,10 "));
  EXPECT_FALSE(parse_arrivals_spec("batch:10,"));
}

TEST(JammerSpec, TrailingBytesAreRejected) {
  EXPECT_FALSE(parse_jammer_spec("random:0.2x"));
  EXPECT_FALSE(parse_jammer_spec("burst:100,10x"));
  EXPECT_FALSE(parse_jammer_spec("randband:1,3,0.5,10,2x"));
  EXPECT_FALSE(parse_jammer_spec("random:0.2,"));
}

TEST(ArrivalsSpec, NanPoissonRateIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:nan,10"));
}

TEST(ArrivalsSpec, NegativePoissonRateIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:-0.5,10"));
}

TEST(ArrivalsSpec, InfinitePoissonRateIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:inf,10"));
  EXPECT_FALSE(parse_arrivals_spec("poisson:infinity,0"));
}

TEST(ArrivalsSpec, PoissonRateAboveTwoToThe52IsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:1e300,10"));
  EXPECT_FALSE(parse_arrivals_spec("poisson:1e16,10"));
  EXPECT_TRUE(parse_arrivals_spec("poisson:4503599627370496,10"));  // 2^52 itself
  EXPECT_TRUE(parse_arrivals_spec("poisson:1e6,10"));
}

TEST(ArrivalsSpec, AqtLambdaOutOfRangeIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("aqt:1.5,5,front,10"));
  EXPECT_FALSE(parse_arrivals_spec("aqt:0.1,1,front,10"));  // granularity < 2
}

TEST(ArrivalsSpec, SignedBatchSizeIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("batch:-1"));
  EXPECT_FALSE(parse_arrivals_spec("batch:+1"));
  EXPECT_FALSE(parse_arrivals_spec("batch: -1"));
}

TEST(ArrivalsSpec, SignedAqtGranularityIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("aqt:0.1,-5,front,10"));
}

TEST(JammerSpec, SignedVictimFieldsAreRejected) {
  EXPECT_TRUE(parse_jammer_spec("victim:1,1"));
  EXPECT_FALSE(parse_jammer_spec("victim:-1,-1"));
  EXPECT_FALSE(parse_jammer_spec("victim:1,-1"));
}

TEST(JammerSpec, NanRandomRateIsRejected) {
  EXPECT_TRUE(parse_jammer_spec("random:0.5"));
  EXPECT_FALSE(parse_jammer_spec("random:nan"));
}

TEST(JammerSpec, NanRandbandRateIsRejected) {
  EXPECT_TRUE(parse_jammer_spec("randband:1,3,0.5"));
  EXPECT_FALSE(parse_jammer_spec("randband:1,3,nan"));
}

TEST(JammerSpec, NanBandEdgeIsRejected) {
  EXPECT_FALSE(parse_jammer_spec("band:1,nan,5"));
  EXPECT_FALSE(parse_jammer_spec("randband:1,nan,0.5"));
}

}  // namespace
}  // namespace lowsense
