// ExactSum: the exact, order-independent, invertible accumulator behind the
// O(1) SUM/AVG running totals. Checks exact retraction, order independence
// over the whole double range (including heavy cancellation), correct
// round-to-nearest-even finalization, and the fixed conventions for signed
// zeros, subnormals and non-finite operands.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "aseq/exact_sum.h"

namespace aseq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kMinSub = std::numeric_limits<double>::denorm_min();

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

double SumOf(const std::vector<double>& values) {
  ExactSum s;
  for (double v : values) s.Add(v);
  return s.Finalize();
}

/// Random doubles with random signs and exponents spread over
/// 2^-1070..2^1020.
std::vector<double> WideValues(std::mt19937_64* rng, size_t n) {
  std::uniform_int_distribution<int> exp(-1070, 1020);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) {
    const double v = std::ldexp(mant(*rng), exp(*rng));
    values.push_back(((*rng)() & 1) != 0 ? -v : v);
  }
  return values;
}

TEST(ExactSumTest, EmptyIsPositiveZero) {
  ExactSum s;
  EXPECT_EQ(Bits(s.Finalize()), Bits(0.0));
}

TEST(ExactSumTest, AddThenSubIsExactZero) {
  std::mt19937_64 rng(1);
  const std::vector<double> values = WideValues(&rng, 500);
  ExactSum s;
  for (double v : values) s.Add(v);
  for (double v : values) s.Sub(v);
  EXPECT_EQ(s, ExactSum());
  EXPECT_EQ(Bits(s.Finalize()), Bits(0.0));
}

TEST(ExactSumTest, RetractionRestoresPriorState) {
  std::mt19937_64 rng(2);
  ExactSum s;
  for (double v : WideValues(&rng, 100)) s.Add(v);
  const ExactSum before = s;
  for (double v : {1.0, -3.5e300, 7e-310, kMinSub, -kMax}) {
    s.Add(v);
    s.Sub(v);
    EXPECT_EQ(s, before) << v;
  }
}

TEST(ExactSumTest, OrderIndependentUnderPermutation) {
  std::mt19937_64 rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values = WideValues(&rng, 300);
    // Heavy cancellation: every big term also appears negated, leaving
    // only the small terms' exact sum.
    const size_t n = values.size();
    for (size_t i = 0; i < n; i += 3) values.push_back(-values[i]);
    ExactSum reference;
    for (double v : values) reference.Add(v);
    const double expected = reference.Finalize();
    for (int shuffle = 0; shuffle < 10; ++shuffle) {
      std::shuffle(values.begin(), values.end(), rng);
      ExactSum s;
      for (double v : values) s.Add(v);
      EXPECT_EQ(s, reference);
      EXPECT_EQ(Bits(s.Finalize()), Bits(expected));
      // Split into two partial sums and merge: same bits.
      ExactSum left, right;
      for (size_t i = 0; i < values.size(); ++i) {
        (i % 2 == 0 ? left : right).Add(values[i]);
      }
      left.Merge(right);
      EXPECT_EQ(left, reference);
    }
  }
}

TEST(ExactSumTest, CancellationLeavesTinyResidue) {
  ExactSum s;
  s.Add(1e308);
  s.Add(kMinSub);
  s.Add(-1e308);
  s.Add(3e-320);
  s.Sub(1e300);
  s.Add(1e300);
  EXPECT_EQ(s.Finalize(), kMinSub + 3e-320);  // both subnormal: exact
}

TEST(ExactSumTest, TwoTermsMatchIeeeAddition) {
  // IEEE addition of two doubles is correctly rounded to nearest-even, so
  // it is an exact reference for Finalize() on two operands.
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<int> spread(0, 80);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  for (int i = 0; i < 20000; ++i) {
    const double a = WideValues(&rng, 1)[0];
    // b sits up to 80 binades below a, so rounding happens and the sticky
    // bit gets exercised; it may land in the subnormal range.
    double b = std::ldexp(mant(rng),
                          std::max(-1074, std::ilogb(a) - spread(rng)));
    if ((rng() & 1) != 0) b = -b;
    ExactSum s;
    s.Add(a);
    s.Add(b);
    EXPECT_EQ(Bits(s.Finalize()), Bits(a + b)) << a << " + " << b;
  }
}

TEST(ExactSumTest, RoundsHalfToEven) {
  const double ulp1 = std::ldexp(1.0, -52);
  // Exact tie, even mantissa: stays.
  EXPECT_EQ(SumOf({1.0, ulp1 / 2}), 1.0);
  // Exact tie, odd mantissa: rounds up to even.
  EXPECT_EQ(SumOf({1.0 + ulp1, ulp1 / 2}), 1.0 + 2 * ulp1);
  // Just above the tie (a sticky bit far below): rounds up.
  EXPECT_EQ(SumOf({1.0, ulp1 / 2, kMinSub}), 1.0 + ulp1);
  // Just below the tie: rounds down.
  EXPECT_EQ(SumOf({1.0, ulp1 / 2, -kMinSub}), 1.0);
  // Negative values mirror.
  EXPECT_EQ(SumOf({-1.0, -ulp1 / 2, -kMinSub}), -1.0 - ulp1);
  // Rounding up can carry into the next binade.
  EXPECT_EQ(SumOf({2.0 - ulp1, ulp1 / 2}), 2.0);
}

TEST(ExactSumTest, OverflowRoundsToInfinity) {
  EXPECT_EQ(SumOf({kMax, kMax}), kInf);
  EXPECT_EQ(SumOf({-kMax, -kMax}), -kInf);
  // Half an ulp above kMax ties away from its odd mantissa: infinity.
  EXPECT_EQ(SumOf({kMax, std::ldexp(1.0, 970)}), kInf);
  EXPECT_EQ(SumOf({kMax, std::ldexp(1.0, 969)}), kMax);
  // Out-of-range intermediates are fine when the total comes back.
  EXPECT_EQ(SumOf({kMax, kMax, kMax, -kMax, -kMax}), kMax);
}

TEST(ExactSumTest, SignedZerosAndSubnormals) {
  EXPECT_EQ(Bits(SumOf({-0.0})), Bits(0.0));
  EXPECT_EQ(Bits(SumOf({-0.0, -0.0})), Bits(0.0));
  EXPECT_EQ(Bits(SumOf({1.5, -1.5})), Bits(0.0));
  EXPECT_EQ(SumOf({kMinSub, kMinSub}), 2 * kMinSub);
  EXPECT_EQ(SumOf({kMinNormal, -kMinSub}), kMinNormal - kMinSub);
  EXPECT_EQ(SumOf({-kMinSub}), -kMinSub);
  // Subnormal + subnormal crossing into the normal range.
  const double big_sub = kMinNormal - kMinSub;
  EXPECT_EQ(SumOf({big_sub, big_sub}), big_sub + big_sub);
}

TEST(ExactSumTest, NonFiniteOperandsAreCountedInvertibly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExactSum s;
  s.Add(5.0);
  s.Add(kInf);
  EXPECT_EQ(s.Finalize(), kInf);
  s.Add(-kInf);
  EXPECT_TRUE(std::isnan(s.Finalize()));
  s.Sub(kInf);
  EXPECT_EQ(s.Finalize(), -kInf);
  s.Sub(-kInf);
  EXPECT_EQ(s.Finalize(), 5.0);
  s.Add(nan);
  EXPECT_TRUE(std::isnan(s.Finalize()));
  s.Sub(nan);
  EXPECT_EQ(s.Finalize(), 5.0);
  // Retracting an infinity never added is subtracting it.
  ExactSum t;
  t.Sub(kInf);
  EXPECT_EQ(t.Finalize(), -kInf);
  EXPECT_NE(t, ExactSum());
}

}  // namespace
}  // namespace aseq
