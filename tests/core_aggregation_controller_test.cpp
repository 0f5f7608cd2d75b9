#include "otw/core/aggregation_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "otw/util/assert.hpp"
#include "otw/util/rng.hpp"

namespace otw::core {
namespace {

AggregationControlConfig config_with(double initial, SaawVariant variant) {
  AggregationControlConfig c;
  c.initial_window_us = initial;
  c.variant = variant;
  return c;
}

TEST(AggregationController, StartsAtInitialWindow) {
  AggregationWindowController ctl(config_with(32.0, SaawVariant::RateTracking));
  EXPECT_DOUBLE_EQ(ctl.window_us(), 32.0);
}

TEST(AggregationController, RateTrackingAdaptsOnEveryAggregate) {
  AggregationWindowController ctl(config_with(32.0, SaawVariant::RateTracking));
  ctl.on_aggregate_sent(4, 30.0, 30.0);
  EXPECT_EQ(ctl.adaptations(), 1u);
  ctl.on_aggregate_sent(4, 30.0, 30.0);
  EXPECT_EQ(ctl.adaptations(), 2u);
}

TEST(AggregationController, RateEstimateUsesElapsedNotAge) {
  AggregationWindowController ctl(config_with(4.0, SaawVariant::RateTracking));
  // One message per 500us elapsed: lambda ~ 0.002 regardless of tiny age.
  ctl.on_aggregate_sent(1, 1.0, 500.0);
  EXPECT_NEAR(ctl.rate_estimate(), 0.002, 1e-6);
}

TEST(AggregationController, RateTrackingGrowsWindowUnderBursts) {
  auto cfg = config_with(16.0, SaawVariant::RateTracking);
  AggregationWindowController ctl(cfg);
  // Steady slow arrivals.
  for (int i = 0; i < 50; ++i) {
    ctl.on_aggregate_sent(1, 16.0, 1000.0);
  }
  const double slow_window = ctl.window_us();
  // Burst: ten times the rate.
  for (int i = 0; i < 50; ++i) {
    ctl.on_aggregate_sent(10, 16.0, 100.0);
  }
  EXPECT_GT(ctl.window_us(), slow_window * 5);
}

TEST(AggregationController, WindowStaysWithinBounds) {
  for (auto variant : {SaawVariant::RateTracking, SaawVariant::ScoreHillClimb,
                       SaawVariant::PaperLiteral}) {
    auto cfg = config_with(8.0, variant);
    cfg.min_window_us = 2.0;
    cfg.max_window_us = 64.0;
    AggregationWindowController ctl(cfg);
    for (int i = 0; i < 200; ++i) {
      ctl.on_aggregate_sent(static_cast<std::size_t>(1 + i % 40), 1.0, 2.0);
    }
    EXPECT_LE(ctl.window_us(), 64.0);
    EXPECT_GE(ctl.window_us(), 2.0);
  }
}

TEST(AggregationController, RejectsBadConfig) {
  auto bad = config_with(8.0, SaawVariant::RateTracking);
  bad.min_window_us = 16.0;  // initial below min
  EXPECT_THROW(AggregationWindowController{bad}, ContractViolation);
  auto flat = config_with(8.0, SaawVariant::ScoreHillClimb);
  flat.step_factor = 1.0;
  EXPECT_THROW(AggregationWindowController{flat}, ContractViolation);
  auto nogain = config_with(8.0, SaawVariant::RateTracking);
  nogain.tracking_gain = 0.0;
  EXPECT_THROW(AggregationWindowController{nogain}, ContractViolation);
}

TEST(AggregationController, ResetRestoresInitialWindow) {
  AggregationWindowController ctl(config_with(32.0, SaawVariant::RateTracking));
  ctl.on_aggregate_sent(20, 10.0, 10.0);
  ctl.on_aggregate_sent(20, 10.0, 10.0);
  ctl.reset();
  EXPECT_DOUBLE_EQ(ctl.window_us(), 32.0);
  EXPECT_EQ(ctl.adaptations(), 0u);
  EXPECT_DOUBLE_EQ(ctl.rate_estimate(), 0.0);
}

TEST(AggregationController, PaperLiteralFollowsRateSign) {
  auto cfg = config_with(32.0, SaawVariant::PaperLiteral);
  AggregationWindowController ctl(cfg);
  ctl.on_aggregate_sent(4, 32.0);  // prime: rate ~0.125
  // Higher rate -> grow.
  double w = ctl.on_aggregate_sent(16, 32.0);
  EXPECT_GT(w, 32.0);
  // Lower rate -> shrink.
  const double before = w;
  w = ctl.on_aggregate_sent(2, 32.0);
  EXPECT_LT(w, before);
}

TEST(AggregationController, HillClimbBouncesOffClamp) {
  auto cfg = config_with(2.0, SaawVariant::ScoreHillClimb);
  cfg.min_window_us = 2.0;
  cfg.max_window_us = 1000.0;
  AggregationWindowController ctl(cfg);
  // Constant observations: the score never improves; without the bounce the
  // controller would sit on the clamp forever.
  ctl.on_aggregate_sent(1, 2.0);
  ctl.on_aggregate_sent(1, 2.0);
  double max_seen = ctl.window_us();
  for (int i = 0; i < 20; ++i) {
    ctl.on_aggregate_sent(1, 2.0);
    max_seen = std::max(max_seen, ctl.window_us());
  }
  EXPECT_GT(max_seen, 2.0);
}

// Measured path: with a host frame cost c, RateTracking settles at
// W* = sqrt(2c / lambda) for a steady arrival rate, from either side.
TEST(AggregationController, MeasuredCostConvergesToSquareRootTarget) {
  const double lambda = 0.5;  // messages per us
  const double cost_us = 8.0;
  const double optimum = std::sqrt(2.0 * cost_us / lambda);
  ASSERT_NEAR(optimum, 5.657, 1e-3);
  for (const double initial : {1.0, 64.0, 2'000.0}) {
    AggregationWindowController ctl(config_with(initial, SaawVariant::RateTracking));
    ctl.set_frame_cost_us(cost_us);
    for (int i = 0; i < 200; ++i) {
      // An aggregate holds what arrived in one window; the span since the
      // previous flush is that count at the steady rate.
      const double count = std::max(1.0, std::round(lambda * ctl.window_us()));
      ctl.on_aggregate_sent(static_cast<std::size_t>(count), ctl.window_us(),
                            count / lambda);
    }
    EXPECT_NEAR(ctl.rate_estimate(), lambda, 1e-9) << "start=" << initial;
    EXPECT_NEAR(ctl.window_us(), optimum, 0.01 * optimum) << "start=" << initial;
  }
}

// Measured path: when lambda * c <= 2 an aggregate cannot fill enough to pay
// for the wait, so the window falls to its floor instead of growing as
// sqrt(2c / lambda) would.
TEST(AggregationController, MeasuredCostSparseTrafficFallsToMinimum) {
  auto cfg = config_with(64.0, SaawVariant::RateTracking);
  cfg.min_window_us = 1.0;
  AggregationWindowController ctl(cfg);
  ctl.set_frame_cost_us(8.0);
  for (int i = 0; i < 200; ++i) {
    ctl.on_aggregate_sent(1, ctl.window_us(), 400.0);  // lambda = 0.0025/us
  }
  EXPECT_NEAR(ctl.window_us(), 1.0, 1e-6);
  // A zero cost (nothing timed yet) never holds messages either.
  ctl.set_frame_cost_us(0.0);
  ctl.on_aggregate_sent(50, 1.0, 1.0);
  EXPECT_NEAR(ctl.window_us(), 1.0, 1e-6);
}

// Unmeasured path: without a frame cost the trajectory over a recorded
// observation sequence is bit-identical to the configured-weights update
// below (the reference the simulated-NOW figures were produced with).
TEST(AggregationController, UnmeasuredPathKeepsConfiguredWeightsBitForBit) {
  AggregationControlConfig cfg;
  cfg.initial_window_us = 100.0;
  cfg.benefit_per_message = 500.0;
  cfg.age_penalty = 2.5e-4;
  AggregationWindowController ctl(cfg);
  ctl.set_frame_cost_us(std::nullopt);

  double window = cfg.initial_window_us;
  double rate = 0.0;
  bool primed = false;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto count = static_cast<std::size_t>(1 + rng.next_below(40));
    const double age = rng.next_double() * 300.0;
    const double elapsed = i % 7 == 0 ? 0.0 : age + rng.next_double() * 900.0;

    const double span = std::max(elapsed > 0.0 ? elapsed : age, 1e-3);
    const double observed = static_cast<double>(count) / span;
    rate = primed ? rate + cfg.rate_alpha * (observed - rate) : observed;
    primed = true;
    const double target =
        rate * cfg.benefit_per_message / (2.0 * cfg.age_penalty);
    window = std::clamp(window + cfg.tracking_gain * (target - window),
                        cfg.min_window_us, cfg.max_window_us);

    ASSERT_EQ(ctl.on_aggregate_sent(count, age, elapsed), window) << "step " << i;
  }
}

// Convergence property of the default SAAW transfer: from any initial
// window, under a steady Poisson-ish arrival process, the window must reach
// the neighbourhood of the analytic optimum W* = lambda * benefit /
// (2 * penalty) — the property that lets SAAW match FAW's best static window
// in Figures 8-9 without knowing it in advance.
class SaawConvergence : public ::testing::TestWithParam<double> {};

TEST_P(SaawConvergence, ReachesAnalyticOptimumFromAnyStart) {
  AggregationControlConfig cfg;
  cfg.initial_window_us = GetParam();
  cfg.min_window_us = 1.0;
  cfg.max_window_us = 100'000.0;
  cfg.benefit_per_message = 1.0;
  cfg.age_penalty = 2.0e-6;
  cfg.variant = SaawVariant::RateTracking;
  AggregationWindowController ctl(cfg);

  const double lambda = 0.002;  // messages per us
  const double optimum = lambda * cfg.benefit_per_message / (2 * cfg.age_penalty);
  ASSERT_NEAR(optimum, 500.0, 1e-9);

  util::Xoshiro256 rng(99);
  auto simulate_aggregate = [&] {
    // The first arrival opens the aggregate; the flush happens one window
    // later. Arrivals within the window ~ Poisson(lambda * W).
    const double window = ctl.window_us();
    const double gap = rng.next_exponential(1.0 / lambda);
    std::size_t count = 1;
    const double expected = lambda * window;
    for (int i = 0; i < 64; ++i) {
      if (rng.next_double() < expected / 64.0) ++count;
    }
    ctl.on_aggregate_sent(count, window, gap + window);
  };

  for (int i = 0; i < 400; ++i) {
    simulate_aggregate();
  }
  double sum = 0;
  for (int i = 0; i < 200; ++i) {
    simulate_aggregate();
    sum += ctl.window_us();
  }
  const double avg = sum / 200.0;
  EXPECT_GT(avg, optimum / 2.5) << "start=" << GetParam();
  EXPECT_LT(avg, optimum * 2.5) << "start=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(InitialWindows, SaawConvergence,
                         ::testing::Values(1.0, 8.0, 64.0, 500.0, 4'000.0,
                                           20'000.0));

}  // namespace
}  // namespace otw::core
