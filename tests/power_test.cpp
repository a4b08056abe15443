// Tests for the power infrastructure: trip curve, breaker, battery,
// discharge circuit, power path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "power/power_path.hpp"

namespace sprintcon::power {
namespace {

// --- trip curve ----------------------------------------------------------

TEST(TripCurve, CalibrationPoint) {
  const TripCurve curve(1.25, 170.0, 300.0);
  EXPECT_NEAR(curve.trip_time_s(1.25), 170.0, 1e-9);
}

TEST(TripCurve, NoTripAtOrBelowRated) {
  const TripCurve curve = TripCurve::bulletin_1489a();
  EXPECT_TRUE(std::isinf(curve.trip_time_s(1.0)));
  EXPECT_TRUE(std::isinf(curve.trip_time_s(0.5)));
  EXPECT_DOUBLE_EQ(curve.heating_rate(0.9), 0.0);
}

TEST(TripCurve, TripTimeStrictlyDecreasingInOverload) {
  const TripCurve curve = TripCurve::bulletin_1489a();
  double prev = std::numeric_limits<double>::infinity();
  for (double o = 1.05; o <= 3.0; o += 0.05) {
    const double t = curve.trip_time_s(o);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(TripCurve, HighOverloadTripsInSeconds) {
  const TripCurve curve = TripCurve::bulletin_1489a();
  EXPECT_LT(curve.trip_time_s(3.0), 15.0);
  EXPECT_GT(curve.trip_time_s(1.05), 500.0);
}

TEST(TripCurve, InvalidCalibrationThrows) {
  EXPECT_THROW(TripCurve(1.0, 100.0, 300.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(TripCurve(1.25, 0.0, 300.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(TripCurve(1.25, 100.0, -1.0), sprintcon::InvalidArgumentError);
}

// Property: simulated time-to-trip matches the analytic curve.
class TripCurveProperty : public ::testing::TestWithParam<double> {};

TEST_P(TripCurveProperty, SimulatedTripMatchesAnalytic) {
  const double overload = GetParam();
  const TripCurve curve = TripCurve::bulletin_1489a();
  CircuitBreaker cb(1000.0, curve);
  const double dt = 0.1;
  double t = 0.0;
  while (!cb.open() && t < 10000.0) {
    cb.deliver(1000.0 * overload, dt);
    t += dt;
  }
  EXPECT_TRUE(cb.open());
  EXPECT_NEAR(t, curve.trip_time_s(overload), curve.trip_time_s(overload) * 0.02 + dt);
}

INSTANTIATE_TEST_SUITE_P(Overloads, TripCurveProperty,
                         ::testing::Values(1.1, 1.25, 1.5, 2.0, 2.5));

// --- circuit breaker ----------------------------------------------------------

CircuitBreaker paper_cb() {
  return CircuitBreaker(3200.0, TripCurve::bulletin_1489a());
}

TEST(CircuitBreaker, DeliversWithinRatingIndefinitely) {
  CircuitBreaker cb = paper_cb();
  for (int i = 0; i < 3600; ++i) {
    EXPECT_DOUBLE_EQ(cb.deliver(3200.0, 1.0), 3200.0);
  }
  EXPECT_FALSE(cb.open());
  EXPECT_DOUBLE_EQ(cb.thermal_stress(), 0.0);
}

TEST(CircuitBreaker, PaperOverloadWindowEndsNearButBelowTrip) {
  // 150 s at 1.25x: close to tripping (~88% stress) but never open.
  CircuitBreaker cb = paper_cb();
  for (int i = 0; i < 150; ++i) cb.deliver(4000.0, 1.0);
  EXPECT_FALSE(cb.open());
  EXPECT_GT(cb.thermal_stress(), 0.8);
  EXPECT_LT(cb.thermal_stress(), 0.92);
  EXPECT_TRUE(cb.near_trip(0.8));
}

TEST(CircuitBreaker, RecoversWithinRecoveryWindow) {
  CircuitBreaker cb = paper_cb();
  for (int i = 0; i < 150; ++i) cb.deliver(4000.0, 1.0);
  for (int i = 0; i < 300; ++i) cb.deliver(3200.0, 1.0);
  EXPECT_LT(cb.thermal_stress(), 0.06);
  EXPECT_FALSE(cb.near_trip(0.5));
}

TEST(CircuitBreaker, SustainedOverBudgetTrips) {
  // A few percent above the 1.25 budget (uncontrolled sprinting) trips in
  // roughly 150 s — the Figure 5 event.
  CircuitBreaker cb = paper_cb();
  double t = 0.0;
  while (!cb.open() && t < 1000.0) {
    cb.deliver(4100.0, 1.0);  // ~1.28x
    t += 1.0;
  }
  EXPECT_TRUE(cb.open());
  EXPECT_NEAR(t, 150.0, 20.0);
  EXPECT_EQ(cb.trip_count(), 1);
}

TEST(CircuitBreaker, OpenBreakerDeliversNothingThenRecloses) {
  CircuitBreaker cb = paper_cb();
  while (!cb.open()) cb.deliver(5000.0, 1.0);
  EXPECT_DOUBLE_EQ(cb.deliver(3200.0, 1.0), 0.0);
  // Cooling: re-closes within ~300 s and can deliver again.
  double t = 0.0;
  while (cb.open() && t < 400.0) {
    cb.deliver(3200.0, 1.0);
    t += 1.0;
  }
  EXPECT_FALSE(cb.open());
  EXPECT_LE(t, 310.0);
  EXPECT_DOUBLE_EQ(cb.deliver(3200.0, 1.0), 3200.0);
}

// --- battery -------------------------------------------------------------------

TEST(Battery, DischargeConservesEnergy) {
  UpsBattery battery(400.0, 5000.0);
  // 3600 W for 300 s = 300 Wh.
  double delivered_j = 0.0;
  for (int i = 0; i < 300; ++i) delivered_j += battery.discharge(3600.0, 1.0);
  EXPECT_NEAR(battery.charge_wh(), 100.0, 1e-6);
  EXPECT_NEAR(battery.total_discharged_wh(), 300.0, 1e-6);
  EXPECT_NEAR(battery.depth_of_discharge(), 0.75, 1e-9);
}

TEST(Battery, DischargeSaturatesAtPowerLimit) {
  UpsBattery battery(400.0, 1000.0);
  EXPECT_DOUBLE_EQ(battery.discharge(5000.0, 1.0), 1000.0);
}

TEST(Battery, DischargeSaturatesAtRemainingEnergy) {
  UpsBattery battery(1.0, 1e6);  // 1 Wh = 3600 J
  const double got = battery.discharge(7200.0, 1.0);
  EXPECT_NEAR(got, 3600.0, 1e-9);
  EXPECT_TRUE(battery.empty());
  EXPECT_DOUBLE_EQ(battery.discharge(100.0, 1.0), 0.0);
}

TEST(Battery, RechargeRefills) {
  UpsBattery battery(10.0, 5000.0);
  battery.discharge(3600.0, 10.0);  // 10 Wh -> empty
  EXPECT_TRUE(battery.empty());
  battery.recharge(3600.0, 5.0);  // 5 Wh back
  EXPECT_NEAR(battery.charge_wh(), 5.0, 1e-9);
  // Cannot overfill.
  battery.recharge(1e9, 10.0);
  EXPECT_NEAR(battery.charge_wh(), 10.0, 1e-9);
}

TEST(Battery, NearlyEmptyThreshold) {
  UpsBattery battery(100.0, 1000.0);
  EXPECT_FALSE(battery.nearly_empty(0.1));
  battery.discharge(1000.0, 95.0 * 3.6);  // 95 Wh out
  EXPECT_TRUE(battery.nearly_empty(0.1));
}

TEST(Battery, LfpCycleLifeMatchesPaperPoints) {
  // Paper Section VII-D: 17% DoD -> >40,000 cycles; 31% -> <10,000.
  EXPECT_GT(lfp_cycle_life(0.17), 40000.0);
  EXPECT_LT(lfp_cycle_life(0.31), 10000.0);
  EXPECT_GT(lfp_cycle_life(0.31), 5000.0);
}

TEST(Battery, LfpCycleLifeMonotoneDecreasing) {
  double prev = std::numeric_limits<double>::infinity();
  for (double dod = 0.05; dod <= 1.0; dod += 0.05) {
    const double c = lfp_cycle_life(dod);
    EXPECT_LE(c, prev);
    prev = c;
  }
}

TEST(Battery, LifetimeCappedByShelfLife) {
  // Tiny DoD at 10 sprints/day: capped at the 10-year chemical lifetime.
  EXPECT_NEAR(lfp_lifetime_days(0.01, 10.0), 3650.0, 1e-9);
  // Heavy DoD wears out much sooner.
  EXPECT_LT(lfp_lifetime_days(0.31, 10.0), 1000.0);
}

// --- discharge circuit ----------------------------------------------------------

TEST(DischargeCircuit, QuantizesDutyUpward) {
  DischargeCircuit circuit(4800.0, 100, 1.0);  // 1% steps = 48 W
  // Rounds UP so the command is always covered: 100 W -> 3 steps = 144 W.
  circuit.set_target_power(100.0);
  EXPECT_NEAR(circuit.setpoint_w(), 144.0, 1e-9);
  // Exact grid points stay exact.
  circuit.set_target_power(96.0);
  EXPECT_NEAR(circuit.setpoint_w(), 96.0, 1e-9);
  circuit.set_target_power(0.0);
  EXPECT_DOUBLE_EQ(circuit.setpoint_w(), 0.0);
  circuit.set_target_power(1e9);
  EXPECT_DOUBLE_EQ(circuit.setpoint_w(), 4800.0);
}

TEST(DischargeCircuit, SetpointNeverBelowCommand) {
  DischargeCircuit circuit(1000.0, 37, 1.0);  // awkward step size
  for (double cmd = 0.0; cmd <= 1000.0; cmd += 13.7) {
    circuit.set_target_power(cmd);
    EXPECT_GE(circuit.setpoint_w() + 1e-9, cmd);
  }
}

TEST(DischargeCircuit, EfficiencyDrawsMoreFromBattery) {
  UpsBattery battery(400.0, 1e5);
  DischargeCircuit circuit(4800.0, 4800, 0.9);  // 1 W duty steps
  circuit.set_target_power(900.0);
  // 1000 s at 900 W delivered = 250 Wh delivered, but the battery pays
  // 250 / 0.9 = 277.8 Wh.
  const double delivered = circuit.transfer(battery, 1000.0);
  EXPECT_NEAR(delivered, 900.0, 1.0);
  EXPECT_NEAR(battery.total_discharged_wh(), 250.0 / 0.9, 1.0);
}

TEST(DischargeCircuit, InvalidConfigThrows) {
  EXPECT_THROW(DischargeCircuit(0.0, 100, 1.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(DischargeCircuit(100.0, 1, 1.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(DischargeCircuit(100.0, 10, 1.5), sprintcon::InvalidArgumentError);
}

// --- power path -------------------------------------------------------------------

PowerPath make_path() {
  return PowerPath(CircuitBreaker(3200.0, TripCurve::bulletin_1489a()),
                   UpsBattery(400.0, 4800.0),
                   DischargeCircuit(4800.0, 4800, 1.0));
}

TEST(PowerPath, CbCarriesAllWithoutUpsCommand) {
  PowerPath path = make_path();
  const PowerFlows f = path.step(3000.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(f.cb_w, 3000.0);
  EXPECT_DOUBLE_EQ(f.ups_w, 0.0);
  EXPECT_DOUBLE_EQ(f.unserved_w, 0.0);
}

TEST(PowerPath, UpsCommandOffloadsCb) {
  PowerPath path = make_path();
  const PowerFlows f = path.step(4000.0, 800.0, 1.0);
  EXPECT_NEAR(f.ups_w, 800.0, 1.1);
  EXPECT_NEAR(f.cb_w, 3200.0, 1.1);
}

TEST(PowerPath, UpsCommandCappedAtDemand) {
  PowerPath path = make_path();
  const PowerFlows f = path.step(500.0, 5000.0, 1.0);
  EXPECT_LE(f.ups_w, 500.0 + 1e-9);
  EXPECT_DOUBLE_EQ(f.unserved_w, 0.0);
}

TEST(PowerPath, TrippedBreakerShiftsLoadToUps) {
  PowerPath path = make_path();
  // Overload hard with no UPS support until the breaker trips.
  double t = 0.0;
  while (!path.breaker().open() && t < 1000.0) {
    path.step(4200.0, 0.0, 1.0);
    t += 1.0;
  }
  ASSERT_TRUE(path.breaker().open());
  const PowerFlows f = path.step(4200.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(f.cb_w, 0.0);
  EXPECT_NEAR(f.ups_w, 4200.0, 2.0);
}

TEST(PowerPath, ExhaustedUpsCausesUnservedPower) {
  PowerPath path = make_path();
  while (!path.breaker().open()) path.step(4500.0, 0.0, 1.0);
  // Drain the battery.
  double t = 0.0;
  while (!path.battery().empty() && t < 10000.0) {
    path.step(4500.0, 0.0, 1.0);
    t += 1.0;
  }
  ASSERT_TRUE(path.battery().empty());
  if (!path.breaker().open()) {
    // Breaker may have re-closed while the battery drained; force it open
    // again to exercise the blackout path.
    while (!path.breaker().open()) path.step(6000.0, 0.0, 1.0);
  }
  const PowerFlows f = path.step(4500.0, 0.0, 1.0);
  EXPECT_GT(f.unserved_w, 1000.0);
}

TEST(PowerPath, NegativeInputsThrow) {
  PowerPath path = make_path();
  EXPECT_THROW(path.step(-1.0, 0.0, 1.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(path.step(1.0, -1.0, 1.0), sprintcon::InvalidArgumentError);
}

TEST(PowerPath, EnergyBalanceOverWindow) {
  // Integrated demand equals integrated (cb + ups + unserved).
  PowerPath path = make_path();
  double demand_j = 0.0, supplied_j = 0.0;
  for (int i = 0; i < 600; ++i) {
    const double demand = 3500.0 + 500.0 * ((i / 50) % 2);
    const PowerFlows f = path.step(demand, 400.0, 1.0);
    demand_j += demand;
    supplied_j += f.cb_w + f.ups_w + f.unserved_w;
  }
  EXPECT_NEAR(demand_j, supplied_j, demand_j * 1e-9);
}

}  // namespace
}  // namespace sprintcon::power
