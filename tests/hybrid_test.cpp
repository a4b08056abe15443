// Tests for the supercapacitor and the hybrid battery+supercap store.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "power/hybrid_store.hpp"

namespace sprintcon::power {
namespace {

// --- supercapacitor ------------------------------------------------------

TEST(Supercap, DischargeAndRecharge) {
  Supercapacitor cap(10.0, 5000.0, /*leak_tau_s=*/0.0);
  EXPECT_DOUBLE_EQ(cap.state_of_charge(), 1.0);
  const double got = cap.discharge(3600.0, 5.0);  // 5 Wh
  EXPECT_NEAR(got, 3600.0, 1e-9);
  EXPECT_NEAR(cap.charge_wh(), 5.0, 1e-9);
  cap.recharge(3600.0, 2.0);
  EXPECT_NEAR(cap.charge_wh(), 7.0, 1e-9);
}

TEST(Supercap, SaturatesAtEnergyAndPower) {
  Supercapacitor cap(1.0, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(cap.discharge(5000.0, 1.0), 100.0);  // power limited
  Supercapacitor tiny(0.01, 1e6, 0.0);                  // 36 J
  EXPECT_NEAR(tiny.discharge(1e5, 1.0), 36.0, 1e-9);    // energy limited
  EXPECT_TRUE(tiny.empty());
}

TEST(Supercap, SelfDischargeLeaks) {
  Supercapacitor cap(10.0, 100.0, /*leak_tau_s=*/100.0);
  cap.leak(100.0);  // one time constant
  EXPECT_NEAR(cap.charge_wh(), 10.0 * std::exp(-1.0), 1e-9);
}

TEST(Supercap, InvalidConfigThrows) {
  EXPECT_THROW(Supercapacitor(0.0, 100.0), sprintcon::InvalidArgumentError);
  EXPECT_THROW(Supercapacitor(10.0, 0.0), sprintcon::InvalidArgumentError);
}

// --- hybrid store ---------------------------------------------------------

HybridStore make_hybrid() {
  return HybridStore(UpsBattery(400.0, 4800.0),
                     Supercapacitor(20.0, 9600.0, 0.0));
}

TEST(Hybrid, CapacityAndChargeAreSums) {
  HybridStore store = make_hybrid();
  EXPECT_DOUBLE_EQ(store.capacity_wh(), 420.0);
  EXPECT_DOUBLE_EQ(store.charge_wh(), 420.0);
  EXPECT_DOUBLE_EQ(store.max_discharge_w(), 4800.0 + 9600.0);
}

TEST(Hybrid, DeliversRequestedPower) {
  HybridStore store = make_hybrid();
  for (int i = 0; i < 60; ++i) {
    EXPECT_NEAR(store.discharge(1000.0, 1.0), 1000.0, 1e-6);
  }
}

TEST(Hybrid, TransientsGoToSupercap) {
  HybridStore store = make_hybrid();
  // A sudden spike after idling: almost all of the first seconds must come
  // from the supercap (the sustained estimate is still near zero).
  store.discharge(2000.0, 1.0);
  EXPECT_GT(store.supercap().total_discharged_wh(),
            store.battery().total_discharged_wh());
}

TEST(Hybrid, SustainedLoadShiftsToBattery) {
  HybridStore store = make_hybrid();
  for (int i = 0; i < 120; ++i) store.discharge(800.0, 1.0);
  // After many time constants the battery carries nearly everything.
  const double battery_share =
      store.battery().total_discharged_wh() /
      (store.battery().total_discharged_wh() +
       store.supercap().total_discharged_wh());
  EXPECT_GT(battery_share, 0.7);
  EXPECT_NEAR(store.sustained_w(), 800.0, 10.0);
}

TEST(Hybrid, BatterySeesSmootherProfileThanDemand) {
  // Square-wave demand: the battery draw variance must be well below the
  // demand variance — the whole point of the hybrid design.
  HybridStore store = make_hybrid();
  double prev_batt_wh = 0.0;
  std::vector<double> batt, demand_series;
  for (int t = 0; t < 300; ++t) {
    const double demand = (t / 15) % 2 == 0 ? 1500.0 : 100.0;
    store.discharge(demand, 1.0);
    const double batt_w =
        (store.battery().total_discharged_wh() - prev_batt_wh) * 3600.0;
    prev_batt_wh = store.battery().total_discharged_wh();
    if (t > 60) {
      batt.push_back(batt_w);
      demand_series.push_back(demand);
    }
  }
  const auto stddev = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m += x;
    m /= static_cast<double>(v.size());
    double acc = 0.0;
    for (double x : v) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(v.size()));
  };
  EXPECT_LT(stddev(batt), 0.6 * stddev(demand_series));
}

TEST(Hybrid, FallsBackToBatteryWhenSupercapDrained) {
  // A step to 1 kW: the sustained estimate lags it, so the transient
  // residual drains the 1 Wh supercap within a few seconds; the battery
  // must then cover the rest.
  HybridStore store(UpsBattery(400.0, 4800.0),
                    Supercapacitor(1.0, 9600.0, 0.0));
  double delivered = 0.0;
  for (int i = 0; i < 10; ++i) delivered += store.discharge(1000.0, 1.0);
  EXPECT_NEAR(delivered, 10.0 * 1000.0, 1.0);
  EXPECT_TRUE(store.supercap().empty());
  EXPECT_GT(store.battery().total_discharged_wh(), 1.0);
}

TEST(Hybrid, TrickleRefillsSupercapDuringLull) {
  HybridStore store(UpsBattery(400.0, 4800.0),
                    Supercapacitor(5.0, 9600.0, 0.0));
  // Spike drains the supercap...
  for (int i = 0; i < 10; ++i) store.discharge(2000.0, 1.0);
  const double cap_after_spike = store.supercap().charge_wh();
  // ...then a lull lets the battery refill it.
  for (int i = 0; i < 120; ++i) store.discharge(0.0, 1.0);
  EXPECT_GT(store.supercap().charge_wh(), cap_after_spike);
}

TEST(Hybrid, RechargeFillsSupercapFirst) {
  HybridStore store = make_hybrid();
  // Drain both partially.
  for (int i = 0; i < 30; ++i) store.discharge(3000.0, 1.0);
  const double cap_before = store.supercap().charge_wh();
  store.recharge(3600.0, 1.0);  // 1 Wh back
  EXPECT_GT(store.supercap().charge_wh(), cap_before);
}

}  // namespace
}  // namespace sprintcon::power
