// Geometric-channel tests: log-distance path-loss math, energy-detection
// and capture-threshold boundaries, the scripted 3-node hidden-terminal
// decode trace, and the construction-time validation that keeps legacy
// (position-less) setups on the fixed-loss model.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_phy.h"

namespace hacksim {
namespace {

// --- path-loss math ---------------------------------------------------------------

TEST(PropagationMathTest, DbmMwRoundTrip) {
  EXPECT_DOUBLE_EQ(DbmToMw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(DbmToMw(10.0), 10.0);
  EXPECT_DOUBLE_EQ(DbmToMw(-30.0), 0.001);
  EXPECT_NEAR(MwToDbm(DbmToMw(-77.3)), -77.3, 1e-9);
}

TEST(PropagationMathTest, LogDistancePathLoss) {
  LogDistancePropagation prop;  // tx 15, pl0 46.7, n 3.5
  // At 1 m only the reference loss applies.
  EXPECT_NEAR(prop.RxPowerDbm(1.0), 15.0 - 46.7, 1e-9);
  // One decade of distance costs 10 * n dB.
  EXPECT_NEAR(prop.RxPowerDbm(10.0), 15.0 - 46.7 - 35.0, 1e-9);
  // Sub-metre distances clamp to the 1 m reference.
  EXPECT_DOUBLE_EQ(prop.RxPowerDbm(0.25), prop.RxPowerDbm(1.0));
  // Monotone decreasing beyond the clamp.
  EXPECT_GT(prop.RxPowerDbm(5.0), prop.RxPowerDbm(20.0));
}

TEST(PropagationMathTest, DetectableBoundary) {
  LogDistancePropagation prop;  // ed threshold -82 dBm
  EXPECT_TRUE(prop.Detectable(-81.9));
  EXPECT_TRUE(prop.Detectable(-82.0));  // at the threshold: detectable
  EXPECT_FALSE(prop.Detectable(-82.1));
}

TEST(PropagationMathTest, MaxDetectableRangeInvertsThePathLoss) {
  LogDistancePropagation prop;
  double r = prop.MaxDetectableRangeM();
  EXPECT_NEAR(prop.RxPowerDbm(r), prop.params().ed_threshold_dbm, 1e-9);
  EXPECT_TRUE(prop.Detectable(prop.RxPowerDbm(r * 0.999)));
  EXPECT_FALSE(prop.Detectable(prop.RxPowerDbm(r * 1.001)));
  // Defaults: the two-cluster topology (AP at 20 m, other cluster at 40 m)
  // must straddle this radius.
  EXPECT_GT(r, 23.0);
  EXPECT_LT(r, 31.0);
}

TEST(PropagationMathTest, CaptureThresholdTracksMode) {
  LogDistancePropagation prop;
  WifiMode slow = ModeForRate(Modes80211a(), 6);
  WifiMode fast = ModeForRate(Modes80211a(), 54);
  // Threshold = the mode's 50%-FER midpoint + the capture margin.
  EXPECT_DOUBLE_EQ(prop.CaptureSinrDb(fast),
                   SnrLossModel::ModeSnrMidpointDb(fast) +
                       prop.params().capture_margin_db);
  // Faster constellations need more SINR to capture.
  EXPECT_LT(prop.CaptureSinrDb(slow), prop.CaptureSinrDb(fast));
}

TEST(PropagationMathTest, FixedLossHearsEverythingAndNeverCaptures) {
  FixedLossPropagation prop;
  EXPECT_FALSE(prop.limits_range());
  EXPECT_TRUE(prop.Detectable(-200.0));
  EXPECT_DOUBLE_EQ(prop.RxPowerDbm(1e9), 0.0);
}

// --- 3-node hidden-terminal decode trace --------------------------------------------

class RecordingListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    ++received;
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu&) override { ++tx_done; }
  void OnCcaBusy() override { ++busy_edges; }
  void OnCcaIdle() override { ++idle_edges; }

  int received = 0;
  int corrupted = 0;
  int tx_done = 0;
  int busy_edges = 0;
  int idle_edges = 0;
};

Ppdu MakeDataPpdu() {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = MacAddress::ForStation(1);
  f.ra = MacAddress::ForStation(0);
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1000);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

// A(-20, 0) —— AP(0, 0) —— B(20, 0) under the default log-distance model:
// both stations are in range of the AP (20 m < ~27 m detect radius) and out
// of range of each other (40 m) — the canonical hidden pair.
struct HiddenFixture {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy ap{&sched, Random(1)};
  WifiPhy a{&sched, Random(2)};
  WifiPhy b{&sched, Random(3)};
  RecordingListener lap, la, lb;

  HiddenFixture() {
    ap.set_position({0, 0});
    a.set_position({-20, 0});
    b.set_position({20, 0});
    ap.AttachTo(&channel);
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    ap.set_listener(&lap);
    a.set_listener(&la);
    b.set_listener(&lb);
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
  }
};

TEST(HiddenTerminalTest, OutOfRangeReceiverSeesNothing) {
  HiddenFixture f;
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  f.sched.Run();
  // The AP decodes; B gets neither energy (no CCA edge) nor a decode — it
  // cannot even tell the medium was busy. That pair is also pruned from the
  // scheduler entirely.
  EXPECT_EQ(f.lap.received, 1);
  EXPECT_EQ(f.lb.received, 0);
  EXPECT_EQ(f.lb.corrupted, 0);
  EXPECT_EQ(f.lb.busy_edges, 0);
  EXPECT_EQ(f.channel.airtime().out_of_range, 1u);
}

TEST(HiddenTerminalTest, SymmetricHiddenCollisionKillsBothAtTheReceiver) {
  HiddenFixture f;
  // Neither station can carrier-sense the other, so both transmit freely.
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  ASSERT_TRUE(f.b.Send(MakeDataPpdu()));
  f.sched.Run();
  // Equal receive power at the AP: SINR ~ 0 dB, far below the 54 Mbps
  // capture threshold — both die, exactly like the fixed-loss rule.
  EXPECT_EQ(f.lap.received, 0);
  EXPECT_EQ(f.lap.corrupted, 2);
  EXPECT_EQ(f.ap.stats().overlap_losses, 2u);
  EXPECT_EQ(f.ap.stats().captures, 0u);
}

TEST(HiddenTerminalTest, StrongerFrameCapturesOverWeaker) {
  HiddenFixture f;
  WifiPhy near{&f.sched, Random(4)};
  RecordingListener lnear;
  near.set_position({2, 0});
  near.AttachTo(&f.channel);
  near.set_listener(&lnear);
  // A (20 m out, rx ~ -77 dBm) and the near station (2 m, rx ~ -42 dBm)
  // collide at the AP. The near frame's SINR (~35 dB) clears the 54 Mbps
  // capture threshold (24 dB); A's (~ -35 dB) does not.
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  ASSERT_TRUE(near.Send(MakeDataPpdu()));
  f.sched.Run();
  EXPECT_EQ(f.lap.received, 1);
  EXPECT_EQ(f.lap.corrupted, 1);
  EXPECT_EQ(f.ap.stats().captures, 1u);
  EXPECT_EQ(f.ap.stats().overlap_losses, 1u);
}

// --- cached arrival schedules vs. the per-PHY oracle ---------------------------------

// Every listener callback of one run as (time ns, PHY, kind), in firing
// order: equal logs mean equal arrival times and callback order.
using CallbackLog = std::vector<std::tuple<int64_t, int, char>>;

class TraceListener : public WifiPhyListener {
 public:
  TraceListener(const Scheduler* sched, CallbackLog* log, int phy)
      : sched_(sched), log_(log), phy_(phy) {}
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    Add('R');
  }
  void OnRxCorrupted() override { Add('X'); }
  void OnTxEnd(const Ppdu&) override { Add('T'); }
  void OnCcaBusy() override { Add('B'); }
  void OnCcaIdle() override { Add('I'); }

 private:
  void Add(char kind) { log_->emplace_back(sched_->Now().ns(), phy_, kind); }
  const Scheduler* sched_;
  CallbackLog* log_;
  int phy_;
};

// Geometry edits after traffic — a move, a new propagation model, a late
// attach, and a move while the mover's last PPDU is still in flight — must
// reach the next PPDUs exactly as the per-PHY path (which recomputes every
// pair on every PPDU) sees them: equal callback logs, hence equal arrival
// times and per-listener counts, and equal out-of-range tallies.
TEST(ArrivalScheduleTest, GeometryEditsAfterTrafficMatchPerPhyDelivery) {
  struct Run {
    CallbackLog log;
    std::vector<uint64_t> out_of_range;  // after each PPDU
  };
  auto run = [](ChannelDeliveryMode mode) {
    Run r;
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    std::vector<std::unique_ptr<WifiPhy>> phys;
    std::vector<std::unique_ptr<TraceListener>> listeners;
    auto add_phy = [&](Position p) {
      int id = static_cast<int>(phys.size());
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(1 + id)));
      listeners.push_back(
          std::make_unique<TraceListener>(&sched, &r.log, id));
      phys.back()->set_listener(listeners.back().get());
      phys.back()->set_position(p);
      phys.back()->AttachTo(&channel);
    };
    auto send = [&](int from) {
      EXPECT_TRUE(phys[static_cast<size_t>(from)]->Send(MakeDataPpdu()));
      sched.Run();
      r.out_of_range.push_back(channel.airtime().out_of_range);
    };
    // The hidden pair: AP (0), A (1) at -20 m, B (2) at +20 m.
    add_phy({0, 0});
    add_phy({-20, 0});
    add_phy({20, 0});
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
    send(1);
    send(2);
    // B moves next to A: both cached schedules are stale.
    phys[2]->set_position({-18, 0});
    send(1);
    send(2);
    // A steeper path loss shrinks the detect radius to ~13 m: the AP now
    // hears neither station, A and B still hear each other.
    LogDistancePropagation::Params steep;
    steep.path_loss_exponent = 4.5;
    channel.set_propagation(std::make_unique<LogDistancePropagation>(steep));
    send(1);
    // A late arrival between A and B.
    add_phy({-19, 1});
    send(1);
    send(3);
    // B moves back while its PPDU's end edges are still in flight (A's end
    // edge lands 6 ns after B's own tx end) and sends again at once: the
    // in-flight events keep using the schedule they were built from.
    const int64_t air_ns = MakeDataPpdu().Duration().ns();
    sched.ScheduleAt(sched.Now() + SimTime::Nanos(air_ns + 1), [&]() {
      phys[2]->set_position({-15, 0});
      EXPECT_TRUE(phys[2]->Send(MakeDataPpdu()));
    });
    send(2);
    return r;
  };
  Run batched = run(ChannelDeliveryMode::kBatched);
  Run per_phy = run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(batched.log, per_phy.log);
  EXPECT_EQ(batched.out_of_range, per_phy.out_of_range);
  // The edits really changed who hears whom: hidden pair, then none, then
  // the AP out of reach of every sender (the last step sends twice).
  EXPECT_EQ(per_phy.out_of_range,
            (std::vector<uint64_t>{1, 2, 2, 2, 3, 4, 5, 7}));
}

// --- construction validation ---------------------------------------------------------

TEST(GeometryValidationDeathTest, AttachWithoutPositionUnderRangedModelDies) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  channel.set_propagation(std::make_unique<LogDistancePropagation>());
  WifiPhy unpositioned{&sched, Random(1)};
  EXPECT_DEATH(channel.Attach(&unpositioned), "explicit position");
}

TEST(GeometryValidationDeathTest, SwitchingToRangedModelWithMixedPhysDies) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy positioned{&sched, Random(1)};
  positioned.set_position({3, 4});
  positioned.AttachTo(&channel);
  WifiPhy unpositioned{&sched, Random(2)};
  unpositioned.AttachTo(&channel);
  EXPECT_DEATH(
      channel.set_propagation(std::make_unique<LogDistancePropagation>()),
      "explicit position");
}

TEST(GeometryValidationTest, LegacyConstructionSelectsFixedLossExplicitly) {
  // Position-less construction is the legacy mode and must keep working —
  // but only because it explicitly rides the fixed-loss model (the channel
  // default, re-installable by hand).
  Scheduler sched;
  WirelessChannel channel{&sched};
  EXPECT_FALSE(channel.propagation().limits_range());
  WifiPhy tx{&sched, Random(1)};
  WifiPhy rx{&sched, Random(2)};
  tx.AttachTo(&channel);
  rx.AttachTo(&channel);
  channel.set_propagation(std::make_unique<FixedLossPropagation>());
  RecordingListener listener;
  rx.set_listener(&listener);
  ASSERT_TRUE(tx.Send(MakeDataPpdu()));
  sched.Run();
  EXPECT_EQ(listener.received, 1);
  EXPECT_EQ(channel.airtime().out_of_range, 0u);
}

}  // namespace
}  // namespace hacksim
