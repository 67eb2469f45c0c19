// Unit tests: PHY timing tables (the numbers the paper's analysis rests on),
// frame sizes, loss models, and the collision semantics of the shared medium.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/wifi_mode.h"
#include "src/phy80211/wifi_phy.h"

namespace hacksim {
namespace {

// --- timing tables ---------------------------------------------------------------

TEST(WifiModeTest, TimingConstantsMatchStandard) {
  PhyTimings a = TimingsFor(WifiStandard::k80211a);
  EXPECT_EQ(a.slot, SimTime::Micros(9));
  EXPECT_EQ(a.sifs, SimTime::Micros(16));
  EXPECT_EQ(a.difs, SimTime::Micros(34));  // SIFS + 2 slots

  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  EXPECT_EQ(n.difs, SimTime::Micros(43));  // AIFS[BE] = SIFS + 3 slots
  EXPECT_EQ(n.cw_min, 15u);
  EXPECT_EQ(n.cw_max, 1023u);
}

TEST(WifiModeTest, MeanIdlePeriodIs110_5Microseconds) {
  // §1: "EDCA in 802.11n enforces an average idle period of 110.5 us".
  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  double mean_us = n.difs.ToMicrosF() + n.cw_min / 2.0 * n.slot.ToMicrosF();
  EXPECT_DOUBLE_EQ(mean_us, 110.5);
}

TEST(WifiModeTest, ModeTables) {
  EXPECT_EQ(Modes80211a().size(), 8u);
  EXPECT_EQ(Modes80211a().front().rate_mbps(), 6.0);
  EXPECT_EQ(Modes80211a().back().rate_mbps(), 54.0);
  EXPECT_EQ(Modes80211n().size(), 8u);
  EXPECT_EQ(Modes80211n().front().rate_mbps(), 15.0);
  EXPECT_EQ(Modes80211n().back().rate_mbps(), 150.0);
  EXPECT_EQ(Modes80211nExtended().back().rate_mbps(), 600.0);
  EXPECT_EQ(Modes80211nExtended().back().spatial_streams, 4);
}

TEST(WifiModeTest, FindModeForRateRejectsRatesOutsideTheTable) {
  std::optional<WifiMode> top_n = FindModeForRate(Modes80211n(), 150);
  ASSERT_TRUE(top_n.has_value());
  EXPECT_EQ(top_n->rate_kbps, 150000u);
  EXPECT_FALSE(FindModeForRate(Modes80211a(), 150).has_value());
  EXPECT_FALSE(FindModeForRate(Modes80211n(), 54).has_value());
}

TEST(WifiModeTest, ControlResponseRates) {
  // Highest basic rate (6/12/24) not exceeding the data rate.
  auto mode_a = [](double mbps) {
    return ModeForRate(Modes80211a(), mbps);
  };
  EXPECT_EQ(ControlResponseMode(mode_a(54)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(24)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(18)).rate_mbps(), 12.0);
  EXPECT_EQ(ControlResponseMode(mode_a(9)).rate_mbps(), 6.0);
  EXPECT_EQ(ControlResponseMode(mode_a(6)).rate_mbps(), 6.0);
  // HT rates map the same way (paper §4.3: 150 Mbps data, 24 Mbps LL ACKs).
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 150)).rate_mbps(),
            24.0);
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 15)).rate_mbps(),
            12.0);
}

// Hand-computed 802.11a durations: T = 20us + 4us * ceil((22 + 8n)/NDBPS).
struct DurationCase {
  double rate_mbps;
  size_t bytes;
  int64_t expect_us;
};

class DurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationTest, Matches80211aFormula) {
  const DurationCase& c = GetParam();
  WifiMode mode = ModeForRate(Modes80211a(), c.rate_mbps);
  EXPECT_EQ(FrameDuration(mode, c.bytes), SimTime::Micros(c.expect_us));
}

INSTANTIATE_TEST_SUITE_P(
    Handbook, DurationTest,
    ::testing::Values(
        // ACK (14 B) at 24 Mbps: 20 + 4*ceil(134/96) = 28 us.
        DurationCase{24, 14, 28},
        // ACK at 6 Mbps: 20 + 4*ceil(134/24) = 44 us.
        DurationCase{6, 14, 44},
        // 1536-byte MPDU at 54 Mbps: 20 + 4*ceil(12310/216) = 248 us.
        DurationCase{54, 1536, 248},
        // Block ACK (32 B) at 24 Mbps: 20 + 4*ceil(278/96) = 32 us.
        DurationCase{24, 32, 32}));

TEST(WifiModeTest, HtPreambleAndSymbols) {
  WifiMode ht150 = ModeForRate(Modes80211n(), 150);
  EXPECT_EQ(PreambleDuration(ht150), SimTime::Micros(36));
  // 540 bits per 3.6 us symbol at 150 Mbps.
  EXPECT_EQ(ht150.bits_per_symbol, 540);
  // 1 symbol of data: 22 bits fits in one symbol -> 36 + 3.6 us.
  EXPECT_EQ(FrameDuration(ht150, 0), SimTime::Nanos(36'000 + 3'600));
}

TEST(WifiModeTest, MultiStreamPreambleGrows) {
  WifiMode ht600 = Modes80211nExtended().back();
  // 4 spatial streams: 32 + 4*4 = 48 us preamble.
  EXPECT_EQ(PreambleDuration(ht600), SimTime::Micros(48));
}

// --- frame sizes --------------------------------------------------------------------

TEST(FrameTest, MpduSizes) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Packet data = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);

  WifiFrame frame;
  frame.type = WifiFrameType::kData;
  frame.packet = data;
  // 26 QoS header + 8 LLC + 1512 IP + 4 FCS = 1550.
  EXPECT_EQ(frame.SizeBytes(), 1550u);

  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  EXPECT_EQ(ack.SizeBytes(), 14u);
  ack.hack_payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(ack.SizeBytes(), 19u);

  WifiFrame ba;
  ba.type = WifiFrameType::kBlockAck;
  ba.ba = BlockAckInfo{};
  EXPECT_EQ(ba.SizeBytes(), 32u);

  WifiFrame bar;
  bar.type = WifiFrameType::kBlockAckReq;
  EXPECT_EQ(bar.SizeBytes(), 24u);
}

TEST(FrameTest, AmpduFitsFortyTwo1460ByteMpdus) {
  // The paper batches 42 packets per A-MPDU: 42 subframes of
  // 4 + pad4(1550) = 1556 bytes = 65352 <= 65535; 43 would not fit.
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Ppdu ppdu;
  ppdu.aggregated = true;
  ppdu.mode = ModeForRate(Modes80211n(), 150);
  for (int i = 0; i < 42; ++i) {
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);
    ppdu.mpdus.push_back(std::move(f));
  }
  EXPECT_LE(ppdu.PsduBytes(), kMaxAmpduBytes);
  EXPECT_GT(ppdu.PsduBytes() + 1556, kMaxAmpduBytes);
}

TEST(FrameTest, SequenceHelpers) {
  EXPECT_EQ(SeqAdd(4095, 1), 0);
  EXPECT_EQ(SeqAdd(0, -1), 4095);
  EXPECT_EQ(SeqDistance(4090, 5), 11);
  EXPECT_TRUE(SeqInWindow(4090, 2, 64));
  EXPECT_FALSE(SeqInWindow(0, 64, 64));
  EXPECT_TRUE(SeqInWindow(0, 63, 64));
}

// --- loss models ---------------------------------------------------------------------

TEST(LossModelTest, BernoulliRates) {
  BernoulliLossModel model(0.1, 0.01);
  Random rng(5);
  WifiMode mode = Modes80211a()[0];
  int data_losses = 0;
  int ctrl_losses = 0;
  for (int i = 0; i < 20000; ++i) {
    if (model.ShouldCorrupt(mode, 1500, 5.0, rng)) {
      ++data_losses;
    }
    if (model.ShouldCorrupt(mode, 14, 5.0, rng)) {
      ++ctrl_losses;
    }
  }
  EXPECT_NEAR(data_losses / 20000.0, 0.10, 0.01);
  EXPECT_NEAR(ctrl_losses / 20000.0, 0.01, 0.005);
}

TEST(LossModelTest, SnrDecreasesWithDistance) {
  SnrLossModel model;
  EXPECT_GT(model.SnrDbAt(2.0), model.SnrDbAt(10.0));
  EXPECT_GT(model.SnrDbAt(10.0), model.SnrDbAt(50.0));
}

TEST(LossModelTest, FerMonotoneInSnrAndRate) {
  SnrLossModel model;
  WifiMode low = ModeForRate(Modes80211n(), 15);
  WifiMode high = ModeForRate(Modes80211n(), 150);
  // Higher SNR -> lower FER.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 20.0),
            model.FrameErrorRate(high, 1500, 30.0));
  // At a given SNR, faster modes fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 18.0),
            model.FrameErrorRate(low, 1500, 18.0));
  // Longer frames fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 26.0),
            model.FrameErrorRate(high, 64, 26.0));
}

TEST(LossModelTest, FerSaturates) {
  SnrLossModel model;
  WifiMode mode = ModeForRate(Modes80211n(), 150);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 50.0), 0.0, 1e-6);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 0.0), 1.0, 1e-6);
}

// --- medium / collisions ----------------------------------------------------------------

class RecordingListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu& ppdu, const std::vector<bool>&) override {
    ++received;
    last_type = ppdu.first().type;
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
  WifiFrameType last_type = WifiFrameType::kData;
};

Ppdu MakeTestPpdu(MacAddress from, MacAddress to) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = from;
  f.ra = to;
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1000);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

struct MediumFixture {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy_a{&sched, Random(1)};
  WifiPhy phy_b{&sched, Random(2)};
  WifiPhy phy_c{&sched, Random(3)};
  RecordingListener la, lb, lc;

  MediumFixture() {
    phy_a.AttachTo(&channel);
    phy_b.AttachTo(&channel);
    phy_c.AttachTo(&channel);
    phy_a.set_listener(&la);
    phy_b.set_listener(&lb);
    phy_c.set_listener(&lc);
    phy_a.set_position({0, 0});
    phy_b.set_position({5, 0});
    phy_c.set_position({0, 5});
  }
};

TEST(WifiPhyTest, CleanDelivery) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.lb.corrupted, 0);
  EXPECT_EQ(f.lc.received, 1);  // broadcast medium: everyone hears it
  EXPECT_EQ(f.la.tx_done, 1);
  EXPECT_EQ(f.lb.busy_edges, 1);
  EXPECT_EQ(f.lb.idle_edges, 1);
}

TEST(WifiPhyTest, OverlappingTransmissionsCollide) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  // C hears two overlapping frames: both corrupted, no decode.
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_GE(f.lc.corrupted, 1);
}

TEST(WifiPhyTest, TransmitterIsDeafWhileSending) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  // A was transmitting when B's frame arrived: corrupted at A.
  EXPECT_EQ(f.la.received, 0);
  EXPECT_GE(f.la.corrupted, 1);
}

TEST(WifiPhyTest, SendWhileTransmittingIsRejected) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_FALSE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_EQ(f.phy_a.tx_dropped_busy(), 1u);
  f.sched.Run();
}

TEST(WifiPhyTest, SequentialTransmissionsBothDeliver) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.la.received, 1);
}

TEST(WifiPhyTest, LossModelDropsEverything) {
  MediumFixture f;
  f.phy_b.set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 0);
  EXPECT_EQ(f.lb.corrupted, 1);
  EXPECT_EQ(f.lc.received, 1);  // C's channel is clean
}

TEST(WifiPhyTest, DistanceMeters) {
  EXPECT_DOUBLE_EQ(DistanceMeters({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceMeters({1, 1}, {1, 1}), 0.0);
}

TEST(WifiPhyTest, AirtimeLedgerAccountsByFrameType) {
  MediumFixture f;
  Ppdu data = MakeTestPpdu(MacAddress::ForStation(0),
                           MacAddress::ForStation(1));
  SimTime data_air = data.Duration();
  ASSERT_TRUE(f.phy_a.Send(std::move(data)));
  f.sched.Run();
  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  ack.ta = MacAddress::ForStation(1);
  ack.ra = MacAddress::ForStation(0);
  Ppdu ack_ppdu;
  ack_ppdu.aggregated = false;
  ack_ppdu.mode = ModeForRate(Modes80211a(), 24);
  ack_ppdu.mpdus.push_back(std::move(ack));
  SimTime ack_air = ack_ppdu.Duration();
  ASSERT_TRUE(f.phy_b.Send(std::move(ack_ppdu)));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.data_ns, data_air.ns());
  EXPECT_EQ(at.ack_ns, ack_air.ns());
  EXPECT_EQ(at.ppdus, 2u);
  EXPECT_EQ(at.collisions, 0u);
  EXPECT_EQ(at.collision_ns, 0);
}

TEST(WifiPhyTest, DoubleAttachAborts) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy{&sched, Random(1)};
  channel.Attach(&phy);
  EXPECT_EQ(channel.attached_count(), 1u);
  EXPECT_DEATH(channel.Attach(&phy), "attached twice");
}

TEST(WifiPhyTest, PartialOverlapCorruptsBothFrames) {
  // B starts while A's frame is still in the air at C: neither decodes,
  // even though A's frame began cleanly — overlap corrupts *both*.
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  Ppdu probe = MakeTestPpdu(MacAddress::ForStation(0),
                            MacAddress::ForStation(2));
  SimTime half = SimTime::Nanos(probe.Duration().ns() / 2);
  f.sched.ScheduleAt(half, [&f]() {
    ASSERT_TRUE(f.phy_b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  });
  f.sched.Run();
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_EQ(f.lc.corrupted, 2);  // one OnRxCorrupted per corrupted arrival
}

// Per-PPDU scheduler event count must not grow with the attached-PHY count
// under batched delivery — the tentpole property of the dense-cell refactor.
// All receivers sit at one distance so the cell has a single arrival edge
// pair; co-located receivers is exactly the dense-cell worst case for the
// old one-event-per-PHY scheduling.
TEST(WifiPhyTest, BatchedDeliveryEventCountIndependentOfPhyCount) {
  auto events_for = [](size_t n_receivers, ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy sender{&sched, Random(1)};
    sender.AttachTo(&channel);
    sender.set_position({0, 0});
    std::vector<std::unique_ptr<WifiPhy>> receivers;
    for (size_t i = 0; i < n_receivers; ++i) {
      auto phy = std::make_unique<WifiPhy>(&sched, Random(100 + i));
      phy->AttachTo(&channel);
      phy->set_position({5, 0});
      receivers.push_back(std::move(phy));
    }
    EXPECT_TRUE(sender.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
    sched.Run();
    return sched.events_executed();
  };

  uint64_t batched_small = events_for(4, ChannelDeliveryMode::kBatched);
  uint64_t batched_large = events_for(256, ChannelDeliveryMode::kBatched);
  EXPECT_EQ(batched_small, batched_large)
      << "batched per-PPDU event count must not scale with PHY count";
  // airtime bookkeeping + start edge batch + end edge batch + own tx end.
  EXPECT_EQ(batched_small, 4u);

  uint64_t per_phy_small = events_for(4, ChannelDeliveryMode::kPerPhyEvent);
  uint64_t per_phy_large = events_for(256, ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(per_phy_small, 2u + 2u * 4u);
  EXPECT_EQ(per_phy_large, 2u + 2u * 256u);
}

// The two delivery modes must report identical medium behaviour, including
// under collisions, at the channel layer.
TEST(WifiPhyTest, BatchedAndPerPhyDeliveryAgreeUnderCollision) {
  auto run = [](ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy a{&sched, Random(1)}, b{&sched, Random(2)}, c{&sched, Random(3)};
    RecordingListener la, lb, lc;
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    c.AttachTo(&channel);
    a.set_listener(&la);
    b.set_listener(&lb);
    c.set_listener(&lc);
    a.set_position({0, 0});
    b.set_position({5, 0});
    c.set_position({0, 7});
    EXPECT_TRUE(a.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
    EXPECT_TRUE(b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
    sched.Run();
    EXPECT_TRUE(c.Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    sched.Run();
    return std::tuple{la.received,   la.corrupted, lb.received,
                      lb.corrupted,  lc.received,  lc.corrupted,
                      channel.airtime()};
  };
  auto [bar, bac, bbr, bbc, bcr, bcc, bat] =
      run(ChannelDeliveryMode::kBatched);
  auto [par, pac, pbr, pbc, pcr, pcc, pat] =
      run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(bar, par);
  EXPECT_EQ(bac, pac);
  EXPECT_EQ(bbr, pbr);
  EXPECT_EQ(bbc, pbc);
  EXPECT_EQ(bcr, pcr);
  EXPECT_EQ(bcc, pcc);
  EXPECT_EQ(bat, pat);
}

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

// A PPDU shorter than the cell's delay spread: the near receiver's end
// edge and the far receivers' start edges land on the same nanosecond.
// Batched delivery runs them as one event in attach order (far, near, far)
// and must match per-PHY delivery callback for callback.
TEST(WifiPhyTest, PpduShorterThanDelaySpreadMatchesPerPhyDelivery) {
  // A receiver (k + 0.5) light-ns away hears a PPDU exactly k ns later.
  constexpr double kMetersPerNs = 0.299792458;
  auto ack_ppdu = [](int from, int to) {
    WifiFrame ack;
    ack.type = WifiFrameType::kAck;
    ack.ta = MacAddress::ForStation(static_cast<uint32_t>(from));
    ack.ra = MacAddress::ForStation(static_cast<uint32_t>(to));
    Ppdu ppdu;
    ppdu.aggregated = false;
    ppdu.mode = ModeForRate(Modes80211a(), 24);
    ppdu.mpdus.push_back(std::move(ack));
    return ppdu;
  };
  const int64_t air_ns = ack_ppdu(0, 1).Duration().ns();
  const double near_m = 1.5 * kMetersPerNs;               // 1 ns
  const double far_m = (1 + air_ns + 0.5) * kMetersPerNs;  // 1 ns + airtime

  struct Run {
    CallbackLog log;
    uint64_t first_ppdu_events = 0;
    ChannelAirtime airtime;
  };
  auto run = [&](ChannelDeliveryMode mode) {
    Run r;
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    const Position positions[] = {
        {0, 0}, {far_m, 0}, {near_m, 0}, {-far_m, 0}};
    std::vector<std::unique_ptr<WifiPhy>> phys;
    std::vector<std::unique_ptr<TraceListener>> listeners;
    for (int i = 0; i < 4; ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(1 + i)));
      listeners.push_back(
          std::make_unique<TraceListener>(&sched, &r.log, i));
      phys[i]->set_listener(listeners[i].get());
      phys[i]->set_position(positions[i]);
      phys[i]->AttachTo(&channel);
    }
    EXPECT_TRUE(phys[0]->Send(ack_ppdu(0, 2)));
    sched.Run();
    r.first_ppdu_events = sched.events_executed();
    // A far receiver answers with data; then the sender and the near
    // receiver transmit together and both far receivers see the overlap.
    EXPECT_TRUE(phys[1]->Send(MakeTestPpdu(MacAddress::ForStation(1),
                                           MacAddress::ForStation(0))));
    sched.Run();
    EXPECT_TRUE(phys[0]->Send(ack_ppdu(0, 1)));
    EXPECT_TRUE(phys[2]->Send(ack_ppdu(2, 3)));
    sched.Run();
    r.airtime = channel.airtime();
    return r;
  };
  Run batched = run(ChannelDeliveryMode::kBatched);
  Run per_phy = run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(batched.log, per_phy.log);
  EXPECT_EQ(batched.airtime, per_phy.airtime);
  // airtime + near start + {far starts, near end} + far ends + own tx end:
  // the shared nanosecond is one event.
  EXPECT_EQ(batched.first_ppdu_events, 5u);
  EXPECT_EQ(per_phy.first_ppdu_events, 2u + 2u * 3u);
  const auto shared_ns = static_cast<int64_t>(1 + air_ns);
  CallbackLog at_shared_ns;
  for (const auto& entry : batched.log) {
    if (std::get<0>(entry) == shared_ns) {
      at_shared_ns.push_back(entry);
    }
  }
  EXPECT_EQ(at_shared_ns, (CallbackLog{{shared_ns, 1, 'B'},
                                       {shared_ns, 2, 'I'},
                                       {shared_ns, 2, 'R'},
                                       {shared_ns, 3, 'B'}}));
}

TEST(WifiPhyTest, AirtimeLedgerCountsCollisionOverlap) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.collisions, 1u);
  // Both frames identical and started simultaneously: overlap ~= airtime.
  EXPECT_GT(at.collision_ns, 0);
}

}  // namespace
}  // namespace hacksim
