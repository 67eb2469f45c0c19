// Self-tests of the benchmark's own code: the order statistics, the metric
// derivations, the span sums, and each correctness rule tripping on a
// poisoned result. Run with `python3 hackbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "hackbench/src/checks.h"
#include "hackbench/src/layers.h"
#include "hackbench/src/stats.h"
#include "hackbench/src/trace.h"
#include "hackbench/src/workloads.h"

namespace hackbench {
namespace {

using hacksim::ScenarioConfig;
using hacksim::ScenarioResult;

TEST(StatsTest, Median) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, SupportedPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(SupportedPercentile(19), 0);
  EXPECT_EQ(SupportedPercentile(20), 50);
  EXPECT_EQ(SupportedPercentile(30), 66);  // 34% of 30 = 10.2 beyond p66
  EXPECT_EQ(SupportedPercentile(100), 90);
  EXPECT_EQ(SupportedPercentile(100000), 99);
}

TEST(StatsTest, PercentileIsNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(static_cast<double>(101 - i));
  }
  EXPECT_EQ(Percentile(v, 90), 90.0);
  EXPECT_EQ(Percentile(v, 100), 100.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, RatioOfZeroBaseIsZero) {
  EXPECT_EQ(Ratio(3.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(3.0, 2.0), 1.5);
}

// A hand-built two-client result with round numbers.
ScenarioResult MakeResult() {
  ScenarioResult r;
  r.clients.resize(2);
  for (hacksim::ClientResult& c : r.clients) {
    c.bytes_delivered = 14600;
    c.tcp_rx.segments_received = 12;  // 10 fresh + 2 duplicates
    c.tcp_rx.bytes_delivered = 14600;
    c.tcp_rx.acks_sent = 6;
    c.mac.mpdu_tx_attempts = 5;
    c.hack.compressed_acks_sent = 3;
    c.hack.vanilla_acks_sent = 1;
    c.hack.unique_compressed_acks = 3;
    c.hack.unique_compressed_bytes = 12;
  }
  r.ap_mac.mpdu_tx_attempts = 30;
  r.ap_mac.mpdus_delivered_first_try = 30;
  r.ap_mac.mpdus_delivered_retried = 10;
  r.ap_mac.hack_payloads_sent = 0;
  r.clients[0].mac.hack_payloads_sent = 2;
  r.clients[1].mac.hack_payloads_sent = 1;
  r.airtime.ppdus = 10;
  r.airtime.out_of_range = 5;
  r.airtime.data_ns = 250'000'000;
  r.events_executed = 400;
  r.events_by_class[static_cast<size_t>(hacksim::EventClass::kChannel)] = 300;
  r.final_pending_events = 7;
  r.aggregate_goodput_mbps = 100.0;
  return r;
}

ScenarioConfig MakeConfig() {
  ScenarioConfig c;
  c.n_clients = 2;
  c.duration = hacksim::SimTime::Millis(500);
  return c;
}

std::map<std::string, double> MetricMap(const ExactCounts& counts) {
  std::map<std::string, double> m;
  for (const Metric& metric : counts.Metrics()) {
    m[metric.name] = metric.value;
  }
  return m;
}

TEST(ExactCountsTest, DerivesPerLayerRatios) {
  ExactCounts counts;
  counts.Add(MakeResult(), MakeConfig());
  counts.Add(MakeResult(), MakeConfig());
  std::map<std::string, double> m = MetricMap(counts);
  EXPECT_DOUBLE_EQ(m["sim.events_per_ppdu"], 40.0);
  EXPECT_DOUBLE_EQ(m["sim.events_per_ppdu.channel"], 30.0);
  EXPECT_DOUBLE_EQ(m["sim.events_per_sim_s"], 800.0);
  EXPECT_DOUBLE_EQ(m["sim.pending_at_end"], 7.0);
  EXPECT_DOUBLE_EQ(m["phy80211.ppdus_per_sim_s"], 20.0);
  // 3 attached PHYs: 2 other receivers per PPDU, minus 0.5 pruned.
  EXPECT_DOUBLE_EQ(m["phy80211.rx_visits_per_ppdu"], 1.5);
  EXPECT_DOUBLE_EQ(m["phy80211.out_of_range_per_ppdu"], 0.5);
  EXPECT_DOUBLE_EQ(m["phy80211.busy_share"], 0.5);
  EXPECT_DOUBLE_EQ(m["mac80211.mpdus_per_ppdu"], 4.0);
  EXPECT_DOUBLE_EQ(m["mac80211.first_try_ratio"], 0.75);
  EXPECT_DOUBLE_EQ(m["hack.ride_ratio"], 0.75);
  EXPECT_DOUBLE_EQ(m["hack.compression_ratio"], 13.0);  // 52 B / 4 B
  EXPECT_DOUBLE_EQ(m["rohc.bytes_per_ack"], 4.0);
  EXPECT_DOUBLE_EQ(m["tcp.segments_per_sim_s"], 48.0);
  EXPECT_DOUBLE_EQ(m["tcp.acks_per_segment"], 0.5);
  EXPECT_NEAR(m["tcp.retransmit_ratio"], 2.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(m["scenario.sim_goodput_mbps"], 100.0);
  EXPECT_DOUBLE_EQ(counts.acks_per_payload(), 2.0);
  EXPECT_EQ(counts.wired_packets(), 2u * (24u + 12u));
}

TEST(ExactCountsTest, UnusedLayersReadZeroNotNan) {
  ExactCounts counts;
  ScenarioResult r;
  r.clients.resize(1);
  counts.Add(r, MakeConfig());
  for (const Metric& m : counts.Metrics()) {
    EXPECT_FALSE(std::isnan(m.value)) << m.name;
  }
}

TEST(LayerTimesTest, SelfTimeSubtractsEventsAndLowerLayers) {
  LayerTimes t;
  t.sim_ns_per_event = 50.0;
  t.phy_ns_per_ppdu = 1000.0;
  t.phy_events_per_ppdu = 4.0;
  t.mac_ns_per_mpdu = 900.0;
  t.mac_ppdus_per_mpdu = 0.5;
  t.mac_events_per_mpdu = 2.0;
  t.hack_ns_per_ack = 500.0;
  t.rohc_ns_per_decompress = 200.0;
  t.tcp_ns_per_segment = 300.0;
  t.tcp_events_per_segment = 2.0;
  t.node_ns_per_packet = 80.0;
  t.node_events_per_packet = 2.0;
  EXPECT_DOUBLE_EQ(t.phy_self_ns_per_ppdu(), 800.0);
  EXPECT_DOUBLE_EQ(t.mac_self_ns_per_mpdu(), 900.0 - 400.0 - 100.0);
  EXPECT_DOUBLE_EQ(t.hack_self_ns_per_ack(), 300.0);
  EXPECT_DOUBLE_EQ(t.tcp_self_ns_per_segment(), 200.0);
  EXPECT_DOUBLE_EQ(t.node_self_ns_per_packet(), 0.0);  // clipped, not < 0
}

TEST(TraceTest, ChildTotalCountsDirectChildrenByName) {
  SpanRecorder rec("test:1");
  uint32_t parent = rec.Begin("parent", 0);
  uint32_t a = rec.Begin("child", parent);
  rec.End(a);
  uint32_t other = rec.Begin("other", parent);
  rec.End(other);
  uint32_t b = rec.Begin("child", parent);
  uint32_t grandchild = rec.Begin("child", b);
  rec.End(grandchild);
  rec.End(b);
  rec.End(parent);
  const std::vector<Span>& s = rec.spans();
  auto dur = [&s](uint32_t id) {
    return s[id - 1].end_ns - s[id - 1].start_ns;
  };
  EXPECT_EQ(rec.ChildTotalNs(parent, "child"), dur(a) + dur(b));
  EXPECT_EQ(rec.ChildTotalNs(b, "child"), dur(grandchild));
  EXPECT_EQ(s[grandchild - 1].parent, b);
  EXPECT_EQ(rec.run_id(), "test:1");
}

TEST(CheckRunTest, HealthyResultPasses) {
  EXPECT_TRUE(CheckRun(MakeResult(), /*tcp=*/true).empty());
}

TEST(CheckRunTest, CrcFailureTrips) {
  ScenarioResult r = MakeResult();
  r.crc_failures = 1;
  EXPECT_EQ(CheckRun(r, true).size(), 1u);
  EXPECT_EQ(CheckRun(r, false).size(), 1u);
}

TEST(CheckRunTest, ZeroDeliveryOverallTrips) {
  ScenarioResult r = MakeResult();
  for (hacksim::ClientResult& c : r.clients) {
    c.bytes_delivered = 0;
  }
  EXPECT_FALSE(CheckRun(r, /*tcp=*/false).empty());
}

TEST(CheckRunTest, SilentTcpFlowTripsOnlyOnTcpWorkloads) {
  ScenarioResult r = MakeResult();
  r.clients[1].bytes_delivered = 0;
  EXPECT_EQ(CheckRun(r, /*tcp=*/true).size(), 1u);
  EXPECT_TRUE(CheckRun(r, /*tcp=*/false).empty());
}

TEST(CheckRerunTest, PerturbedRerunTrips) {
  ScenarioResult a = MakeResult();
  ScenarioResult b = a;
  EXPECT_TRUE(CheckRerun(a, b).empty());
  EXPECT_EQ(Digest(a), Digest(b));
  b.clients[0].mac.rts_sent += 1;
  EXPECT_EQ(CheckRerun(a, b).size(), 1u);
  EXPECT_NE(Digest(a), Digest(b));
}

TEST(CheckRerunTest, UnequalEventCountTrips) {
  ScenarioResult a = MakeResult();
  ScenarioResult b = a;
  b.events_executed += 1;
  // Behaviour (and so the digest) is unchanged; the event count is not.
  EXPECT_EQ(Digest(a), Digest(b));
  EXPECT_EQ(CheckRerun(a, b).size(), 1u);
}

// The rules on real scenario runs: a short paper-cell run passes, re-runs
// identically, and trips each rule once poisoned.
TEST(CheckRunTest, RealRunPassesAndPoisonTrips) {
  const Workload* w = FindWorkload("paper-cell");
  ASSERT_NE(w, nullptr);
  ScenarioConfig c = ConfigFor(*w, ScenarioSeed(7, 0));
  c.duration = hacksim::SimTime::Millis(300);
  ScenarioResult r = hacksim::RunScenario(c);
  EXPECT_TRUE(CheckRun(r, w->tcp).empty());
  ScenarioResult again = hacksim::RunScenario(c);
  EXPECT_TRUE(CheckRerun(r, again).empty());

  ScenarioResult crc = r;
  crc.crc_failures = 3;
  EXPECT_FALSE(CheckRun(crc, w->tcp).empty());
  ScenarioResult silent = r;
  silent.clients[4].bytes_delivered = 0;
  EXPECT_FALSE(CheckRun(silent, w->tcp).empty());
  ScenarioResult perturbed = again;
  perturbed.aggregate_goodput_mbps += 1e-9;
  EXPECT_FALSE(CheckRerun(r, perturbed).empty());
}

TEST(WorkloadsTest, SeedsDeriveFromTheWorkloadSeed) {
  EXPECT_EQ(ScenarioSeed(5, 3), ScenarioSeed(5, 3));
  EXPECT_NE(ScenarioSeed(5, 3), ScenarioSeed(6, 3));
  EXPECT_NE(ScenarioSeed(5, 3), ScenarioSeed(5, 4));
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
}

TEST(WorkloadsTest, PositionsMatchTheScenario) {
  // Ring: every client 5 m from the AP. Two clusters: alternate sides.
  ScenarioConfig ring = ConfigFor(*FindWorkload("paper-cell"), 1);
  for (const hacksim::Position& p : ClientPositions(ring)) {
    EXPECT_NEAR(std::hypot(p.x, p.y), 5.0, 1e-9);
  }
  ScenarioConfig hidden = ConfigFor(*FindWorkload("hidden-up"), 1);
  std::vector<hacksim::Position> pos = ClientPositions(hidden);
  ASSERT_EQ(pos.size(), 200u);
  EXPECT_LT(pos[0].x, 0.0);
  EXPECT_GT(pos[1].x, 0.0);
}

}  // namespace
}  // namespace hackbench
