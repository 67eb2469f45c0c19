// bench_paper: the paper's figures and tables, one registry entry each.
//
//   bench_paper                 run every entry in paper order
//   bench_paper fig10_goodput   run one entry
//
// An unknown entry name prints the list and exits 2. Each entry prints the
// measured series next to the published values where the paper states
// them. HACKSIM_QUICK=1 cuts seeds, durations and sweeps for a smoke pass;
// quick numbers are not comparable with full-mode ones. docs/hack.md
// ("Paper reproduction") lists every entry and the known gaps.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/capacity_model.h"
#include "src/scenario/download_scenario.h"

using namespace hacksim;

namespace {

bool QuickMode() {
  const char* env = std::getenv("HACKSIM_QUICK");
  return env != nullptr && std::string(env) == "1";
}

int Seeds() { return QuickMode() ? 1 : 3; }

SimTime RunSeconds(int full) {
  return SimTime::Seconds(QuickMode() ? 1 : full);
}

// --- shared scenario recipes ------------------------------------------------

// 802.11n at `rate` Mbps, one client; `full_seconds` long outside quick mode.
ScenarioConfig Dot11n(double rate, int full_seconds, uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = rate;
  c.n_clients = 1;
  c.duration = RunSeconds(full_seconds);
  c.seed = seed;
  return c;
}

// The SoRa testbed at 54 Mbps (§4.1/4.2): 802.11a with a 1500 B MTU,
// SoRa's LL ACKs 37 us late behind a widened ACK timeout, and per-client
// frame loss (Client 1 2%, the lossier one; Client 2 1%). The paper's runs
// last 120 s; 10 s here.
ScenarioConfig Sora54(int n_clients, uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = n_clients;
  c.duration = RunSeconds(10);
  c.seed = seed;
  c.tcp.mss = 1448;  // 1500 B MTU with timestamps
  c.udp_payload_bytes = 1472;
  c.extra_ack_delay = SimTime::Micros(37);
  c.extra_ack_timeout = SimTime::Micros(80);
  c.clients.resize(n_clients);
  c.clients[0].bernoulli_data_loss = 0.02;
  if (n_clients > 1) {
    c.clients[1].bernoulli_data_loss = 0.01;
  }
  return c;
}

// The 25 MB bulk download at 54 Mbps behind Tables 2 and 3 (5 MB in quick
// mode); the 60 s duration only bounds completion.
ScenarioConfig Transfer25MB(HackVariant hack) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = 1;
  c.hack = hack;
  c.file_bytes = QuickMode() ? 5'000'000 : 25'000'000;
  c.duration = SimTime::Seconds(60);
  c.tcp.mss = 1448;
  c.seed = 7;
  return c;
}

// --- seed averaging ---------------------------------------------------------

// One RunScenario per seed 1..Seeds() of the config `make` builds.
std::vector<ScenarioResult> RunSeeds(
    const std::function<ScenarioConfig(uint64_t seed)>& make) {
  std::vector<ScenarioResult> runs;
  for (int seed = 1; seed <= Seeds(); ++seed) {
    runs.push_back(RunScenario(make(seed)));
  }
  return runs;
}

// Seed mean of `metric` over `runs`.
double Mean(const std::vector<ScenarioResult>& runs,
            const std::function<double(const ScenarioResult&)>& metric) {
  double sum = 0;
  for (const ScenarioResult& r : runs) {
    sum += metric(r);
  }
  return sum / runs.size();
}

double Steady(const ScenarioResult& r) {
  return r.steady_aggregate_goodput_mbps;
}

double Total(const ScenarioResult& r) { return r.aggregate_goodput_mbps; }

// Seed mean of the steady-state aggregate goodput.
double SteadyMean(const std::function<ScenarioConfig(uint64_t seed)>& make) {
  return Mean(RunSeeds(make), Steady);
}

double GainPercent(double hack, double stock) {
  return 100.0 * (hack / stock - 1.0);
}

// --- entries ----------------------------------------------------------------

// Figure 1(a)/(b): theoretical goodput of TCP vs TCP/HACK across PHY rates,
// plus the §1/§2 headline numbers (110.5 us mean acquisition, 9% efficiency
// for single frames at 600 Mbps, 42-MPDU batches).
void Fig01Theory() {
  std::printf("headline constants:\n");
  std::printf("  mean 802.11n acquisition overhead : %.1f us (paper: 110.5)\n",
              MeanAcquisitionOverhead(WifiStandard::k80211n).ToMicrosF());
  CapacityParams p600;
  p600.standard = WifiStandard::k80211n;
  p600.data_mode = ModeForRate(Modes80211nExtended(), 600);
  std::printf("  single-frame efficiency @600 Mbps : %.1f %% (paper: ~9%%)\n",
              100.0 * SingleFrameEfficiency(p600));
  CapacityParams p150;
  p150.standard = WifiStandard::k80211n;
  p150.data_mode = ModeForRate(Modes80211n(), 150);
  std::printf("  A-MPDU capacity (1460 B payloads) : %d MPDUs (paper: 42)\n\n",
              AmpduDataMpdus(p150));

  double low_rate_gain_sum = 0;
  int low_rate_count = 0;
  auto table = [&](const char* title, const char* stock_name,
                   WifiStandard standard, std::span<const WifiMode> modes) {
    std::printf("%s\n", title);
    std::printf("%8s %14s %14s %8s\n", "phy", stock_name, "TCP/HACK",
                "gain%");
    for (const WifiMode& mode : modes) {
      CapacityParams p;
      p.standard = standard;
      p.data_mode = mode;
      double stock = TcpGoodputMbps(p);
      double hack = TcpHackGoodputMbps(p);
      double gain = hack / stock - 1.0;
      if (standard == WifiStandard::k80211n && mode.rate_mbps() < 100) {
        low_rate_gain_sum += gain;
        ++low_rate_count;
      }
      std::printf("%8.0f %14.2f %14.2f %7.1f%%\n", mode.rate_mbps(), stock,
                  hack, 100.0 * gain);
    }
  };
  table("Figure 1(a) - 802.11a theoretical goodput (Mbps)", "TCP/802.11a",
        WifiStandard::k80211a, Modes80211a());
  std::printf("\n");
  table("Figure 1(b) - 802.11n theoretical goodput (Mbps)", "TCP/802.11n",
        WifiStandard::k80211n, Modes80211nExtended());
  std::printf("\nmean gain below 100 Mbps: %.1f%% (paper caption: ~8%%)\n",
              100.0 * low_rate_gain_sum / low_rate_count);
  std::printf("gain at 600 Mbps        : see row above (paper: ~20%%)\n");
}

// Figure 9: SoRa testbed goodput for UDP (U), TCP/HACK (H) and TCP/802.11a
// (T) with one and two clients. Paper: UDP ~26.5, HACK ~25.0, stock ~19.4
// Mbps; HACK improvement 29% (one client) / 32.2% (two clients).
void Fig09Sora() {
  std::printf("%-9s %-6s", "clients", "proto");
  std::printf(" %10s %10s %10s\n", "client1", "client2", "total");
  struct Row {
    const char* name;
    TransportProto proto;
    HackVariant hack;
  };
  const Row rows[] = {
      {"U", TransportProto::kUdp, HackVariant::kOff},
      {"H", TransportProto::kTcp, HackVariant::kMoreData},
      {"T", TransportProto::kTcp, HackVariant::kOff},
  };
  double stock_total[3] = {0, 0, 0};
  double hack_total[3] = {0, 0, 0};
  for (int n : {1, 2}) {
    for (const Row& row : rows) {
      std::vector<ScenarioResult> runs = RunSeeds([&](uint64_t seed) {
        ScenarioConfig c = Sora54(n, seed);
        c.proto = row.proto;
        c.hack = row.hack;
        return c;
      });
      double total = Mean(runs, Total);
      std::printf("%-9d %-6s %10.1f %10.1f %10.1f\n", n, row.name,
                  Mean(runs, [](const ScenarioResult& r) {
                    return r.clients[0].goodput_mbps;
                  }),
                  n > 1 ? Mean(runs,
                               [](const ScenarioResult& r) {
                                 return r.clients[1].goodput_mbps;
                               })
                        : 0.0,
                  total);
      if (row.hack == HackVariant::kMoreData) {
        hack_total[n] = total;
      } else if (row.proto == TransportProto::kTcp) {
        stock_total[n] = total;
      }
    }
  }
  std::printf("\nHACK improvement: one client %.1f%% (paper: 29%%), "
              "two clients %.1f%% (paper: 32.2%%)\n",
              GainPercent(hack_total[1], stock_total[1]),
              GainPercent(hack_total[2], stock_total[2]));
  std::printf("paper reference bars: UDP ~26.5, TCP/HACK ~25.0, "
              "TCP/802.11a ~19.4 Mbps\n");
}

// Figure 10: aggregate steady-state goodput at 150 Mbps for 1/2/4/10
// clients: UDP, TCP/HACK (MORE DATA), TCP/opportunistic-HACK, stock TCP.
// Paper: UDP ~flat at ~135 Mbps; MORE DATA gains 15% at 1 client to 22% at
// 10; opportunistic ~= stock; stock declines slightly with clients.
void Fig10Goodput() {
  std::printf("%-9s %10s %14s %12s %12s %9s\n", "clients", "UDP",
              "HACK(MoreData)", "HACK(Opp)", "TCP/802.11", "gain%");
  for (int n : {1, 2, 4, 10}) {
    auto mean = [&](TransportProto proto, HackVariant hack) {
      return SteadyMean([&](uint64_t seed) {
        ScenarioConfig c = Dot11n(150.0, 5, seed);
        c.n_clients = n;
        c.proto = proto;
        c.hack = hack;
        return c;
      });
    };
    double udp = mean(TransportProto::kUdp, HackVariant::kOff);
    double more_data = mean(TransportProto::kTcp, HackVariant::kMoreData);
    double opp = mean(TransportProto::kTcp, HackVariant::kOpportunistic);
    double stock = mean(TransportProto::kTcp, HackVariant::kOff);
    std::printf("%-9d %10.1f %14.1f %12.1f %12.1f %8.1f%%\n", n, udp,
                more_data, opp, stock, GainPercent(more_data, stock));
  }
  std::printf("\npaper: UDP ~135 flat; MoreData gains 15%% (1 client) to "
              "22%% (10); opportunistic ~= stock\n");
  std::printf("see docs/hack.md (Paper reproduction) for why our 802.11n "
              "MoreData gains sit at the low end of the paper's band\n");
}

// Figure 11: goodput envelope over SNR for each 802.11n rate, TCP/HACK vs
// TCP/802.11n, under the distance-based SNR loss model. Paper: HACK
// improves goodput by ~12.6% on average across SNRs; no decompression CRC
// failures anywhere.
void Fig11Snr() {
  SnrLossModel snr_model;
  // Distances spanning SNR ~30 dB down to ~4 dB.
  std::vector<double> distances = {3, 6, 10, 16, 25, 40, 60};
  std::vector<double> rates = {15, 30, 45, 60, 90, 120, 135, 150};
  if (QuickMode()) {
    distances = {3, 16, 60};
    rates = {15, 60, 150};
  }

  uint64_t crc_failures = 0;
  auto mean = [&](double rate, double distance, HackVariant hack) {
    std::vector<ScenarioResult> runs = RunSeeds([&](uint64_t seed) {
      ScenarioConfig c = Dot11n(rate, 3, seed);
      c.hack = hack;
      c.snr = SnrLossModel::Params{};
      c.clients.resize(1);
      c.clients[0].distance_m = distance;
      return c;
    });
    for (const ScenarioResult& r : runs) {
      crc_failures += r.crc_failures;
    }
    return Mean(runs, Total);
  };

  std::printf("%8s %8s | per-rate TCP/HACK goodput (Mbps), envelope in "
              "last columns\n",
              "dist(m)", "SNR(dB)");
  std::printf("%8s %8s |", "", "");
  for (double r : rates) {
    std::printf(" %5.0f", r);
  }
  std::printf(" | %8s %8s %6s\n", "env:HACK", "env:TCP", "gain");

  double improvement_sum = 0;
  int improvement_count = 0;
  for (double d : distances) {
    std::printf("%8.0f %8.1f |", d, snr_model.SnrDbAt(d));
    double best_hack = 0;
    double best_stock = 0;
    for (double rate : rates) {
      double hack = mean(rate, d, HackVariant::kMoreData);
      std::printf(" %5.1f", hack);
      best_hack = std::max(best_hack, hack);
    }
    for (double rate : rates) {
      best_stock = std::max(best_stock, mean(rate, d, HackVariant::kOff));
    }
    double gain = best_stock > 0.5 ? GainPercent(best_hack, best_stock) : 0.0;
    if (best_stock > 0.5) {
      improvement_sum += gain;
      ++improvement_count;
    }
    std::printf(" | %8.1f %8.1f %5.1f%%\n", best_hack, best_stock, gain);
  }
  std::printf("\nmean envelope improvement across SNRs: %.1f%% "
              "(paper: 12.6%%)\n",
              improvement_count > 0 ? improvement_sum / improvement_count
                                    : 0.0);
  std::printf("decompression CRC failures across the sweep: %llu "
              "(paper: 0)\n",
              static_cast<unsigned long long>(crc_failures));
}

// Figure 12: theoretical vs simulated goodput for TCP/802.11n and TCP/HACK
// at each 802.11n rate. Paper: simulated values fall below theory, and the
// simulated HACK gain *exceeds* the analytical one (stock suffers ACK/data
// collisions that HACK sidesteps) — 14% vs 7% at 150 Mbps.
void Fig12TheoryVsSim() {
  std::printf("%6s %12s %10s %12s %10s %12s\n", "rate", "theor.TCP",
              "sim.TCP", "theor.HACK", "sim.HACK", "sim gain");
  std::vector<double> rates = {15, 30, 45, 60, 90, 120, 135, 150};
  if (QuickMode()) {
    rates = {15, 90, 150};
  }
  for (double rate : rates) {
    CapacityParams p;
    p.standard = WifiStandard::k80211n;
    p.data_mode = ModeForRate(Modes80211n(), rate);
    auto sim = [&](HackVariant hack) {
      return SteadyMean([&](uint64_t seed) {
        ScenarioConfig c = Dot11n(rate, 5, seed);
        c.hack = hack;
        return c;
      });
    };
    double sim_stock = sim(HackVariant::kOff);
    double sim_hack = sim(HackVariant::kMoreData);
    std::printf("%6.0f %12.1f %10.1f %12.1f %10.1f %11.1f%%\n", rate,
                TcpGoodputMbps(p), sim_stock, TcpHackGoodputMbps(p), sim_hack,
                GainPercent(sim_hack, sim_stock));
  }
  std::printf("\npaper: simulated < theoretical at every rate; simulated "
              "HACK gain (14%% @150) exceeds the 7%% analytical gain\n");
}

// Table 1: share of the AP's data MPDUs sent on the first attempt vs after
// retries, for UDP/802.11a, TCP/HACK and TCP/802.11a. Paper: no-retry
// fractions ~99% (UDP), 97-98% (HACK), 86-88% (stock).
void Tab1Retries() {
  std::printf("%-10s %12s %12s %12s   (paper no-retry: U 99%%, H 97-98%%, "
              "T 86-88%%)\n",
              "target", "UDP/802.11a", "TCP/HACK", "TCP/802.11a");
  auto first_try = [](TransportProto proto, HackVariant hack, int n) {
    return Mean(RunSeeds([&](uint64_t seed) {
                  ScenarioConfig c = Sora54(n, seed);
                  c.proto = proto;
                  c.hack = hack;
                  return c;
                }),
                [](const ScenarioResult& r) {
                  return r.ap_mac.FirstTryFraction();
                });
  };
  // The AP's MAC stats aggregate over its peers, so "Client 2" reuses the
  // two-client run and equals "Both" (docs/hack.md, Paper reproduction).
  const char* labels[] = {"Client 1", "Client 2", "Both"};
  int client_counts[] = {1, 2, 2};
  for (int i = 0; i < 3; ++i) {
    int n = client_counts[i];
    double udp = first_try(TransportProto::kUdp, HackVariant::kOff, n);
    double hack = first_try(TransportProto::kTcp, HackVariant::kMoreData, n);
    double stock = first_try(TransportProto::kTcp, HackVariant::kOff, n);
    std::printf("%-10s %10.1f%% %10.1f%% %10.1f%%   no retries\n", labels[i],
                100 * udp, 100 * hack, 100 * stock);
    std::printf("%-10s %10.1f%% %10.1f%% %10.1f%%   1 or more\n", "",
                100 * (1 - udp), 100 * (1 - hack), 100 * (1 - stock));
  }
}

// Table 2: conventional vs compressed ACK counts and bytes for the 25 MB
// transfer, and the resulting ROHC compression ratio. Paper: TCP/802.11a
// sends 9060 ACKs / 471120 B; TCP/HACK ~10 vanilla ACKs (520 B) and 9050
// compressed ACKs (39478 B), ratio 12x.
void Tab2Compression() {
  ScenarioResult stock = RunScenario(Transfer25MB(HackVariant::kOff));
  ScenarioResult hack = RunScenario(Transfer25MB(HackVariant::kMoreData));
  const MacStats& sm = stock.clients[0].mac;
  const HackStats& hh = hack.clients[0].hack;
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };

  std::printf("%-14s %10s %12s %10s %12s %8s\n", "", "ACK cnt", "ACK bytes",
              "ACKC cnt", "ACKC bytes", "ratio");
  std::printf("%-14s %10llu %12llu %10d %12d %8s\n", "TCP/802.11a",
              u(sm.tcp_ack_frames_sent), u(sm.tcp_ack_bytes_sent), 0, 0,
              "(1)");
  std::printf("%-14s %10llu %12llu %10llu %12llu %8.1f\n", "TCP/HACK",
              u(hh.vanilla_acks_sent), u(hh.vanilla_ack_bytes),
              u(hh.unique_compressed_acks), u(hh.unique_compressed_bytes),
              hh.CompressionRatio());
  std::printf("\npaper row (25 MB): TCP/802.11a 9060 ACKs / 471120 B; "
              "TCP/HACK 10 / 520 B vanilla + 9050 / 39478 B compressed "
              "(ratio 12)\n");
  std::printf("bytes per compressed ACK: %.2f (paper: 4.36)\n",
              hh.unique_compressed_acks > 0
                  ? static_cast<double>(hh.unique_compressed_bytes) /
                        hh.unique_compressed_acks
                  : 0.0);
  std::printf("transfer completion: stock %.1f s, hack %.1f s "
              "(%llu B delivered each)\n",
              stock.clients[0].completion_time.ToSecondsF(),
              hack.clients[0].completion_time.ToSecondsF(),
              u(hack.clients[0].bytes_delivered));
}

// Table 3: TCP-ACK time overhead for the 25 MB transfer — vanilla TCP ACK
// airtime, ROHC payload airtime, channel acquisition for TCP ACK frames,
// and extra LL-ACK wait. The paper's LL-ACK column includes SoRa's 37 us
// LL-ACK latency, so the transfer runs with it. Paper row (ms): stock
// 70 / 0 / 1093 / 456; HACK 0.08 / 13.1 / 1.17 / 0.46.
void Tab3Overhead() {
  auto run = [](HackVariant hack) {
    ScenarioConfig c = Transfer25MB(hack);
    c.extra_ack_delay = SimTime::Micros(37);
    c.extra_ack_timeout = SimTime::Micros(80);
    return RunScenario(c);
  };
  ScenarioResult stock = run(HackVariant::kOff);
  ScenarioResult hack = run(HackVariant::kMoreData);
  std::printf("%-14s %10s %10s %10s %12s\n", "", "TCP ACK", "ROHC",
              "Channel", "LLACK ovhd");
  for (const auto& [name, r] :
       {std::pair<const char*, const ScenarioResult*>{"TCP/802.11a", &stock},
        {"TCP/HACK", &hack}}) {
    const MacStats& m = r->clients[0].mac;
    std::printf("%-14s %10.2f %10.2f %10.2f %12.2f\n", name,
                m.tcp_ack_payload_airtime_ns / 1e6,
                m.rohc_payload_airtime_ns / 1e6,
                m.tcp_ack_channel_overhead_ns / 1e6,
                m.tcp_ack_ll_ack_overhead_ns / 1e6);
  }
  std::printf("\npaper rows (ms, 25 MB): stock 70 / 0 / 1093 / 456; "
              "hack 0.08 / 13.1 / 1.17 / 0.46\n");
  std::printf("(scale with transfer size; HACKSIM_QUICK runs 5 MB -> ~1/5 "
              "of the full-run magnitudes)\n");
}

// §4.2 cross-validation: the paper validates SoRa against ns-3 by matching
// loss rates and accounting for SoRa's extra LL-ACK delay; this runs the
// pair, one client with 2% loss, with the delay off and on. Paper: stock
// 22.4 (ns-3) vs 19.6 -> 22 corrected (SoRa); HACK 28 (ns-3) vs 25.5 ->
// 27.7 corrected (SoRa).
void Crossval() {
  std::printf("%-12s %16s %16s\n", "", "no LL-ACK delay", "37us LL-ACK "
                                                          "delay");
  auto mean = [](HackVariant hack, bool sora_delay) {
    return Mean(RunSeeds([&](uint64_t seed) {
                  ScenarioConfig c = Sora54(1, seed);
                  c.hack = hack;
                  if (!sora_delay) {
                    c.extra_ack_delay = SimTime::Zero();
                    c.extra_ack_timeout = SimTime::Zero();
                  }
                  return c;
                }),
                Total);
  };
  for (const auto& [name, hack] :
       {std::pair<const char*, HackVariant>{"TCP/802.11a", HackVariant::kOff},
        {"TCP/HACK", HackVariant::kMoreData}}) {
    std::printf("%-12s %13.1f    %13.1f\n", name, mean(hack, false),
                mean(hack, true));
  }
  std::printf("\npaper: stock 22.4 (sim) vs 19.6/22.0 (SoRa raw/corrected); "
              "hack 28.0 vs 25.5/27.7\n");
  std::printf("the delay-off column plays the ns-3 role; delay-on plays "
              "SoRa's raw measurement\n");
}

// Ablations beyond the paper's own comparisons: protocol variants
// (including the §3.2 explicit-timer strawman and the §5 timestamp-echo
// design), driver->NIC staging latency (the Fig 3/4 ready race), the
// per-LL-ACK payload budget (footnote 7), the TXOP cap (§5), and the
// upload direction (§3.1's Time Capsule case).
void Ablations() {
  auto mean = [](const std::function<void(ScenarioConfig&)>& tweak) {
    return SteadyMean([&](uint64_t seed) {
      ScenarioConfig c = Dot11n(150.0, 4, seed);
      tweak(c);
      return c;
    });
  };

  std::printf("variant sweep (802.11n 150 Mbps, steady goodput Mbps):\n");
  for (const auto& [name, v] :
       {std::pair<const char*, HackVariant>{"stock", HackVariant::kOff},
        {"more-data", HackVariant::kMoreData},
        {"opportunistic", HackVariant::kOpportunistic},
        {"explicit-timer", HackVariant::kExplicitTimer},
        {"timestamp-echo", HackVariant::kTimestampEcho}}) {
    std::printf("  %-15s %6.1f\n", name,
                mean([&](ScenarioConfig& c) { c.hack = v; }));
  }

  std::printf("\nstaging latency sweep (MORE DATA variant):\n");
  for (int us : {0, 30, 100, 500, 2000}) {
    std::printf("  %5d us %6.1f\n", us, mean([&](ScenarioConfig& c) {
                  c.hack = HackVariant::kMoreData;
                  c.hack_config.staging_latency = SimTime::Micros(us);
                }));
  }

  std::printf("\npayload budget sweep (bytes per LL ACK):\n");
  for (size_t cap : {40u, 80u, 120u, 240u, 480u}) {
    std::printf("  %5zu B %6.1f\n", cap, mean([&](ScenarioConfig& c) {
                  c.hack = HackVariant::kMoreData;
                  c.hack_config.max_payload_bytes = cap;
                }));
  }

  std::printf("\nTXOP limit sweep (aggregation cap, stock vs hack):\n");
  for (int ms : {1, 2, 4}) {
    double stock = mean(
        [&](ScenarioConfig& c) { c.txop_limit = SimTime::Millis(ms); });
    double hack = mean([&](ScenarioConfig& c) {
      c.hack = HackVariant::kMoreData;
      c.txop_limit = SimTime::Millis(ms);
    });
    std::printf("  %d ms  stock %6.1f  hack %6.1f  gain %+.1f%%  "
                "(shorter TXOPs -> HACK claws back more, §5)\n",
                ms, stock, hack, GainPercent(hack, stock));
  }

  std::printf("\nupload direction (wireless backup, §3.1):\n");
  double stock = mean([](ScenarioConfig& c) { c.upload = true; });
  double hack = mean([](ScenarioConfig& c) {
    c.upload = true;
    c.hack = HackVariant::kMoreData;
  });
  std::printf("  stock %6.1f  hack %6.1f  gain %+.1f%%\n", stock, hack,
              GainPercent(hack, stock));
}

// --- registry ---------------------------------------------------------------

struct Entry {
  const char* name;
  const char* reproduces;
  void (*run)();
};

// Paper order; `bench_paper` with no argument runs them all in this order.
constexpr Entry kEntries[] = {
    {"fig01_theory", "Figure 1(a), Figure 1(b); Section 1/2 constants",
     Fig01Theory},
    {"fig09_sora", "Figure 9 (SoRa testbed goodput, U/H/T x {1,2} clients)",
     Fig09Sora},
    {"fig10_goodput",
     "Figure 10 (aggregate goodput vs client count, 150 Mbps)", Fig10Goodput},
    {"fig11_snr", "Figure 11 (goodput envelope vs SNR; % improvement)",
     Fig11Snr},
    {"fig12_theory_vs_sim",
     "Figure 12 (analytical vs simulated goodput per rate)", Fig12TheoryVsSim},
    {"tab1_retries", "Table 1 (first-attempt vs retried frame fractions)",
     Tab1Retries},
    {"tab2_compression",
     "Table 2 (ACK counts/bytes and ROHC compression ratio, 25 MB transfer)",
     Tab2Compression},
    {"tab3_overhead", "Table 3 (TCP ACK time overhead breakdown, ms)",
     Tab3Overhead},
    {"crossval", "Section 4.2 cross-validation (SoRa vs ns-3 recipe)",
     Crossval},
    {"ablations",
     "design-choice ablations (variants, staging latency, payload budget, "
     "TXOP, upload)",
     Ablations},
};

void RunEntry(const Entry& e) {
  std::printf("==============================================================\n");
  std::printf("bench_%s\n", e.name);
  std::printf("  reproduces: %s\n", e.reproduces);
  std::printf("==============================================================\n");
  e.run();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const Entry& e : kEntries) {
      RunEntry(e);
    }
    return 0;
  }
  for (const Entry& e : kEntries) {
    if (argc == 2 && std::strcmp(argv[1], e.name) == 0) {
      RunEntry(e);
      return 0;
    }
  }
  std::fprintf(stderr, "usage: bench_paper [entry]\nentries:\n");
  for (const Entry& e : kEntries) {
    std::fprintf(stderr, "  %-20s %s\n", e.name, e.reproduces);
  }
  return 2;
}
