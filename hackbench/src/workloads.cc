#include "hackbench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/sim/random.h"

namespace hackbench {

using namespace hacksim;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // The paper's Fig. 10 cell: per-event work in tcp, rohc, hack, node
      // and sim; 11 PHYs, so channel fan-out is near zero.
      {"paper-cell", 10, /*tcp=*/true, /*hidden=*/false, 1.0},
      // The same cell at 200 clients: fan-out, the edge sort and
      // per-receiver arrival work dominate. 10 s: with all 200 flows
      // starting at once, a flow's first data can stall for 5-8 s with
      // no drop counted anywhere (README.md, "Known defect"); 5 s runs
      // failed the per-flow rule about once in 17.
      {"dense-down", 200, /*tcp=*/true, /*hidden=*/false, 10.0},
      // Many concurrent senders on the geometric channel: SINR, capture,
      // range pruning, DCF contention, NAV and RTS. No tcp, hack or rohc.
      {"hidden-up", 200, /*tcp=*/false, /*hidden=*/true, 2.0},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

ScenarioConfig ConfigFor(const Workload& w, uint64_t scenario_seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = w.clients;
  // Every flow starts at t = 0, so every simulated second carries the
  // same load and wall time per simulated second does not depend on how
  // much of the run is ramp-up.
  c.start_stagger = SimTime();
  c.duration = SimTime::Nanos(std::llround(w.sim_seconds * 1e9));
  c.seed = scenario_seed;
  if (w.tcp) {
    c.proto = TransportProto::kTcp;
    c.hack = HackVariant::kMoreData;
  } else {
    // bench_scale's saturated uplink rows: 2.5 Gbps offered in aggregate,
    // paced by a 16 ms token bucket per station.
    c.proto = TransportProto::kUdp;
    c.hack = HackVariant::kOff;
    c.upload = true;
    c.udp_rate_bps = 2.5e9;
    c.udp_burst_window = SimTime::Millis(16);
    c.rts_threshold = 500;
  }
  if (w.hidden) {
    c.topology = Topology::kTwoClusterHidden;
    c.propagation = LogDistancePropagation::Params{};
  }
  return c;
}

uint64_t ScenarioSeed(uint64_t workload_seed, uint64_t index) {
  return DeriveRunSeed(workload_seed, index);
}

std::vector<Position> ClientPositions(const ScenarioConfig& config) {
  // Mirrors PlaceClient in src/scenario/download_scenario.cc, which is
  // internal to that file.
  constexpr double kPi = 3.14159265358979;
  std::vector<Position> out;
  int n = config.n_clients;
  for (int i = 0; i < n; ++i) {
    if (config.topology == Topology::kTwoClusterHidden) {
      int cluster = i % 2;
      double sign = cluster == 0 ? -1.0 : 1.0;
      int j = i / 2;
      int per_cluster = (n + 1 - cluster) / 2;
      int k = static_cast<int>(
          std::ceil(std::sqrt(static_cast<double>(per_cluster))));
      double step = k > 1 ? config.cluster_spread_m / (k - 1) : 0.0;
      double half = config.cluster_spread_m / 2.0;
      double ox = k > 1 ? (j % k) * step - half : 0.0;
      double oy = k > 1 ? (j / k) * step - half : 0.0;
      out.push_back(Position{sign * config.cluster_distance_m + ox, oy});
    } else {
      double distance = ClientSpec{}.distance_m;
      double angle = 2.0 * kPi * i / std::max(1, n);
      out.push_back(
          Position{distance * std::cos(angle), distance * std::sin(angle)});
    }
  }
  return out;
}

}  // namespace hackbench
