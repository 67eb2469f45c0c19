// The benchmark's three workloads. Each is one scenario configuration run
// as a closed loop with one client: one thread runs one RunScenario at a
// time and starts the next when it returns. README.md says why each exists
// and which layer it isolates.
#ifndef HACKBENCH_SRC_WORKLOADS_H_
#define HACKBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/phy80211/wifi_phy.h"
#include "src/scenario/download_scenario.h"

namespace hackbench {

struct Workload {
  const char* name;
  int clients;
  bool tcp;     // TCP download with HACK MORE DATA; otherwise UDP uplink
  bool hidden;  // two-cluster hidden topology on the log-distance channel
  // Simulated length of one scenario run. Long enough that every TCP flow
  // of a 200-client cell is past its start-up SYN and wired-queue losses
  // (the per-flow zero-delivery rule must never trip on a healthy run).
  double sim_seconds;
};

// The registered workloads, in the order README.md documents them.
const std::vector<Workload>& Workloads();
// nullptr when no workload has this name.
const Workload* FindWorkload(const std::string& name);

// The scenario configuration of `w` for one run with `scenario_seed`.
hacksim::ScenarioConfig ConfigFor(const Workload& w, uint64_t scenario_seed);

// Seed of the `index`-th scenario run of a benchmark run given the
// workload seed the benchmark takes as an argument.
uint64_t ScenarioSeed(uint64_t workload_seed, uint64_t index);

// Client positions RunScenario gives `config` (AP at the origin), for the
// layer harnesses that rebuild the cell's geometry. Only the ring and
// two-cluster layouts are used by the workloads.
std::vector<hacksim::Position> ClientPositions(
    const hacksim::ScenarioConfig& config);

}  // namespace hackbench

#endif  // HACKBENCH_SRC_WORKLOADS_H_
