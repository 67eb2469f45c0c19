// Correctness rules every scenario run must pass, the result digest, and
// the exact (machine-independent) counters the per-layer table reports.
#ifndef HACKBENCH_SRC_CHECKS_H_
#define HACKBENCH_SRC_CHECKS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/download_scenario.h"

namespace hackbench {

// Reasons `r` fails: any ROHC CRC failure, zero bytes delivered overall,
// or — when `tcp` — any flow that delivered zero bytes. Empty means pass.
std::vector<std::string> CheckRun(const hacksim::ScenarioResult& r, bool tcp);

// Reasons a re-run of the same seed disagrees with the first run: the
// simulated behaviour differs (ScenarioResult::BehaviourEquals) or the
// scheduler executed a different number of events. Empty means pass.
std::vector<std::string> CheckRerun(const hacksim::ScenarioResult& first,
                                    const hacksim::ScenarioResult& again);

// MD5 (hex) over every field BehaviourEquals compares. Equal results give
// equal digests; a modelling change shows up as a different digest.
std::string Digest(const hacksim::ScenarioResult& r);

// One named metric with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Exact counters summed over a fixed set of scenario runs. They depend only
// on the seeds, never on the host, so a speed-only change leaves them equal.
struct ExactCounts {
  int runs = 0;
  double sim_seconds = 0.0;
  uint64_t attached_phys = 0;  // per run (AP + clients)
  uint64_t events = 0;
  std::array<uint64_t, hacksim::kEventClassCount> events_by_class{};
  uint64_t pending_at_end = 0;
  uint64_t ppdus = 0;
  uint64_t out_of_range = 0;
  uint64_t collisions = 0;
  int64_t busy_ns = 0;
  int64_t collision_ns = 0;
  uint64_t overlap_losses = 0;
  uint64_t captures = 0;
  uint64_t mpdu_tx_attempts = 0;
  uint64_t first_try = 0;
  uint64_t retried = 0;
  uint64_t response_timeouts = 0;
  uint64_t rts_sent = 0;
  uint64_t cts_timeouts = 0;
  uint64_t queue_drops = 0;
  uint64_t rx_corrupted = 0;
  uint64_t compressed_acks = 0;
  uint64_t vanilla_acks = 0;
  uint64_t flushed_to_vanilla = 0;
  uint64_t retained_resends = 0;
  uint64_t unique_compressed_acks = 0;
  uint64_t unique_compressed_bytes = 0;
  uint64_t hack_payloads = 0;
  uint64_t crc_failures = 0;
  uint64_t stale_context_drops = 0;
  uint64_t tcp_segments = 0;  // received by every TCP receiver
  uint64_t tcp_acks = 0;      // sent by every TCP receiver
  uint64_t tcp_bytes = 0;     // delivered by every TCP receiver
  uint64_t tcp_timeouts = 0;
  uint64_t udp_packets = 0;   // delivered to every UDP sink
  double goodput_mbps_sum = 0.0;

  void Add(const hacksim::ScenarioResult& r, const hacksim::ScenarioConfig& c);

  // Packets that cross the wired hop (server <-> AP): TCP segments and
  // ACKs, or delivered UDP datagrams.
  uint64_t wired_packets() const;
  // Share of received TCP segments that carried no new byte — retransmits
  // that reached a receiver holding the data already. The server-side
  // retransmit counter of a download is not part of ScenarioResult.
  double tcp_retransmit_ratio() const;
  // Compressed ACK records per HACK payload (one payload per LL ACK).
  double acks_per_payload() const;

  // The exact per-layer metrics, in README.md's order.
  std::vector<Metric> Metrics() const;
};

}  // namespace hackbench

#endif  // HACKBENCH_SRC_CHECKS_H_
