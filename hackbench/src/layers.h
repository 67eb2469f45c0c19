// Per-layer host-time harnesses for the traced run. Each drives one layer's
// public functions directly, with inputs shaped by the workload (station
// count, placement, propagation, flow count, goodput), and records
// a span per batch of calls. Every harness does a fixed amount of work, so
// its spans are comparable between commits.
#ifndef HACKBENCH_SRC_LAYERS_H_
#define HACKBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hackbench/src/trace.h"
#include "src/scenario/download_scenario.h"

namespace hackbench {

struct LayerShape {
  hacksim::ScenarioConfig config;  // geometry, propagation, RTS, direction
  int flows = 1;                   // TCP flows (>= 1 so every harness runs)
  double acks_per_payload = 1.0;   // compressed ACK records per LL ACK
  double cell_goodput_bps = 0.0;   // aggregate goodput of the workload
  double mpdus_per_ppdu = 1.0;     // the workload's MPDUs per PPDU
  uint64_t seed = 1;
};

// Host time per call, each inclusive of whatever the call runs below it,
// plus the harness-side work counts needed to derive self time.
struct LayerTimes {
  double sim_ns_per_event = 0.0;
  double phy_ns_per_ppdu = 0.0;
  double phy_events_per_ppdu = 0.0;
  // Receive callbacks (decoded + corrupted) the stub listeners saw per
  // PPDU, and what the harness channel's own counters predict for it:
  // attached PHYs - 1 - out-of-range pairs per PPDU.
  double phy_rx_callbacks_per_ppdu = 0.0;
  double phy_expected_visits_per_ppdu = 0.0;
  double mac_ns_per_mpdu = 0.0;
  double mac_ppdus_per_mpdu = 0.0;
  double mac_events_per_mpdu = 0.0;
  double hack_ns_per_ack = 0.0;  // includes the ROHC decompress it calls
  double rohc_ns_per_compress = 0.0;
  double rohc_ns_per_decompress = 0.0;
  double tcp_ns_per_segment = 0.0;
  double tcp_events_per_segment = 0.0;
  double node_ns_per_packet = 0.0;
  double node_events_per_packet = 0.0;
  // A harness whose own outputs were wrong (a lost packet on a lossless
  // pair, a failed decompression) names itself here.
  std::vector<std::string> errors;

  // Self time per call: inclusive time minus the scheduler events and the
  // lower layers the harness drove.
  double phy_self_ns_per_ppdu() const;
  double mac_self_ns_per_mpdu() const;
  double hack_self_ns_per_ack() const;
  double tcp_self_ns_per_segment() const;
  double node_self_ns_per_packet() const;
};

// Runs every harness under span `root` of `rec`.
LayerTimes MeasureLayers(const LayerShape& shape, SpanRecorder& rec,
                         uint32_t root);

}  // namespace hackbench

#endif  // HACKBENCH_SRC_LAYERS_H_
