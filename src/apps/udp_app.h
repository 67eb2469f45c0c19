// UDP constant-bit-rate source and counting sink — the unidirectional
// workload the paper uses as its capacity yardstick (Figures 9 and 10).
#ifndef SRC_APPS_UDP_APP_H_
#define SRC_APPS_UDP_APP_H_

#include <functional>

#include "src/net/address.h"
#include "src/packet/packet.h"
#include "src/sim/scheduler.h"
#include "src/stats/experiment_stats.h"

namespace hacksim {

class UdpCbrSource {
 public:
  struct Config {
    double rate_bps = 200e6;     // offered load (saturating by default)
    uint32_t payload_bytes = 1472;
    SimTime start;
    SimTime stop = SimTime::Max();
    // Token-bucket pacing. Zero (default) keeps the classic chain: one
    // kTransportTimer event per packet. A window longer than the packet
    // interval switches to bucket mode: one refill event per window
    // releases every CBR tick accrued since the last refill, so the event
    // count drops by the burst factor while byte totals match the classic
    // chain at every refill boundary and at Stop() (which flushes).
    SimTime burst_window;
  };

  // Cap on packets released per refill (bounds the burst a single event
  // injects into the MAC queue; the window shrinks to cap * interval).
  static constexpr uint32_t kMaxBurstPackets = 64;

  UdpCbrSource(Scheduler* scheduler, Config config, FiveTuple flow,
               std::function<void(Packet)> send);

  void Start();

  // Fault-injection control. Stop() ends the emission chain at the next
  // tick; Resume(at, stop) re-arms a fresh chain from `at`. The epoch
  // counter strands the old chain's self-rescheduled event, so stop/resume
  // cycles never double the emission rate.
  void Stop();
  void Resume(SimTime at, SimTime stop = SimTime::Max());

  uint64_t packets_sent() const { return packets_sent_; }

 private:
  void EmitNext(uint64_t epoch);
  void Refill(uint64_t epoch);
  void EmitOne();

  Scheduler* scheduler_;
  Config config_;
  FiveTuple flow_;
  std::function<void(Packet)> send_;
  SimTime interval_;
  // Bucket mode (burst_packets_ > 1): the virtual CBR clock. The next
  // unreleased tick; Max() until Start()/Resume() arms a chain.
  SimTime next_emit_ = SimTime::Max();
  SimTime period_;             // refill cadence = interval_ * burst_packets_
  uint32_t burst_packets_ = 1;  // 1 = classic one-event-per-packet chain
  uint64_t packets_sent_ = 0;
  uint64_t epoch_ = 0;
};

class UdpSink {
 public:
  explicit UdpSink(Scheduler* scheduler) : scheduler_(scheduler) {}

  void OnPacket(const Packet& packet);

  uint64_t bytes_received() const { return bytes_received_; }
  const GoodputTracker& tracker() const { return tracker_; }

  // Per-AC latency collection: when set, every delivery records its
  // enqueue→delivery delay (Packet::created_at is stamped at the source)
  // under the packet's DSCP-derived access category, plus the consecutive
  // same-sink delay delta for jitter. Recording only — no events, no RNG —
  // so wiring a recorder cannot perturb a run.
  void set_latency_recorder(LatencyRecorder* recorder) {
    latency_ = recorder;
  }

 private:
  Scheduler* scheduler_;
  uint64_t bytes_received_ = 0;
  GoodputTracker tracker_;
  LatencyRecorder* latency_ = nullptr;
  SimTime last_delay_;
  bool has_last_delay_ = false;
};

}  // namespace hacksim

#endif  // SRC_APPS_UDP_APP_H_
