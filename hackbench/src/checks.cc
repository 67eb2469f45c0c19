#include "hackbench/src/checks.h"

#include <cstring>
#include <type_traits>

#include "hackbench/src/stats.h"
#include "src/util/md5.h"

namespace hackbench {

using namespace hacksim;

std::vector<std::string> CheckRun(const ScenarioResult& r, bool tcp) {
  std::vector<std::string> reasons;
  if (r.crc_failures != 0) {
    reasons.push_back("crc_failures=" + std::to_string(r.crc_failures));
  }
  uint64_t total = 0;
  int silent = 0;
  for (const ClientResult& c : r.clients) {
    total += c.bytes_delivered;
    silent += c.bytes_delivered == 0 ? 1 : 0;
  }
  if (total == 0) {
    reasons.push_back("zero bytes delivered");
  }
  if (tcp && silent > 0) {
    reasons.push_back(std::to_string(silent) +
                      " TCP flow(s) delivered zero bytes");
  }
  return reasons;
}

std::vector<std::string> CheckRerun(const ScenarioResult& first,
                                    const ScenarioResult& again) {
  std::vector<std::string> reasons;
  if (!first.BehaviourEquals(again)) {
    reasons.push_back("re-run behaviour differs (digest " + Digest(first) +
                      " vs " + Digest(again) + ")");
  }
  if (first.events_executed != again.events_executed) {
    reasons.push_back("re-run events_executed " +
                      std::to_string(first.events_executed) + " vs " +
                      std::to_string(again.events_executed));
  }
  return reasons;
}

namespace {

class DigestBuilder {
 public:
  // Integer-only stat structs are hashed as raw bytes: every field a later
  // change adds is covered without touching this file. A field that brings
  // padding (a bool among uint64_t) makes the representation ambiguous and
  // stops the build here; hash such a struct field by field instead.
  template <typename T>
  void Raw(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "stat struct has padding or floating-point fields");
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void Double(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Raw(bits);
  }
  void Time(SimTime t) { Raw(t.ns()); }
  std::string Finish() const { return Md5::ToHex(Md5::Hash(bytes_)); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace

std::string Digest(const ScenarioResult& r) {
  // Exactly the fields ScenarioResult::BehaviourEquals compares.
  DigestBuilder d;
  d.Raw(r.clients.size());
  for (const ClientResult& c : r.clients) {
    d.Double(c.goodput_mbps);
    d.Double(c.steady_goodput_mbps);
    d.Raw(c.bytes_delivered);
    d.Raw(c.mac);
    d.Raw(c.phy);
    d.Raw(c.hack);
    d.Raw(c.tcp_rx);
    d.Raw(c.tcp_tx);
    d.Time(c.completion_time);
  }
  d.Raw(r.ap_mac);
  d.Raw(r.ap_phy);
  d.Raw(r.ap_hack);
  d.Raw(r.airtime);
  d.Double(r.aggregate_goodput_mbps);
  d.Double(r.steady_aggregate_goodput_mbps);
  d.Time(r.sim_end);
  d.Raw(r.crc_failures);
  d.Raw(r.tcp_timeouts);
  for (const LatencySummary& s : r.ac_latency) {
    d.Raw(s.count);
    d.Double(s.p50_ms);
    d.Double(s.p99_ms);
    d.Double(s.mean_ms);
    d.Double(s.jitter_ms);
  }
  return d.Finish();
}

void ExactCounts::Add(const ScenarioResult& r, const ScenarioConfig& c) {
  ++runs;
  sim_seconds += c.duration.ToSecondsF();
  attached_phys = static_cast<uint64_t>(c.n_clients) + 1;
  events += r.events_executed;
  for (size_t i = 0; i < kEventClassCount; ++i) {
    events_by_class[i] += r.events_by_class[i];
  }
  pending_at_end += r.final_pending_events;
  ppdus += r.airtime.ppdus;
  out_of_range += r.airtime.out_of_range;
  collisions += r.airtime.collisions;
  busy_ns += r.airtime.TotalBusyNs();
  collision_ns += r.airtime.collision_ns;
  crc_failures += r.crc_failures;
  tcp_timeouts += r.tcp_timeouts;
  goodput_mbps_sum += r.aggregate_goodput_mbps;

  auto add_node = [this](const MacStats& m, const PhyStats& p,
                         const HackStats& h) {
    overlap_losses += p.overlap_losses;
    captures += p.captures;
    mpdu_tx_attempts += m.mpdu_tx_attempts;
    first_try += m.mpdus_delivered_first_try;
    retried += m.mpdus_delivered_retried;
    response_timeouts += m.response_timeouts;
    rts_sent += m.rts_sent;
    cts_timeouts += m.cts_timeouts;
    queue_drops += m.queue_drops;
    rx_corrupted += m.rx_corrupted_events;
    hack_payloads += m.hack_payloads_sent;
    compressed_acks += h.compressed_acks_sent;
    vanilla_acks += h.vanilla_acks_sent;
    flushed_to_vanilla += h.flushed_to_vanilla;
    retained_resends += h.retained_resends;
    unique_compressed_acks += h.unique_compressed_acks;
    unique_compressed_bytes += h.unique_compressed_bytes;
    stale_context_drops += h.stale_context_drops;
  };
  add_node(r.ap_mac, r.ap_phy, r.ap_hack);
  for (const ClientResult& cr : r.clients) {
    add_node(cr.mac, cr.phy, cr.hack);
    tcp_segments += cr.tcp_rx.segments_received;
    tcp_acks += cr.tcp_rx.acks_sent;
    tcp_bytes += cr.tcp_rx.bytes_delivered;
    if (c.proto == TransportProto::kUdp) {
      udp_packets += cr.bytes_delivered / c.udp_payload_bytes;
    }
  }
}

uint64_t ExactCounts::wired_packets() const {
  return tcp_segments + tcp_acks + udp_packets;
}

double ExactCounts::tcp_retransmit_ratio() const {
  constexpr double kMss = 1460.0;  // TcpConfig default; bulk segments are full
  double fresh = static_cast<double>(tcp_bytes) / kMss;
  double segments = static_cast<double>(tcp_segments);
  return segments > fresh ? Ratio(segments - fresh, segments) : 0.0;
}

double ExactCounts::acks_per_payload() const {
  return Ratio(static_cast<double>(compressed_acks),
               static_cast<double>(hack_payloads));
}

std::vector<Metric> ExactCounts::Metrics() const {
  auto d = [](auto v) { return static_cast<double>(v); };
  const double p = d(ppdus);
  const double s = sim_seconds;
  static constexpr const char* kClassSuffix[kEventClassCount] = {
      nullptr, ".channel", ".dcf", ".nav", ".mac", ".transport"};
  std::vector<Metric> m;
  m.push_back({"sim.events_per_ppdu", Ratio(d(events), p), "events/ppdu"});
  for (size_t i = 1; i < kEventClassCount; ++i) {
    m.push_back({std::string("sim.events_per_ppdu") + kClassSuffix[i],
                 Ratio(d(events_by_class[i]), p), "events/ppdu"});
  }
  m.push_back({"sim.events_per_sim_s", Ratio(d(events), s), "events/s"});
  m.push_back({"sim.pending_at_end", Ratio(d(pending_at_end), d(runs)),
               "events"});
  m.push_back({"phy80211.ppdus_per_sim_s", Ratio(p, s), "ppdus/s"});
  m.push_back({"phy80211.rx_visits_per_ppdu",
               p == 0.0 ? 0.0 : d(attached_phys) - 1.0 - d(out_of_range) / p,
               "visits/ppdu"});
  m.push_back({"phy80211.out_of_range_per_ppdu", Ratio(d(out_of_range), p),
               "pairs/ppdu"});
  m.push_back({"phy80211.collisions_per_ppdu", Ratio(d(collisions), p),
               "ratio"});
  m.push_back({"phy80211.overlap_losses", d(overlap_losses), "count"});
  m.push_back({"phy80211.captures", d(captures), "count"});
  m.push_back({"phy80211.busy_share", Ratio(d(busy_ns), s * 1e9), "ratio"});
  m.push_back({"phy80211.collision_share", Ratio(d(collision_ns), s * 1e9),
               "ratio"});
  m.push_back({"mac80211.mpdus_per_ppdu", Ratio(d(mpdu_tx_attempts), p),
               "mpdus/ppdu"});
  m.push_back({"mac80211.first_try_ratio",
               Ratio(d(first_try), d(first_try + retried)), "ratio"});
  m.push_back({"mac80211.response_timeouts", d(response_timeouts), "count"});
  m.push_back({"mac80211.rts_sent", d(rts_sent), "count"});
  m.push_back({"mac80211.cts_timeouts", d(cts_timeouts), "count"});
  m.push_back({"mac80211.queue_drops", d(queue_drops), "count"});
  m.push_back({"mac80211.rx_corrupted_events", d(rx_corrupted), "count"});
  m.push_back({"hack.ride_ratio",
               Ratio(d(compressed_acks), d(compressed_acks + vanilla_acks)),
               "ratio"});
  m.push_back({"hack.flushed_to_vanilla", d(flushed_to_vanilla), "count"});
  m.push_back({"hack.retained_resends", d(retained_resends), "count"});
  // Cell-wide HackStats::CompressionRatio: a 52 B vanilla ACK against the
  // compressed bytes of the same ACK.
  m.push_back({"hack.compression_ratio",
               Ratio(d(unique_compressed_acks) * 52.0,
                     d(unique_compressed_bytes)),
               "ratio"});
  m.push_back({"rohc.acks_per_sim_s", Ratio(d(unique_compressed_acks), s),
               "acks/s"});
  m.push_back({"rohc.bytes_per_ack",
               Ratio(d(unique_compressed_bytes), d(unique_compressed_acks)),
               "B/ack"});
  m.push_back({"rohc.crc_failures", d(crc_failures), "count"});
  m.push_back({"rohc.stale_context_drops", d(stale_context_drops), "count"});
  m.push_back({"tcp.segments_per_sim_s", Ratio(d(tcp_segments), s),
               "segments/s"});
  m.push_back({"tcp.retransmit_ratio", tcp_retransmit_ratio(), "ratio"});
  m.push_back({"tcp.timeouts", d(tcp_timeouts), "count"});
  m.push_back({"tcp.acks_per_segment", Ratio(d(tcp_acks), d(tcp_segments)),
               "acks/segment"});
  m.push_back({"scenario.sim_goodput_mbps",
               Ratio(goodput_mbps_sum, d(runs)), "Mbps"});
  return m;
}

}  // namespace hackbench
