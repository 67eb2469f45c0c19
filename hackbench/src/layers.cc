#include "hackbench/src/layers.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "hackbench/src/stats.h"
#include "hackbench/src/workloads.h"
#include "src/node/node.h"
#include "src/node/point_to_point_link.h"
#include "src/node/wifi_net_device.h"
#include "src/phy80211/wifi_phy.h"
#include "src/rohc/rohc.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace hackbench {

using namespace hacksim;

namespace {

// Work per harness. Sized so each takes a few hundred milliseconds on one
// core of a current x86 host; fixed (not time-bounded) so the spans of two
// commits cover the same calls.
constexpr uint64_t kSimEvents = 2'000'000;
constexpr uint64_t kPhyPpdus = 20'000;
constexpr uint64_t kMacMpdus = 20'000;
constexpr uint64_t kHackAcks = 200'000;
constexpr uint64_t kRohcAcks = 300'000;
constexpr uint64_t kTcpSegments = 100'000;
constexpr uint64_t kNodePackets = 300'000;

const Ipv4Address kServerIp = Ipv4Address::FromOctets(10, 0, 0, 1);
const Ipv4Address kApIp = Ipv4Address::FromOctets(10, 0, 1, 1);

Ipv4Address ClientIp(int i) {
  return Ipv4Address::FromOctets(10, 0, 2, static_cast<uint8_t>(i + 1));
}

WifiMode DataMode() { return ModeForRate(Modes80211n(), 150.0); }

// A client's pure TCP ACK toward the server, as TcpReceiver shapes it.
Packet MakeAck(int client, uint32_t ack) {
  TcpHeader tcp;
  tcp.src_port = static_cast<uint16_t>(6000 + client);
  tcp.dst_port = static_cast<uint16_t>(5000 + client);
  tcp.seq = 1;
  tcp.ack = ack;
  tcp.flag_ack = true;
  tcp.window = 32768;
  tcp.timestamps = TcpTimestamps{100, 200};
  return Packet::MakeTcp(ClientIp(client), kServerIp, tcp, 0);
}

// A full-size data packet in the workload's direction.
Packet MakeData(const ScenarioConfig& c, int client, uint32_t seq) {
  if (c.proto == TransportProto::kUdp) {
    return Packet::MakeUdp(ClientIp(client), kServerIp,
                           static_cast<uint16_t>(6000 + client),
                           static_cast<uint16_t>(5000 + client),
                           c.udp_payload_bytes);
  }
  TcpHeader tcp;
  tcp.src_port = static_cast<uint16_t>(5000 + client);
  tcp.dst_port = static_cast<uint16_t>(6000 + client);
  tcp.seq = seq;
  tcp.flag_ack = true;
  tcp.window = 1000;
  tcp.timestamps = TcpTimestamps{10, 20};
  return Packet::MakeTcp(kServerIp, ClientIp(client), tcp, c.tcp.mss);
}

double PerCall(int64_t ns, uint64_t calls) {
  return Ratio(static_cast<double>(ns), static_cast<double>(calls));
}

// --- sim --------------------------------------------------------------------
// A population of live timers, two per station: each firing re-arms itself,
// and every fourth firing also cancels and re-arms another timer (the
// DCF/NAV re-arm pattern). Nine delays in ten are near-future edges (slots,
// SIFS, propagation), one in ten a transport-scale timer. Delays and cancel
// targets come from tables drawn before timing, so the spans hold scheduler
// work and the callbacks' bookkeeping only.
struct TimerPool {
  Scheduler* sched;
  std::vector<EventId> ids;
  std::vector<int64_t> delays_ns;  // power-of-two length
  std::vector<uint32_t> victims;   // same length
  uint64_t fired = 0;

  void Arm(size_t i) {
    int64_t ns = delays_ns[(fired + i) & (delays_ns.size() - 1)];
    ids[i] = sched->ScheduleAt(sched->Now() + SimTime::Nanos(ns),
                               [this, i]() { Fire(i); });
  }
  void Fire(size_t i) {
    ++fired;
    Arm(i);
    if (fired % 4 == 0) {
      size_t j = victims[fired & (victims.size() - 1)];
      sched->Cancel(ids[j]);
      Arm(j);
    }
  }
};

double MeasureSim(const LayerShape& shape, SpanRecorder& rec,
                  uint32_t parent) {
  ScopedSpan layer(rec, "sim", parent);
  Scheduler sched;
  TimerPool pool{&sched, {}, {}, {}, 0};
  pool.ids.resize(2 * (static_cast<size_t>(shape.config.n_clients) + 1));
  Random rng(shape.seed);
  for (size_t k = 0; k < 4096; ++k) {
    pool.delays_ns.push_back(
        rng.NextBounded(10) != 0
            ? 1'000 + static_cast<int64_t>(rng.NextBounded(49'000))
            : 1'000'000 + static_cast<int64_t>(rng.NextBounded(99'000'000)));
    pool.victims.push_back(
        static_cast<uint32_t>(rng.NextBounded(pool.ids.size())));
  }
  for (size_t i = 0; i < pool.ids.size(); ++i) {
    pool.Arm(i);
  }
  while (pool.fired < kSimEvents) {
    ScopedSpan batch(rec, "sim.run_until", layer.id());
    sched.RunUntil(sched.Now() + SimTime::Millis(1));
  }
  return PerCall(rec.ChildTotalNs(layer.id(), "sim.run_until"), pool.fired);
}

// --- phy80211 ---------------------------------------------------------------
class CountingListener final : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    ++rx_callbacks;
  }
  void OnRxCorrupted() override { ++rx_callbacks; }
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}

  uint64_t rx_callbacks = 0;
};

struct PhyResult {
  double ns_per_ppdu = 0.0;
  double events_per_ppdu = 0.0;
  double rx_callbacks_per_ppdu = 0.0;
  double expected_visits_per_ppdu = 0.0;
  bool visits_match = false;  // callbacks == receivers - out-of-range pairs
};

// `clients` stations at the workload's positions plus the AP at the origin.
// Downlink workloads: the AP sends one data PPDU at a time. Uplink: one
// client of each cluster (consecutive indices) sends at the same instant,
// so receivers see overlap, SINR and capture.
PhyResult MeasurePhy(const LayerShape& shape, SpanRecorder& rec,
                     uint32_t parent) {
  ScopedSpan layer(rec, "phy80211", parent);
  const ScenarioConfig& cfg = shape.config;
  const int clients = cfg.n_clients;
  std::vector<Position> positions = ClientPositions(cfg);

  Scheduler sched;
  WirelessChannel channel(&sched);
  Random rng(shape.seed);
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<CountingListener>> listeners;
  for (int i = 0; i <= clients; ++i) {
    phys.push_back(std::make_unique<WifiPhy>(&sched, rng.Fork()));
    listeners.push_back(std::make_unique<CountingListener>());
    phys.back()->set_listener(listeners.back().get());
    phys.back()->set_position(i == 0 ? Position{0.0, 0.0}
                                     : positions[static_cast<size_t>(i - 1)]);
    phys.back()->AttachTo(&channel);
  }
  if (cfg.propagation.has_value()) {
    channel.set_propagation(
        std::make_unique<LogDistancePropagation>(*cfg.propagation));
  }

  auto make_ppdu = [&](int from, int to, uint16_t seq) {
    Ppdu p;
    p.mode = DataMode();
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.ta = MacAddress::ForStation(static_cast<uint32_t>(from));
    f.ra = MacAddress::ForStation(static_cast<uint32_t>(to));
    f.seq = seq;
    f.packet = MakeData(cfg, std::max(0, std::max(from, to) - 1), seq);
    p.mpdus.push_back(std::move(f));
    return p;
  };

  const bool uplink = cfg.upload && clients >= 2;
  struct Step {
    int sender[2];
    Ppdu ppdu[2];
    int count;
  };
  std::vector<Step> steps(64);
  uint64_t sent = 0;
  uint64_t events0 = sched.events_executed();
  uint16_t seq = 0;
  int next_client = 1;
  while (sent < kPhyPpdus) {
    // PPDUs are built before the span opens: only Send and the drain count.
    for (Step& st : steps) {
      ++seq;
      if (uplink) {
        int a = next_client;
        int b = a % clients + 1;
        next_client = b % clients + 1;
        st = Step{{a, b}, {make_ppdu(a, 0, seq), make_ppdu(b, 0, seq)}, 2};
      } else {
        int to = next_client;
        next_client = to % clients + 1;
        st = Step{{0, 0}, {make_ppdu(0, to, seq), Ppdu{}}, 1};
      }
    }
    ScopedSpan batch(rec, "phy80211.send_drain", layer.id());
    for (Step& st : steps) {
      for (int k = 0; k < st.count; ++k) {
        phys[static_cast<size_t>(st.sender[k])]->Send(std::move(st.ppdu[k]));
      }
      sent += static_cast<uint64_t>(st.count);
      sched.Run();
    }
  }
  uint64_t callbacks = 0;
  for (const auto& l : listeners) {
    callbacks += l->rx_callbacks;
  }
  const ChannelAirtime& air = channel.airtime();
  double ppdus = static_cast<double>(air.ppdus);
  PhyResult r;
  r.ns_per_ppdu =
      PerCall(rec.ChildTotalNs(layer.id(), "phy80211.send_drain"), air.ppdus);
  r.events_per_ppdu =
      Ratio(static_cast<double>(sched.events_executed() - events0), ppdus);
  r.rx_callbacks_per_ppdu = Ratio(static_cast<double>(callbacks), ppdus);
  r.expected_visits_per_ppdu =
      static_cast<double>(clients) -
      Ratio(static_cast<double>(air.out_of_range), ppdus);
  r.visits_match = callbacks + air.out_of_range ==
                   static_cast<uint64_t>(clients) * air.ppdus;
  return r;
}

// --- mac80211 ---------------------------------------------------------------
// The workload's cell of WifiNetDevices at its positions, with its RTS
// threshold; one AP-client pair carries bursts of the workload's MPDUs per
// PPDU in the workload's direction while every other station overhears, so
// the time includes each overhearer's MAC work per PPDU. Drained between
// bursts.
void MeasureMac(const LayerShape& shape, SpanRecorder& rec, uint32_t parent,
                LayerTimes& out) {
  ScopedSpan layer(rec, "mac80211", parent);
  const ScenarioConfig& cfg = shape.config;
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiMacConfig mac_cfg;
  mac_cfg.standard = WifiStandard::k80211n;
  mac_cfg.data_mode = DataMode();
  mac_cfg.enable_ampdu = true;
  mac_cfg.rts_threshold = cfg.rts_threshold;
  Random rng(shape.seed);
  const MacAddress ap_addr = MacAddress::ForStation(0);
  const MacAddress client_addr = MacAddress::ForStation(1);
  WifiNetDevice ap(&sched, &channel, ap_addr, mac_cfg, rng.Fork());
  ap.phy().set_position(Position{0.0, 0.0});
  std::vector<Position> positions = ClientPositions(cfg);
  std::vector<std::unique_ptr<WifiNetDevice>> clients;
  for (size_t i = 0; i < positions.size(); ++i) {
    MacAddress addr = MacAddress::ForStation(static_cast<uint32_t>(i + 1));
    clients.push_back(std::make_unique<WifiNetDevice>(&sched, &channel, addr,
                                                      mac_cfg, rng.Fork()));
    clients.back()->phy().set_position(positions[i]);
    ap.mac().Associate(addr);
    clients.back()->mac().Associate(ap_addr);
  }
  if (cfg.propagation.has_value()) {
    channel.set_propagation(
        std::make_unique<LogDistancePropagation>(*cfg.propagation));
  }
  WifiNetDevice& client = *clients.front();
  uint64_t delivered = 0;
  ap.on_receive = [&delivered](Packet, MacAddress) { ++delivered; };
  client.on_receive = [&delivered](Packet, MacAddress) { ++delivered; };

  const size_t per_burst =
      static_cast<size_t>(std::max(1L, std::lround(shape.mpdus_per_ppdu)));
  uint64_t sent = 0;
  uint64_t events0 = sched.events_executed();
  uint32_t seq = 1;
  std::vector<Packet> burst;
  while (sent < kMacMpdus) {
    burst.clear();
    for (size_t k = 0; k < per_burst; ++k, seq += cfg.tcp.mss) {
      burst.push_back(MakeData(cfg, 0, seq));
    }
    ScopedSpan batch(rec, "mac80211.send_drain", layer.id());
    for (Packet& p : burst) {
      if (cfg.upload) {
        client.Send(std::move(p), ap_addr);
      } else {
        ap.Send(std::move(p), client_addr);
      }
    }
    sent += burst.size();
    sched.RunUntil(sched.Now() + SimTime::Millis(20));
  }
  if (delivered != sent) {
    out.errors.push_back("mac80211 pair delivered " +
                         std::to_string(delivered) + " of " +
                         std::to_string(sent) + " packets");
  }
  double mpdus = static_cast<double>(delivered);
  out.mac_ns_per_mpdu = PerCall(
      rec.ChildTotalNs(layer.id(), "mac80211.send_drain"), delivered);
  out.mac_ppdus_per_mpdu =
      Ratio(static_cast<double>(channel.airtime().ppdus), mpdus);
  out.mac_events_per_mpdu =
      Ratio(static_cast<double>(sched.events_executed() - events0), mpdus);
}

// --- hack -------------------------------------------------------------------
// One AP agent and one client agent per flow. Each flow's context is set up
// the way a run sets it up (one vanilla ACK over the air), the client's
// MORE DATA latch is set, and then each round stages the workload's ACKs
// per LL ACK on every client and times BuildAckPayload at the client plus
// OnAckPayload at the AP.
void MeasureHack(const LayerShape& shape, SpanRecorder& rec, uint32_t parent,
                 LayerTimes& out) {
  ScopedSpan layer(rec, "hack", parent);
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiMacConfig mac_cfg;
  mac_cfg.standard = WifiStandard::k80211n;
  mac_cfg.data_mode = DataMode();
  HackAgentConfig hack_cfg;
  hack_cfg.variant = HackVariant::kMoreData;
  mac_cfg.max_hack_payload_bytes = hack_cfg.max_payload_bytes;
  Random rng(shape.seed);
  const MacAddress ap_addr = MacAddress::ForStation(0);
  WifiNetDevice ap(&sched, &channel, ap_addr, mac_cfg, rng.Fork());
  ap.phy().set_position(Position{0.0, 0.0});
  ap.EnableHack(hack_cfg);
  uint64_t recovered = 0;
  ap.on_receive = [&recovered](Packet, MacAddress) { ++recovered; };

  const int flows = std::max(1, shape.flows);
  std::vector<std::unique_ptr<WifiNetDevice>> clients;
  std::vector<uint32_t> next_ack(static_cast<size_t>(flows), 1000);
  for (int i = 0; i < flows; ++i) {
    MacAddress addr = MacAddress::ForStation(static_cast<uint32_t>(i + 1));
    clients.push_back(std::make_unique<WifiNetDevice>(&sched, &channel, addr,
                                                      mac_cfg, rng.Fork()));
    clients.back()->phy().set_position(Position{5.0, 0.0});
    clients.back()->EnableHack(hack_cfg);
    ap.mac().Associate(addr);
    clients.back()->mac().Associate(ap_addr);
  }
  for (int i = 0; i < flows; ++i) {
    clients[static_cast<size_t>(i)]->Send(MakeAck(i, next_ack[i]), ap_addr);
    sched.RunUntil(sched.Now() + SimTime::Millis(5));
  }
  uint64_t established = recovered;
  recovered = 0;
  if (established != static_cast<uint64_t>(flows)) {
    out.errors.push_back("hack harness established " +
                         std::to_string(established) + " of " +
                         std::to_string(flows) + " contexts");
  }

  const int per_payload = std::clamp(
      static_cast<int>(std::lround(shape.acks_per_payload)), 1, 20);
  uint64_t carried = 0;
  while (carried < kHackAcks) {
    for (int i = 0; i < flows; ++i) {
      HackAgent& agent = *clients[static_cast<size_t>(i)]->hack();
      agent.OnDataPpdu(ap_addr, /*aggregated=*/true, /*has_new_mpdu=*/true,
                       /*more_data=*/true, /*sync=*/false);
      for (int k = 0; k < per_payload; ++k) {
        next_ack[static_cast<size_t>(i)] += 2920;
        agent.OfferOutgoingPacket(MakeAck(i, next_ack[static_cast<size_t>(i)]),
                                  ap_addr);
      }
    }
    sched.RunUntil(sched.Now() + hack_cfg.staging_latency +
                   SimTime::Micros(1));
    ScopedSpan batch(rec, "hack.build_and_parse", layer.id());
    for (int i = 0; i < flows; ++i) {
      MacAddress addr = MacAddress::ForStation(static_cast<uint32_t>(i + 1));
      std::vector<uint8_t> payload =
          clients[static_cast<size_t>(i)]->hack()->BuildAckPayload(ap_addr);
      ap.hack()->OnAckPayload(addr, payload);
    }
    carried += static_cast<uint64_t>(per_payload) *
               static_cast<uint64_t>(flows);
  }
  if (recovered != carried || ap.hack()->stats().crc_failures_at_ap != 0) {
    out.errors.push_back("hack harness recovered " +
                         std::to_string(recovered) + " of " +
                         std::to_string(carried) + " ACKs");
  }
  out.hack_ns_per_ack = PerCall(
      rec.ChildTotalNs(layer.id(), "hack.build_and_parse"), carried);
}

// --- rohc -------------------------------------------------------------------
// One compressor/decompressor pair per flow, as in a cell (each client
// compresses its own flow; the AP keeps one decompressor per client).
void MeasureRohc(const LayerShape& shape, SpanRecorder& rec, uint32_t parent,
                 LayerTimes& out) {
  ScopedSpan layer(rec, "rohc", parent);
  const int flows = std::max(1, shape.flows);
  std::vector<RohcCompressor> comp(static_cast<size_t>(flows));
  std::vector<RohcDecompressor> decomp(static_cast<size_t>(flows));
  std::vector<uint32_t> next_ack(static_cast<size_t>(flows), 1000);
  for (int i = 0; i < flows; ++i) {
    decomp[static_cast<size_t>(i)].NoteVanillaAck(MakeAck(i, 1000));
  }
  constexpr int kBatch = 32;
  uint64_t done = 0;
  uint64_t bad = 0;
  std::vector<Packet> acks;
  std::vector<RohcCompressor::Result> compressed(kBatch);
  std::vector<CompressedAckRecord> records;
  while (done < kRohcAcks) {
    for (int i = 0; i < flows; ++i) {
      size_t f = static_cast<size_t>(i);
      acks.clear();
      for (int k = 0; k < kBatch; ++k) {
        next_ack[f] += 2920;
        acks.push_back(MakeAck(i, next_ack[f]));
      }
      {
        ScopedSpan span(rec, "rohc.compress", layer.id());
        for (int k = 0; k < kBatch; ++k) {
          compressed[static_cast<size_t>(k)] = comp[f].Compress(acks[k]);
        }
      }
      records.clear();
      for (const RohcCompressor::Result& r : compressed) {
        ByteReader reader(r.bytes);
        std::optional<CompressedAckRecord> rec_opt =
            CompressedAckRecord::Deserialize(reader);
        if (rec_opt.has_value()) {
          records.push_back(std::move(*rec_opt));
        } else {
          ++bad;
        }
      }
      {
        ScopedSpan span(rec, "rohc.decompress", layer.id());
        for (const CompressedAckRecord& r : records) {
          bad += decomp[f].Decompress(r).status ==
                         RohcDecompressor::Status::kOk
                     ? 0
                     : 1;
        }
      }
      done += kBatch;
    }
  }
  if (bad != 0) {
    out.errors.push_back("rohc harness: " + std::to_string(bad) +
                         " records failed to decompress");
  }
  out.rohc_ns_per_compress =
      PerCall(rec.ChildTotalNs(layer.id(), "rohc.compress"), done);
  out.rohc_ns_per_decompress =
      PerCall(rec.ChildTotalNs(layer.id(), "rohc.decompress"), done);
}

// --- tcp --------------------------------------------------------------------
// One TcpSender/TcpReceiver pair per flow, back to back over one scheduler
// through the cell's two queues: the wired link's shared FIFO (drop-tail at
// its packet limit) and the AP's per-client queues (drop-tail at
// ap_queue_per_client), served round-robin at the workload's measured
// goodput in bursts of the workload's MPDUs per PPDU. ACKs return in 1 ms. All flows start at t = 0 and run for the
// scenario's length, episode after episode, so slow-start overshoot into
// those queues and the SACK recovery after it cost what they cost in the
// workload.
class CellPath {
 public:
  CellPath(Scheduler* s, const LayerShape& shape)
      : sched_(s),
        wired_bits_per_ns_(shape.config.wired_rate_bps * 1e-9),
        wired_delay_(shape.config.wired_delay),
        wired_limit_(PointToPointLink::Config{}.queue_limit_packets),
        cell_bits_per_ns_(std::max(shape.cell_goodput_bps, 1e6) * 1e-9),
        ap_limit_(shape.config.ap_queue_per_client),
        burst_(static_cast<size_t>(
            std::max(1L, std::lround(shape.mpdus_per_ppdu)))) {
    const int flows = std::max(1, shape.flows);
    ap_queues_.resize(static_cast<size_t>(flows));
    for (int i = 0; i < flows; ++i) {
      FiveTuple flow{kServerIp, ClientIp(i), static_cast<uint16_t>(5000 + i),
                     static_cast<uint16_t>(6000 + i), kIpProtoTcp};
      size_t f = static_cast<size_t>(i);
      senders_.push_back(std::make_unique<TcpSender>(
          s, shape.config.tcp, flow,
          [this, f](Packet p) { FromSender(f, std::move(p)); }, 0));
      receivers_.push_back(std::make_unique<TcpReceiver>(
          s, shape.config.tcp, flow,
          [this, f](Packet p) { FromReceiver(f, std::move(p)); }));
    }
  }
  CellPath(const CellPath&) = delete;
  CellPath& operator=(const CellPath&) = delete;

  void Start() {
    for (auto& tx : senders_) {
      sched_->ScheduleAt(SimTime(), [t = tx.get()]() { t->Start(); });
    }
  }
  uint64_t segments_received() const {
    uint64_t n = 0;
    for (const auto& rx : receivers_) {
      n += rx->stats().segments_received;
    }
    return n;
  }

 private:
  static SimTime TxTime(const Packet& p, double bits_per_ns) {
    return SimTime::Nanos(std::llround(
        static_cast<double>(p.SizeBytes() * 8) / bits_per_ns));
  }

  void FromSender(size_t f, Packet p) {
    SimTime now = sched_->Now();
    while (!wired_departures_.empty() && wired_departures_.front() <= now) {
      wired_departures_.pop_front();
    }
    if (wired_departures_.size() >= wired_limit_) {
      return;  // wired queue overflow
    }
    wired_last_ = std::max(now, wired_last_) + TxTime(p, wired_bits_per_ns_);
    wired_departures_.push_back(wired_last_);
    sched_->ScheduleAt(wired_last_ + wired_delay_,
                       [this, f, p = std::move(p)]() mutable {
                         ToAp(f, std::move(p));
                       });
  }

  void ToAp(size_t f, Packet p) {
    if (ap_queues_[f].size() >= ap_limit_) {
      return;  // AP per-client queue overflow
    }
    ap_queues_[f].push_back(std::move(p));
    if (!ap_busy_) {
      ServeNext();
    }
  }

  void ServeNext() {
    for (size_t k = 0; k < ap_queues_.size(); ++k) {
      size_t f = (next_ + k) % ap_queues_.size();
      if (ap_queues_[f].empty()) {
        continue;
      }
      next_ = f + 1;
      auto burst = std::make_shared<std::vector<Packet>>();
      SimTime airtime;
      while (!ap_queues_[f].empty() && burst->size() < burst_) {
        airtime = airtime + TxTime(ap_queues_[f].front(), cell_bits_per_ns_);
        burst->push_back(std::move(ap_queues_[f].front()));
        ap_queues_[f].pop_front();
      }
      ap_busy_ = true;
      sched_->ScheduleAt(sched_->Now() + airtime, [this, f, burst]() {
        for (const Packet& p : *burst) {
          receivers_[f]->OnPacket(p);
        }
        ServeNext();
      });
      return;
    }
    ap_busy_ = false;
  }

  void FromReceiver(size_t f, Packet p) {
    sched_->ScheduleIn(SimTime::Millis(1), [this, f, p = std::move(p)]() {
      senders_[f]->OnPacket(p);
    });
  }

  Scheduler* sched_;
  double wired_bits_per_ns_;
  SimTime wired_delay_;
  size_t wired_limit_;
  std::deque<SimTime> wired_departures_;
  SimTime wired_last_;
  double cell_bits_per_ns_;
  size_t ap_limit_;
  size_t burst_;
  std::vector<std::deque<Packet>> ap_queues_;
  bool ap_busy_ = false;
  size_t next_ = 0;
  std::vector<std::unique_ptr<TcpSender>> senders_;
  std::vector<std::unique_ptr<TcpReceiver>> receivers_;
};

void MeasureTcp(const LayerShape& shape, SpanRecorder& rec, uint32_t parent,
                LayerTimes& out) {
  ScopedSpan layer(rec, "tcp", parent);
  const SimTime episode = shape.config.duration;
  uint64_t segments = 0;
  uint64_t events = 0;
  while (segments < kTcpSegments) {
    Scheduler sched;
    CellPath path(&sched, shape);
    path.Start();
    while (sched.Now() < episode) {
      ScopedSpan batch(rec, "tcp.run_until", layer.id());
      sched.RunUntil(std::min(episode, sched.Now() + SimTime::Millis(10)));
    }
    segments += path.segments_received();
    events += sched.events_executed();
  }
  out.tcp_ns_per_segment =
      PerCall(rec.ChildTotalNs(layer.id(), "tcp.run_until"), segments);
  out.tcp_events_per_segment = Ratio(static_cast<double>(events),
                                     static_cast<double>(segments));
}

// --- node -------------------------------------------------------------------
// The wired hop: server node and AP node over the 500 Mbps / 1 ms link, in
// the workload's data direction, one handler per flow at the far end.
void MeasureNode(const LayerShape& shape, SpanRecorder& rec, uint32_t parent,
                 LayerTimes& out) {
  ScopedSpan layer(rec, "node", parent);
  const ScenarioConfig& cfg = shape.config;
  Scheduler sched;
  PointToPointLink::Config link_cfg;
  link_cfg.rate_bps = cfg.wired_rate_bps;
  link_cfg.delay = cfg.wired_delay;
  PointToPointLink link(&sched, link_cfg);
  Node server(kServerIp);
  Node ap(kApIp);
  server.AttachP2p(&link, 0);
  ap.AttachP2p(&link, 1);
  server.SetDefaultRoute(Node::Egress::kP2p, MacAddress());
  ap.SetDefaultRoute(Node::Egress::kP2p, MacAddress());
  const int flows = std::max(1, shape.flows);
  uint64_t delivered = 0;
  Node& receiver = cfg.upload ? server : ap;
  Node& sender = cfg.upload ? ap : server;
  const Ipv4Address dst = cfg.upload ? kServerIp : kApIp;
  for (int i = 0; i < flows; ++i) {
    receiver.RegisterHandler(static_cast<uint16_t>(5000 + i),
                             [&delivered](const Packet&) { ++delivered; });
  }
  uint64_t sent = 0;
  uint64_t events0 = sched.events_executed();
  std::vector<Packet> burst;
  while (sent < kNodePackets) {
    burst.clear();
    for (int k = 0; k < 64; ++k) {
      int f = static_cast<int>((sent + static_cast<uint64_t>(k)) %
                               static_cast<uint64_t>(flows));
      burst.push_back(Packet::MakeUdp(sender.address(), dst,
                                      static_cast<uint16_t>(6000 + f),
                                      static_cast<uint16_t>(5000 + f),
                                      cfg.udp_payload_bytes));
    }
    ScopedSpan batch(rec, "node.send_drain", layer.id());
    for (Packet& p : burst) {
      sender.Send(std::move(p));
    }
    sent += burst.size();
    sched.Run();
  }
  if (delivered != sent) {
    out.errors.push_back("node harness delivered " +
                         std::to_string(delivered) + " of " +
                         std::to_string(sent) + " packets");
  }
  out.node_ns_per_packet =
      PerCall(rec.ChildTotalNs(layer.id(), "node.send_drain"), delivered);
  out.node_events_per_packet =
      Ratio(static_cast<double>(sched.events_executed() - events0),
            static_cast<double>(delivered));
}

double NonNegative(double v) { return std::max(0.0, v); }

}  // namespace

double LayerTimes::phy_self_ns_per_ppdu() const {
  return NonNegative(phy_ns_per_ppdu - phy_events_per_ppdu * sim_ns_per_event);
}

double LayerTimes::mac_self_ns_per_mpdu() const {
  return NonNegative(mac_ns_per_mpdu -
                     mac_ppdus_per_mpdu * phy_self_ns_per_ppdu() -
                     mac_events_per_mpdu * sim_ns_per_event);
}

double LayerTimes::hack_self_ns_per_ack() const {
  return NonNegative(hack_ns_per_ack - rohc_ns_per_decompress);
}

double LayerTimes::tcp_self_ns_per_segment() const {
  return NonNegative(tcp_ns_per_segment -
                     tcp_events_per_segment * sim_ns_per_event);
}

double LayerTimes::node_self_ns_per_packet() const {
  return NonNegative(node_ns_per_packet -
                     node_events_per_packet * sim_ns_per_event);
}

LayerTimes MeasureLayers(const LayerShape& shape, SpanRecorder& rec,
                         uint32_t root) {
  LayerTimes t;
  t.sim_ns_per_event = MeasureSim(shape, rec, root);
  PhyResult phy = MeasurePhy(shape, rec, root);
  t.phy_ns_per_ppdu = phy.ns_per_ppdu;
  t.phy_events_per_ppdu = phy.events_per_ppdu;
  t.phy_rx_callbacks_per_ppdu = phy.rx_callbacks_per_ppdu;
  t.phy_expected_visits_per_ppdu = phy.expected_visits_per_ppdu;
  if (!phy.visits_match) {
    t.errors.push_back("phy80211 listeners saw " +
                       std::to_string(phy.rx_callbacks_per_ppdu) +
                       " receptions per PPDU; the channel predicts " +
                       std::to_string(phy.expected_visits_per_ppdu));
  }
  MeasureMac(shape, rec, root, t);
  MeasureHack(shape, rec, root, t);
  MeasureRohc(shape, rec, root, t);
  MeasureTcp(shape, rec, root, t);
  MeasureNode(shape, rec, root, t);
  return t;
}

}  // namespace hackbench
