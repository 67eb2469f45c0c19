#include "src/apps/udp_app.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

UdpCbrSource::UdpCbrSource(Scheduler* scheduler, Config config,
                           FiveTuple flow, std::function<void(Packet)> send)
    : scheduler_(scheduler),
      config_(config),
      flow_(flow),
      send_(std::move(send)) {
  double bits_per_packet = config_.payload_bytes * 8.0;
  interval_ = SimTime::FromSecondsF(bits_per_packet / config_.rate_bps);
  CHECK_GT(interval_.ns(), 0);
  if (config_.burst_window > interval_) {
    // Bucket mode: the burst adapts to the interval — as many CBR ticks as
    // fit in the window, bounded by the per-refill cap. A window shorter
    // than one interval degenerates to the classic chain (burst of 1).
    uint64_t fit = static_cast<uint64_t>(config_.burst_window.ns()) /
                   static_cast<uint64_t>(interval_.ns());
    burst_packets_ = static_cast<uint32_t>(
        std::min<uint64_t>(fit, kMaxBurstPackets));
  }
  period_ = interval_ * static_cast<int>(burst_packets_);
}

void UdpCbrSource::Start() {
  if (burst_packets_ > 1) {
    next_emit_ = config_.start;
    scheduler_->ScheduleAt(config_.start,
                           [this, epoch = epoch_]() { Refill(epoch); },
                           EventClass::kTransportTimer);
    return;
  }
  scheduler_->ScheduleAt(config_.start,
                         [this, epoch = epoch_]() { EmitNext(epoch); },
                         EventClass::kTransportTimer);
}

void UdpCbrSource::Stop() {
  // The pending EmitNext/Refill carries the old epoch and dies on arrival.
  config_.stop = scheduler_->Now();
  ++epoch_;
  // Bucket mode: release the ticks accrued since the last refill — the
  // classic chain emitted them one by one before this instant. Strict <,
  // because the classic chain's tick at exactly the stop instant dies
  // (fault events are scheduled ahead of same-nanosecond chain events).
  while (burst_packets_ > 1 && next_emit_ < config_.stop) {
    EmitOne();
    next_emit_ = next_emit_ + interval_;
  }
}

void UdpCbrSource::Resume(SimTime at, SimTime stop) {
  ++epoch_;
  config_.stop = stop;
  SimTime from = std::max(at, scheduler_->Now());
  if (burst_packets_ > 1) {
    next_emit_ = from;
    scheduler_->ScheduleAt(from,
                           [this, epoch = epoch_]() { Refill(epoch); },
                           EventClass::kTransportTimer);
    return;
  }
  scheduler_->ScheduleAt(from,
                         [this, epoch = epoch_]() { EmitNext(epoch); },
                         EventClass::kTransportTimer);
}

void UdpCbrSource::EmitNext(uint64_t epoch) {
  if (epoch != epoch_ || scheduler_->Now() >= config_.stop) {
    return;
  }
  EmitOne();
  scheduler_->ScheduleIn(interval_,
                         [this, epoch]() { EmitNext(epoch); },
                         EventClass::kTransportTimer);
}

// Bucket mode: one event per window instead of one per packet. Releases
// every CBR tick accrued up to now, then re-arms one period out (clamped to
// the configured stop, so a finite stop flushes its tail exactly).
void UdpCbrSource::Refill(uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // stranded by a Stop()/Resume() since this refill was armed
  }
  SimTime now = scheduler_->Now();
  while (next_emit_ <= now && next_emit_ < config_.stop) {
    EmitOne();
    next_emit_ = next_emit_ + interval_;
  }
  if (next_emit_ >= config_.stop) {
    return;  // configured stop reached: nothing further accrues
  }
  SimTime next_refill = std::min(now + period_, config_.stop);
  scheduler_->ScheduleAt(next_refill,
                         [this, epoch]() { Refill(epoch); },
                         EventClass::kTransportTimer);
}

void UdpCbrSource::EmitOne() {
  Packet p = Packet::MakeUdp(flow_.src_ip, flow_.dst_ip, flow_.src_port,
                             flow_.dst_port, config_.payload_bytes);
  p.set_created_at(scheduler_->Now());
  send_(std::move(p));
  ++packets_sent_;
}

void UdpSink::OnPacket(const Packet& packet) {
  if (!packet.has_udp()) {
    return;
  }
  bytes_received_ += packet.payload_bytes();
  tracker_.OnBytesDelivered(scheduler_->Now(), packet.payload_bytes());
  if (latency_ != nullptr) {
    SimTime delay = scheduler_->Now() - packet.created_at();
    uint8_t ac = packet.has_ip() ? AcForTos(packet.ip().tos) : kAcBe;
    latency_->Record(ac, delay);
    if (has_last_delay_) {
      SimTime delta = delay >= last_delay_ ? delay - last_delay_
                                           : last_delay_ - delay;
      latency_->RecordJitter(ac, delta);
    }
    last_delay_ = delay;
    has_last_delay_ = true;
  }
}

}  // namespace hacksim
