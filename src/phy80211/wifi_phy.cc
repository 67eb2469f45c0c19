#include "src/phy80211/wifi_phy.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace hacksim {

namespace {
// Speed of light, metres per nanosecond.
constexpr double kMetersPerNs = 0.299792458;

// Propagation delay, clamped to >= 1 ns so same-slot transmit decisions at
// two stations are both made against pre-transmission channel state (the
// slotted collision model).
SimTime PropagationDelay(double distance_m) {
  auto prop_ns = static_cast<int64_t>(distance_m / kMetersPerNs);
  return SimTime::Nanos(std::max<int64_t>(prop_ns, 1));
}
}  // namespace

double DistanceMeters(Position a, Position b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

WifiPhy::WifiPhy(Scheduler* scheduler, Random rng)
    : scheduler_(scheduler), rng_(rng) {}

void WifiPhy::AttachTo(WirelessChannel* channel) {
  CHECK(channel_ == nullptr);
  channel->Attach(this);
}

void WifiPhy::set_position(Position p) {
  position_ = p;
  has_position_ = true;
  if (channel_ != nullptr) {
    channel_->InvalidateGeometry();
  }
}

bool WifiPhy::Send(Ppdu ppdu) {
  CHECK(channel_ != nullptr);
  if (!radio_on_ || transmitting_) {
    ++stats_.tx_dropped_busy;
    return false;
  }
  transmitting_ = true;
  // Half duplex: anything currently arriving is lost.
  for (auto& [id, arrival] : arrivals_) {
    arrival.corrupted = true;
  }
  UpdateCca();
  channel_->Transmit(this, std::move(ppdu));
  return true;
}

void WifiPhy::SetRadioOn(bool on) {
  if (on == radio_on_) {
    return;
  }
  radio_on_ = on;
  if (!on) {
    // Power-down: every in-flight arrival dies with the radio. Their end
    // events are already scheduled; OnArrivalEnd swallows them through the
    // tolerance counter instead of a per-event Cancel.
    dropped_arrival_ends_ += arrivals_.size();
    arrivals_.clear();
    if (transmitting_) {
      ++aborted_tx_ends_;
      transmitting_ = false;
    }
    UpdateCca();
  }
}

void WifiPhy::OnOwnTxEnd(const Ppdu& ppdu) {
  if (!transmitting_) {
    // The transmission was aborted by a radio power-down; the MAC behind
    // this PHY was reset with it, so no listener callback.
    CHECK_GT(aborted_tx_ends_, 0u);
    --aborted_tx_ends_;
    return;
  }
  transmitting_ = false;
  UpdateCca();
  if (listener_ != nullptr) {
    listener_->OnTxEnd(ppdu);
  }
}

void WifiPhy::OnArrivalStart(uint64_t arrival_id, const Ppdu& ppdu,
                             double distance_m, double rx_power_dbm) {
  if (!radio_on_) {
    // Dead receiver: ignore the frame, but remember that its already
    // scheduled end edge will knock on an empty arrivals_ list.
    ++dropped_arrival_ends_;
    return;
  }
  bool capture = channel_->propagation().limits_range();
  Arrival arrival{&ppdu, distance_m,
                  /*rx_power_mw=*/capture ? DbmToMw(rx_power_dbm) : 1.0,
                  /*interference_mw=*/0.0,
                  /*corrupted=*/false};
  if (transmitting_) {
    arrival.corrupted = true;
  }
  if (!arrivals_.empty()) {
    if (capture) {
      // SINR capture: overlap is not an automatic death sentence. Every
      // arrival accumulates the other's power as interference (energy is
      // there whether or not the other frame itself survives); the verdict
      // lands at each arrival's end.
      for (auto& [id, other] : arrivals_) {
        other.interference_mw += arrival.rx_power_mw;
        arrival.interference_mw += other.rx_power_mw;
      }
    } else {
      // Legacy fixed-loss rule: overlap corrupts both, no capture.
      arrival.corrupted = true;
      for (auto& [id, other] : arrivals_) {
        other.corrupted = true;
      }
    }
  }
  arrivals_.emplace_back(arrival_id, std::move(arrival));
  UpdateCca();
}

void WifiPhy::OnArrivalEnd(uint64_t arrival_id) {
  auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                         [arrival_id](const auto& entry) {
                           return entry.first == arrival_id;
                         });
  if (it == arrivals_.end()) {
    // An arrival cleared by a radio power-down, or one that began while
    // the radio was off: its end edge is expected exactly once.
    CHECK_GT(dropped_arrival_ends_, 0u)
        << "arrival end for an id the PHY never saw";
    --dropped_arrival_ends_;
    return;
  }
  Arrival arrival = std::move(it->second);
  arrivals_.erase(it);
  UpdateCca();
  if (listener_ == nullptr) {
    return;
  }
  if (arrival.corrupted) {
    listener_->OnRxCorrupted();
    return;
  }
  // SINR capture (range-limited propagation only): the frame survives the
  // energy that overlapped it iff its SINR clears the mode's capture
  // threshold. On the fixed-loss channel an overlapped arrival is already
  // corrupted above, so this block is never reached with interference.
  const PropagationModel& prop = channel_->propagation();
  if (prop.limits_range() && arrival.interference_mw > 0.0) {
    double sinr_db =
        MwToDbm(arrival.rx_power_mw) -
        MwToDbm(prop.noise_floor_mw() + arrival.interference_mw);
    if (sinr_db < prop.CaptureSinrDb(arrival.ppdu->mode)) {
      ++stats_.overlap_losses;
      listener_->OnRxCorrupted();
      return;
    }
    ++stats_.captures;
  }
  // Channel-noise loss per MPDU. For A-MPDUs each subframe has its own FCS
  // and fails independently; for single MPDUs there is just one draw. With
  // no loss model every MPDU survives and nothing is drawn.
  const Ppdu& ppdu = *arrival.ppdu;
  size_t n = ppdu.mpdus.size();
  mpdu_ok_.assign(n, true);
  bool any_ok = n > 0;
  if (loss_model_ != nullptr) {
    any_ok = false;
    for (size_t i = 0; i < n; ++i) {
      bool corrupt = loss_model_->ShouldCorrupt(
          ppdu.mode, ppdu.mpdus[i].SizeBytes(), arrival.distance_m, rng_);
      mpdu_ok_[i] = !corrupt;
      any_ok = any_ok || !corrupt;
    }
  }
  if (!any_ok) {
    listener_->OnRxCorrupted();
    return;
  }
  listener_->OnPpduReceived(ppdu, mpdu_ok_);
}

void WifiPhy::UpdateCca() {
  bool busy = IsCcaBusy();
  if (busy == cca_busy_reported_) {
    return;
  }
  cca_busy_reported_ = busy;
  if (listener_ == nullptr) {
    return;
  }
  if (busy) {
    listener_->OnCcaBusy();
  } else {
    listener_->OnCcaIdle();
  }
}

void WirelessChannel::Attach(WifiPhy* phy) {
  CHECK(phy->channel_ != this)
      << "PHY attached twice: every PPDU would be delivered to it twice";
  CHECK(phy->channel_ == nullptr) << "PHY already attached to another channel";
  CHECK(!propagation_->limits_range() || phy->has_position())
      << "range-limited propagation needs an explicit position on every "
         "PHY: an unpositioned node would silently co-locate with the "
         "origin (set_position before Attach, or keep the fixed-loss model)";
  phy->channel_ = this;
  phy->attach_index_ = static_cast<uint32_t>(phys_.size());
  phys_.push_back(phy);
  schedules_.emplace_back();
  InvalidateGeometry();
}

void WirelessChannel::set_propagation(std::unique_ptr<PropagationModel> model) {
  CHECK(model != nullptr);
  if (model->limits_range()) {
    for (WifiPhy* phy : phys_) {
      CHECK(phy->has_position())
          << "range-limited propagation needs an explicit position on every "
             "attached PHY: an unpositioned node would silently co-locate "
             "with the origin";
    }
  }
  propagation_ = std::move(model);
  InvalidateGeometry();
}

void WirelessChannel::Transmit(WifiPhy* sender, Ppdu ppdu) {
  ppdu.ppdu_id = next_ppdu_id_++;
  SimTime duration = ppdu.Duration();
  SimTime now = scheduler_->Now();

  // Airtime ledger.
  ++airtime_.ppdus;
  switch (ppdu.first().type) {
    case WifiFrameType::kData:
      airtime_.data_ns += duration.ns();
      break;
    case WifiFrameType::kAck:
    case WifiFrameType::kBlockAck:
      airtime_.ack_ns += duration.ns();
      break;
    case WifiFrameType::kBlockAckReq:
      airtime_.bar_ns += duration.ns();
      break;
    case WifiFrameType::kRts:
    case WifiFrameType::kCts:
    case WifiFrameType::kCfEnd:
      airtime_.rts_cts_ns += duration.ns();
      break;
  }
  if (active_transmissions_ > 0) {
    ++airtime_.collisions;
    if (active_transmissions_ == 1) {
      overlap_started_ = now;
    }
  }
  ++active_transmissions_;
  scheduler_->ScheduleAt(
      now + duration,
      [this]() {
        --active_transmissions_;
        if (active_transmissions_ == 1) {
          // Overlap period ends when concurrency drops back to one.
          airtime_.collision_ns += (scheduler_->Now() - overlap_started_).ns();
        }
      },
      EventClass::kChannel);

  // One shared copy of the payload for all receivers and the sender's
  // tx-end callback.
  PpduRef shared = std::make_shared<const Ppdu>(std::move(ppdu));
  if (mode_ == ChannelDeliveryMode::kBatched) {
    TransmitBatched(sender, shared, now, duration);
  } else {
    TransmitPerPhy(sender, shared, now, duration);
  }
  scheduler_->ScheduleAt(
      now + duration, [sender, shared]() { sender->OnOwnTxEnd(*shared); },
      EventClass::kChannel);
}

// Reference semantics: two events per attached PHY, scheduled in attach
// order, with every per-pair quantity computed afresh. The batched path
// below must stay observably identical to this.
void WirelessChannel::TransmitPerPhy(WifiPhy* sender, const PpduRef& ppdu,
                                     SimTime now, SimTime duration) {
  bool ranged = propagation_->limits_range();
  for (WifiPhy* phy : phys_) {
    if (phy == sender) {
      continue;
    }
    double distance = DistanceMeters(sender->position(), phy->position());
    double rx_dbm = ranged ? propagation_->RxPowerDbm(distance) : 0.0;
    if (ranged && !propagation_->Detectable(rx_dbm)) {
      // Below the energy-detection threshold: the receiver sees nothing at
      // all — no decode, no CCA energy. This is the hidden-terminal
      // condition, and it also means no scheduler events for the pair.
      ++airtime_.out_of_range;
      continue;
    }
    SimTime prop = PropagationDelay(distance);
    uint64_t arrival_id = next_arrival_id_++;
    scheduler_->ScheduleAt(
        now + prop,
        [phy, arrival_id, ppdu, distance, rx_dbm]() {
          phy->OnArrivalStart(arrival_id, *ppdu, distance, rx_dbm);
        },
        EventClass::kChannel);
    // The end edge owns the payload for the arrival's whole lifetime.
    scheduler_->ScheduleAt(
        now + prop + duration,
        [phy, arrival_id, ppdu]() { phy->OnArrivalEnd(arrival_id); },
        EventClass::kChannel);
  }
}

const WirelessChannel::ScheduleRef& WirelessChannel::ScheduleFor(
    const WifiPhy* sender) {
  ScheduleRef& slot = schedules_[sender->attach_index_];
  if (slot == nullptr || slot->epoch != geometry_epoch_) {
    slot = BuildSchedule(sender);
  }
  return slot;
}

// The per-pair work TransmitPerPhy does on every PPDU, done once: the same
// distance, power and pruning formulas, then a stable sort by delay over
// the attach-ordered receivers, which is the (delay, attach index) order.
WirelessChannel::ScheduleRef WirelessChannel::BuildSchedule(
    const WifiPhy* sender) const {
  auto schedule = std::make_shared<ArrivalSchedule>();
  schedule->epoch = geometry_epoch_;
  bool ranged = propagation_->limits_range();
  struct Pending {
    SimTime delay;
    ArrivalSchedule::Receiver receiver;
    double rx_dbm;
  };
  std::vector<Pending> pending;
  pending.reserve(phys_.size());
  for (WifiPhy* phy : phys_) {
    if (phy == sender) {
      continue;
    }
    double distance = DistanceMeters(sender->position(), phy->position());
    double rx_dbm = ranged ? propagation_->RxPowerDbm(distance) : 0.0;
    if (ranged && !propagation_->Detectable(rx_dbm)) {
      ++schedule->out_of_range;
      continue;
    }
    pending.push_back(Pending{PropagationDelay(distance), {phy, distance},
                              rx_dbm});
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.delay < b.delay;
                   });
  schedule->receivers.reserve(pending.size());
  if (ranged) {
    schedule->rx_power_dbm.reserve(pending.size());
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    schedule->receivers.push_back(pending[i].receiver);
    if (ranged) {
      schedule->rx_power_dbm.push_back(pending[i].rx_dbm);
    }
    if (i + 1 == pending.size() || pending[i + 1].delay != pending[i].delay) {
      schedule->groups.push_back(
          {pending[i].delay, static_cast<uint32_t>(i + 1)});
    }
  }
  return schedule;
}

void WirelessChannel::DeliverEdges(const ArrivalSchedule& schedule,
                                   const Ppdu& ppdu, uint64_t base_id,
                                   uint32_t start_group, uint32_t end_group) {
  auto begin_of = [&schedule](uint32_t g) {
    return g == 0 ? 0u : schedule.groups[g - 1].end;
  };
  auto start_edge = [&](uint32_t i) {
    const ArrivalSchedule::Receiver& r = schedule.receivers[i];
    double rx_dbm =
        schedule.rx_power_dbm.empty() ? 0.0 : schedule.rx_power_dbm[i];
    r.phy->OnArrivalStart(base_id + i, ppdu, r.distance_m, rx_dbm);
  };
  auto end_edge = [&](uint32_t i) {
    schedule.receivers[i].phy->OnArrivalEnd(base_id + i);
  };
  uint32_t s = 0, s_end = 0, e = 0, e_end = 0;
  if (start_group != kNoGroup) {
    s = begin_of(start_group);
    s_end = schedule.groups[start_group].end;
  }
  if (end_group != kNoGroup) {
    e = begin_of(end_group);
    e_end = schedule.groups[end_group].end;
  }
  // Both runs are in attach order; a shared nanosecond (a PPDU shorter
  // than the delay spread) interleaves them the way per-PHY events would
  // have popped.
  while (s < s_end && e < e_end) {
    if (schedule.receivers[s].phy->attach_index_ <
        schedule.receivers[e].phy->attach_index_) {
      start_edge(s++);
    } else {
      end_edge(e++);
    }
  }
  for (; s < s_end; ++s) {
    start_edge(s);
  }
  for (; e < e_end; ++e) {
    end_edge(e);
  }
}

// Batched delivery: one event per distinct edge nanosecond, all scheduled
// up-front at transmit time from the sender's cached schedule. Start edges
// of group g land at now + delay(g), end edges at now + delay(g) +
// duration; both sequences ascend, so one merge walk schedules every edge
// time in order. Three properties make this bit-identical to
// TransmitPerPhy:
//   1. Edge times use the same per-pair formula, so nothing moves in time.
//   2. Within an event, edges run in attach order — the order the per-PHY
//      events would have been popped (per-PHY scheduling assigns seqs in
//      attach order).
//   3. Events are scheduled now, between the airtime event and the
//      sender's tx-end event, so same-nanosecond FIFO ordering against
//      *other* PPDUs' events (and the sender's own) is unchanged.
// Arrival ids are base + position in the schedule; they are only ever
// compared for equality within one PHY.
void WirelessChannel::TransmitBatched(WifiPhy* sender, const PpduRef& ppdu,
                                      SimTime now, SimTime duration) {
  const ScheduleRef& schedule = ScheduleFor(sender);
  airtime_.out_of_range += schedule->out_of_range;
  uint64_t base_id = next_arrival_id_;
  next_arrival_id_ += schedule->receivers.size();
  auto schedule_edges = [&](SimTime at, uint32_t start_group,
                            uint32_t end_group) {
    auto deliver = [schedule, ppdu, base_id, start_group, end_group]() {
      DeliverEdges(*schedule, *ppdu, base_id, start_group, end_group);
    };
    static_assert(sizeof(deliver) <= EventFn::kInlineBytes,
                  "edge closures must fit EventFn's inline buffer");
    scheduler_->ScheduleAt(at, std::move(deliver), EventClass::kChannel);
  };
  const auto& groups = schedule->groups;
  const auto n = static_cast<uint32_t>(groups.size());
  uint32_t s = 0;
  uint32_t e = 0;
  while (e < n) {
    SimTime end_at = now + groups[e].delay + duration;
    if (s < n) {
      SimTime start_at = now + groups[s].delay;
      if (start_at < end_at) {
        schedule_edges(start_at, s++, kNoGroup);
        continue;
      }
      if (start_at == end_at) {
        schedule_edges(start_at, s++, e++);
        continue;
      }
    }
    schedule_edges(end_at, kNoGroup, e++);
  }
}

}  // namespace hacksim
