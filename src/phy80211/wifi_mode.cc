#include "src/phy80211/wifi_mode.h"

#include <array>

#include "src/util/logging.h"

namespace hacksim {
namespace {

// N_DBPS for legacy OFDM = rate(Mbps) * 4 us symbol.
constexpr WifiMode LegacyMode(uint32_t kbps) {
  return WifiMode{PhyFormat::kLegacyOfdm, kbps,
                  static_cast<uint16_t>(kbps * 4 / 1000), 1};
}

// N_DBPS for HT short-GI = rate(Mbps) * 3.6 us symbol.
constexpr WifiMode HtMode(uint32_t kbps, uint8_t streams) {
  return WifiMode{PhyFormat::kHtMixed, kbps,
                  static_cast<uint16_t>(kbps * 36 / 10000), streams};
}

constexpr std::array<WifiMode, 8> kModesA = {
    LegacyMode(6000),  LegacyMode(9000),  LegacyMode(12000),
    LegacyMode(18000), LegacyMode(24000), LegacyMode(36000),
    LegacyMode(48000), LegacyMode(54000)};

constexpr std::array<WifiMode, 8> kModesN = {
    HtMode(15000, 1),  HtMode(30000, 1), HtMode(45000, 1), HtMode(60000, 1),
    HtMode(90000, 1),  HtMode(120000, 1), HtMode(135000, 1),
    HtMode(150000, 1)};

constexpr std::array<WifiMode, 11> kModesNExt = {
    HtMode(15000, 1),  HtMode(30000, 1),  HtMode(45000, 1),
    HtMode(60000, 1),  HtMode(90000, 1),  HtMode(120000, 1),
    HtMode(135000, 1), HtMode(150000, 1), HtMode(300000, 2),
    HtMode(450000, 3), HtMode(600000, 4)};

}  // namespace

std::string WifiMode::Name() const {
  std::string prefix = format == PhyFormat::kLegacyOfdm ? "ofdm" : "ht";
  return prefix + std::to_string(rate_kbps / 1000) +
         (rate_kbps % 1000 != 0 ? ".5" : "");
}

std::span<const WifiMode> Modes80211a() { return kModesA; }
std::span<const WifiMode> Modes80211n() { return kModesN; }
std::span<const WifiMode> Modes80211nExtended() { return kModesNExt; }

std::optional<WifiMode> FindModeForRate(std::span<const WifiMode> table,
                                        double rate_mbps) {
  for (const WifiMode& mode : table) {
    if (mode.rate_kbps == static_cast<uint32_t>(rate_mbps * 1000 + 0.5)) {
      return mode;
    }
  }
  return std::nullopt;
}

WifiMode ModeForRate(std::span<const WifiMode> table, double rate_mbps) {
  std::optional<WifiMode> mode = FindModeForRate(table, rate_mbps);
  if (!mode.has_value()) {
    LOG(Fatal) << "no such mode: " << rate_mbps << " Mbps";
    return table[0];
  }
  return *mode;
}

WifiMode ControlResponseMode(const WifiMode& data_mode) {
  if (data_mode.rate_kbps >= 24000) {
    return LegacyMode(24000);
  }
  if (data_mode.rate_kbps >= 12000) {
    return LegacyMode(12000);
  }
  return LegacyMode(6000);
}

PhyTimings TimingsFor(WifiStandard standard) {
  PhyTimings t;
  t.slot = SimTime::Micros(9);
  t.sifs = SimTime::Micros(16);
  t.cw_min = 15;
  t.cw_max = 1023;
  switch (standard) {
    case WifiStandard::k80211a:
      // DIFS = SIFS + 2 * slot = 34 us.
      t.difs = t.sifs + 2 * t.slot;
      break;
    case WifiStandard::k80211n:
      // EDCA AC_BE: AIFS = SIFS + AIFSN(3) * slot = 43 us. With mean backoff
      // of CWmin/2 slots this yields the paper's 110.5 us average idle.
      t.difs = t.sifs + 3 * t.slot;
      break;
  }
  // Response timeout: SIFS + slot + preamble detection margin. The MAC adds
  // the expected response duration itself.
  t.ack_timeout = t.sifs + t.slot + SimTime::Micros(25);
  return t;
}

SimTime PreambleDuration(const WifiMode& mode) {
  switch (mode.format) {
    case PhyFormat::kLegacyOfdm:
      // 16 us PLCP preamble + 4 us SIGNAL.
      return SimTime::Micros(20);
    case PhyFormat::kHtMixed:
      // L-STF 8 + L-LTF 8 + L-SIG 4 + HT-SIG 8 + HT-STF 4 + HT-LTFs (4 us
      // per spatial stream).
      return SimTime::Micros(32) + SimTime::Micros(4) * mode.spatial_streams;
  }
  return SimTime::Zero();
}

SimTime FrameDuration(const WifiMode& mode, size_t bytes) {
  // SERVICE (16 bits) + tail (6 bits) + payload.
  uint64_t bits = 16 + 6 + 8 * static_cast<uint64_t>(bytes);
  uint64_t symbols = (bits + mode.bits_per_symbol - 1) / mode.bits_per_symbol;
  SimTime symbol_time = mode.format == PhyFormat::kLegacyOfdm
                            ? SimTime::Nanos(4000)
                            : SimTime::Nanos(3600);
  return PreambleDuration(mode) + symbol_time * static_cast<int64_t>(symbols);
}

}  // namespace hacksim
