// 802.11 PHY modes and air-time computation.
//
// Two PHYs are modelled, matching the paper's two evaluation platforms:
//  * 802.11a  (OFDM, 20 MHz): rates 6..54 Mbps, 4 us symbols, 20 us preamble.
//  * 802.11n  (HT 40 MHz, 400 ns short GI, mixed-format preamble): rates
//    15..150 Mbps for one spatial stream (the paper's Figure 11 rate set) and
//    300/450/600 Mbps for 2..4 streams (Figure 1(b)'s x-axis).
//
// Control frames (ACK / Block ACK / BAR) are always sent in the legacy
// (802.11a-style) format at a basic rate from {6, 12, 24} Mbps — the highest
// basic rate not exceeding the eliciting frame's rate, per the 802.11
// control-response rules the paper cites.
#ifndef SRC_PHY80211_WIFI_MODE_H_
#define SRC_PHY80211_WIFI_MODE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "src/sim/sim_time.h"

namespace hacksim {

enum class WifiStandard {
  k80211a,
  k80211n,
};

enum class PhyFormat {
  kLegacyOfdm,  // 802.11a: 20 us preamble, 4 us symbols
  kHtMixed,     // 802.11n: 36+ us preamble, 3.6 us symbols (short GI)
};

struct WifiMode {
  PhyFormat format = PhyFormat::kLegacyOfdm;
  uint32_t rate_kbps = 6000;
  uint16_t bits_per_symbol = 24;  // N_DBPS
  uint8_t spatial_streams = 1;

  double rate_mbps() const { return rate_kbps / 1000.0; }
  std::string Name() const;

  friend bool operator==(const WifiMode&, const WifiMode&) = default;
};

// --- mode tables ------------------------------------------------------------

// 802.11a: 6, 9, 12, 18, 24, 36, 48, 54 Mbps.
std::span<const WifiMode> Modes80211a();

// 802.11n HT, 40 MHz, short GI, 1 spatial stream (MCS0-7):
// 15, 30, 45, 60, 90, 120, 135, 150 Mbps.
std::span<const WifiMode> Modes80211n();

// Extended multi-stream set used for the theoretical Figure 1(b): the 1SS
// set plus 300 (2SS), 450 (3SS), 600 (4SS) Mbps.
std::span<const WifiMode> Modes80211nExtended();

// Looks up the mode with the given rate within a table.
std::optional<WifiMode> FindModeForRate(std::span<const WifiMode> table,
                                        double rate_mbps);
// Same lookup; CHECK-fails if absent.
WifiMode ModeForRate(std::span<const WifiMode> table, double rate_mbps);

// Highest mandatory basic rate (6/12/24 Mbps legacy OFDM) not exceeding
// `data_mode`'s rate; used for ACK/BA/BAR responses.
WifiMode ControlResponseMode(const WifiMode& data_mode);

// --- timing -----------------------------------------------------------------

struct PhyTimings {
  SimTime slot;         // 9 us for both OFDM PHYs
  SimTime sifs;         // 16 us
  SimTime difs;         // DIFS (11a) or AIFS[BE] (11n): SIFS + n*slot
  uint32_t cw_min;      // 15
  uint32_t cw_max;      // 1023
  SimTime ack_timeout;  // from TX end until giving up on the response
};

// Returns the MAC timing set for a standard. For 802.11n these are the EDCA
// best-effort parameters (AIFSN=3), which give the paper's 110.5 us average
// pre-transmission idle period: AIFS 43 us + (CWmin/2) * 9 us = 110.5 us.
PhyTimings TimingsFor(WifiStandard standard);

// Air time of a PSDU of `bytes` at `mode`, including preamble, SERVICE and
// tail bits, rounded up to whole symbols.
SimTime FrameDuration(const WifiMode& mode, size_t bytes);

// Preamble-only duration for `mode` (legacy: 20 us; HT: 36 us + 4 us per
// additional spatial stream's HT-LTF).
SimTime PreambleDuration(const WifiMode& mode);

}  // namespace hacksim

#endif  // SRC_PHY80211_WIFI_MODE_H_
