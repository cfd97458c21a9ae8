// Radio power model (paper §4).
//
// The paper adopts the Span/Feeney–Nillsson measurements of a Cabletron
// Roamabout 802.11 DS card at 2 Mbps: transmit 1400 mW, receive 1000 mW,
// idle 830 mW, sleep 130 mW. Every host additionally pays 33 mW for its
// GPS receiver (all three protocols). The RAS pager's consumption is
// explicitly ignored by the paper and is therefore zero here.
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace ecgrid::energy {

/// Power-relevant radio state. `Off` models a dead host (battery empty)
/// and draws nothing.
enum class PowerState : std::uint8_t {
  kTx,
  kRx,
  kIdle,
  kSleep,
  kOff,
};

inline const char* toString(PowerState s) {
  switch (s) {
    case PowerState::kTx:
      return "tx";
    case PowerState::kRx:
      return "rx";
    case PowerState::kIdle:
      return "idle";
    case PowerState::kSleep:
      return "sleep";
    case PowerState::kOff:
      return "off";
  }
  return "?";
}

// Paper §4 power table (watts).
inline constexpr double kTxW = 1.400;
inline constexpr double kRxW = 1.000;
inline constexpr double kIdleW = 0.830;
inline constexpr double kSleepW = 0.130;
inline constexpr double kGpsW = 0.033;

/// Radio draw for a state, excluding GPS.
inline double radioPowerW(PowerState state) {
  switch (state) {
    case PowerState::kTx:
      return kTxW;
    case PowerState::kRx:
      return kRxW;
    case PowerState::kIdle:
      return kIdleW;
    case PowerState::kSleep:
      return kSleepW;
    case PowerState::kOff:
      return 0.0;
  }
  ECGRID_CHECK(false, "unreachable power state");
}

/// Total host draw: radio + GPS. A dead host draws nothing.
inline double totalPowerW(PowerState state) {
  return state == PowerState::kOff ? 0.0 : radioPowerW(state) + kGpsW;
}

}  // namespace ecgrid::energy
