// Determinism analysis: state digests for replay & tie-order checking.
//
// Every experimental claim in this reproduction rests on exact replay:
// protocols are compared on byte-identical mobility/traffic traces, and
// the fault layer promises that an inert FaultPlan leaves a run
// bit-for-bit unchanged. A StateDigest makes that promise checkable at
// runtime: it folds the observable simulation state — per-host position,
// cell, battery, radio, MAC counters, protocol role, and route tables,
// plus network-wide frame/page counters — into one FNV-1a value. Two
// runs of the same ScenarioConfig must produce identical digest traces;
// a run whose event-queue tie-break is perturbed (see
// EventQueue::perturbTieBreak) must still land on the same *final*
// digest, or some component depends on the execution order of
// same-instant events — the simulator's analogue of a data race.
//
// harness::checkDeterminism (src/harness/determinism.hpp) drives both
// comparisons over full scenarios.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace ecgrid::net {
class Network;
}

namespace ecgrid::check {

/// Incremental 64-bit FNV-1a. A tiny value type so audits and tests can
/// fold arbitrary state without pulling in a hashing library.
///
/// Every word is hashed as its eight little-endian bytes, exactly as
/// mixBytes(&v, 8) would hash them, but most words the digest folds are
/// small counters, ids and cell coordinates whose high-order bytes are
/// zero. FNV-1a's step for a zero byte is (h ^ 0) * p = h * p, so the k
/// trailing zero bytes of a word fold into one multiply by p^k: mixU64
/// runs the serial xor-multiply only over the word's significant bytes.
class Fnv1a {
 public:
  [[nodiscard]] std::uint64_t value() const { return hash_; }

  void mixBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) mixByte(bytes[i]);
  }

  void mixU64(std::uint64_t v) {
    const int significant = (std::bit_width(v) + 7) / 8;
    for (int i = 0; i < significant; ++i) {
      mixByte(static_cast<unsigned char>(v));
      v >>= 8;
    }
    hash_ *= kPrimePowers[8 - significant];
  }
  void mixI64(std::int64_t v) { mixU64(static_cast<std::uint64_t>(v)); }
  void mixBool(bool v) { mixU64(v ? 1 : 0); }

  /// Doubles are mixed by bit pattern: the digest asks "bit-identical?",
  /// not "approximately equal?".
  void mixDouble(double v) { mixU64(std::bit_cast<std::uint64_t>(v)); }

  void mixString(std::string_view s) {
    mixU64(s.size());
    mixBytes(s.data(), s.size());
  }

 private:
  // mixU64 takes a word's bytes low-order first, which is their order in
  // memory only on little-endian targets.
  static_assert(std::endian::native == std::endian::little,
                "Fnv1a::mixU64 hashes words in little-endian byte order");

  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  /// kPrimePowers[k] = kPrime^k (mod 2^64), for folding k zero bytes.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t k = 1; k < powers.size(); ++k) {
      powers[k] = powers[k - 1] * kPrime;
    }
    return powers;
  }();

  void mixByte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= kPrime;
  }

  std::uint64_t hash_ = kOffsetBasis;
};

/// Digest of the whole network's observable state at one instant. Nodes
/// are folded in population order (deterministic by construction); route
/// tables are ordered maps, so their iteration order is value-determined.
[[nodiscard]] std::uint64_t stateDigest(net::Network& network);

/// One sampled point of a digest trace.
struct DigestSample {
  std::uint64_t eventsExecuted = 0;
  sim::Time at = sim::kTimeZero;
  std::uint64_t digest = 0;

  bool operator==(const DigestSample&) const = default;
};

using DigestTrace = std::vector<DigestSample>;

}  // namespace ecgrid::check
