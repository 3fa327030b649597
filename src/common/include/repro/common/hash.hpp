// Incremental 64-bit state hashing for simulation-state digests.
//
// Two combiners with different algebra:
//  * StateHash -- order-DEPENDENT FNV-1a style mixing, for state whose
//    sequence matters (LRU stacks, replica lists, op streams);
//  * mix independent contributions with operator^= / += on the caller
//    side for state stored in unordered containers, where the digest
//    must not depend on hash-table iteration order.
//
// These digests gate the harness's steady-state fast-forward: equality
// must imply "behaviourally identical state" up to hash collision, so
// every contributor hashes *values*, never addresses or iterator
// positions.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace repro {

class StateHash {
 public:
  /// FNV-1a offset basis; `seed` lets callers chain digests.
  explicit StateHash(std::uint64_t seed = 0xcbf29ce484222325ull)
      : hash_(seed) {}

  /// Mixes one 64-bit value, byte by byte from the low end (FNV-1a),
  /// order-dependent. A zero byte's round is a bare multiply by the
  /// prime, so the run of zero high bytes folds into one multiply by
  /// the matching power of it: the same value mod 2^64, with one
  /// multiply per significant byte plus one instead of eight.
  void mix(std::uint64_t value) {
    const auto bytes = static_cast<unsigned>(71 - std::countl_zero(value)) / 8;
    for (unsigned i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= kPrime;
    }
    hash_ *= kPrimePowers[8 - bytes];
  }

  /// Mixes a double through its bit pattern (digests must be exact, so
  /// fractional-ns carries hash their representation, not a rounding).
  void mix_double(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ull;
  /// kPrimePowers[k] = kPrime^k mod 2^64, k = 0..8.
  static constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
    std::array<std::uint64_t, 9> powers{};
    powers[0] = 1;
    for (std::size_t k = 1; k < powers.size(); ++k) {
      powers[k] = powers[k - 1] * kPrime;
    }
    return powers;
  }();

  std::uint64_t hash_;
};

/// One-shot avalanche of a 64-bit key (splitmix64 finalizer): used to
/// hash the *elements* of unordered containers before combining them
/// with a commutative operation, so that different (key, value) sets
/// do not cancel out under XOR/addition.
[[nodiscard]] inline std::uint64_t avalanche64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace repro
