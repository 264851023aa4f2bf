// CRC-32C (Castagnoli) over byte buffers — the integrity check framing
// blob-store entry payloads (sim/blob_store.hpp: the EvalCache and
// WarmStateBank views) and campaign-journal record frames.  A 32-bit
// CRC is the right tool here: the store header already pins identity
// (magic, version, fingerprint) and exact size, so the checksum only
// has to catch *payload* corruption — bit rot, torn writes that happen
// to land on a plausible length, fault-injected flips — not act as a
// key.
//
// Software slice-by-one table, constexpr-built so the table lives in
// .rodata and the header stays dependency-free.  Not a hot path: one
// pass per store/load of an entry that took seconds to simulate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace snug {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) ? 0x82F63B78U : 0U);  // reflected poly
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

}  // namespace detail

/// CRC-32C of `n` bytes at `data`; chain calls by passing the previous
/// return value as `seed` (the default seeds a fresh stream).
[[nodiscard]] inline std::uint32_t crc32c(const void* data, std::size_t n,
                                          std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc = detail::kCrc32cTable[(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace snug
