// The instruction abstraction the trace substrate hands to the core model.
//
// SPEC CPU2000 binaries and reference inputs are not available in this
// environment, so workloads are synthesised (see README.md, "Modelling
// substitutions").  The stream is a sequence of retired instructions:
// compute ops, branches (with a precomputed mispredict flag), and
// loads/stores carrying data addresses.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace snug::trace {

enum class InstrKind : std::uint8_t {
  kCompute,
  kBranch,
  kLoad,
  kStore,
};

struct Instr {
  InstrKind kind = InstrKind::kCompute;
  Addr addr = 0;           ///< data address (loads/stores only)
  bool mispredict = false; ///< branches only
};

/// Structure-of-arrays batch encoding (InstrStream::fill_batch): one code
/// byte per instruction — the InstrKind value with the mispredict flag
/// folded into bit 3 — plus an address written only for loads/stores.
/// The bit layout makes the core's per-instruction tests one-op each:
///   memory op     ⟺ (code >> 1) == 1   (kLoad=2, kStore=3)
///   store         ⟺ code & 1           (given memory op)
///   branch        ⟺ (code & 7) == 1    (kBranch=1, mispredicted or not)
///   mispredicted  ⟺ code & 8           (set only on branches)
inline constexpr std::uint8_t kInstrMispredictBit = 8;

[[nodiscard]] constexpr std::uint8_t encode_instr(
    InstrKind kind, bool mispredict) noexcept {
  return static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(kind) |
      ((kind == InstrKind::kBranch && mispredict) ? kInstrMispredictBit
                                                  : 0));
}

/// An infinite instruction generator; one per simulated core.
class InstrStream {
 public:
  virtual ~InstrStream() = default;

  /// Produces the next retired instruction.
  virtual Instr next() = 0;

  /// Fills `code[0..n)` (and `addr[i]` for the loads/stores) with the
  /// next n instructions in SoA form and returns n.  The core model
  /// fetches in batches through this call, so a sealed generator pays
  /// one virtual dispatch per batch instead of one per instruction and
  /// the batch traffic is one code byte per instruction instead of a
  /// 16-byte Instr.  The default forwards to next(), so scripted test
  /// streams behave identically under either API.
  virtual std::size_t fill_batch(std::uint8_t* code, Addr* addr,
                                 std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Instr in = next();
      code[i] = encode_instr(in.kind, in.mispredict);
      addr[i] = in.addr;
    }
    return n;
  }

  /// Number of L2-bound data references generated so far (references the
  /// generator *intends* to miss L1; used by tests and phase bookkeeping).
  [[nodiscard]] virtual std::uint64_t l2_refs() const = 0;

  /// Human-readable benchmark name.
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace snug::trace
