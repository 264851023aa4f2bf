// RingClient — the same-process client of a CampaignServer.
//
// A ServiceClient (wire.hpp) talks to any campaignd over the file wire:
// durable, cross-process, ~milliseconds per round-trip.  A RingClient
// talks to a CampaignServer living in the SAME process over the
// lock-free submit ring: a warm batch answers in tens of microseconds.
// The ring is latency-only — when it is saturated the client falls
// back to the file wire transparently, and misses admitted off the
// ring land in the same backlog as wire queries, so crash semantics
// are identical on either path.
#pragma once

#include <cstdint>
#include <string>

#include "sim/service/server.hpp"
#include "sim/service/wire.hpp"

namespace snug::sim::service {

class RingClient {
 public:
  /// `server` must outlive the client and every outstanding query().
  explicit RingClient(CampaignServer& server);

  /// Blocking batch query over the ring.  `publish` additionally writes
  /// the durable answers/<id>.answer file (the crash-soak contract —
  /// requires a file-name-safe id).  On a full ring the submit retries
  /// briefly, then falls back to the file wire (which always
  /// publishes).  False only when the fallback submit fails or times
  /// out; `error` (when given) carries the diagnostic.
  bool query(const ServiceBatchQuery& query, ServiceBatchAnswer& out,
             bool publish = false, std::string* error = nullptr);

  /// File-wire fallback budget for a saturated ring.
  std::uint64_t fallback_timeout_ms = 600'000;

  /// Ring submissions vs. file-wire fallbacks taken (telemetry).
  [[nodiscard]] std::uint64_t ring_queries() const noexcept {
    return ring_queries_;
  }
  [[nodiscard]] std::uint64_t wire_fallbacks() const noexcept {
    return wire_fallbacks_;
  }

 private:
  CampaignServer* server_;
  ServiceClient wire_;
  std::uint64_t ring_queries_ = 0;
  std::uint64_t wire_fallbacks_ = 0;
};

}  // namespace snug::sim::service
