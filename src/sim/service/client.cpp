#include "sim/service/client.hpp"

#include <thread>
#include <utility>

namespace snug::sim::service {

RingClient::RingClient(CampaignServer& server)
    : server_(&server), wire_(server.config().root) {}

bool RingClient::query(const ServiceBatchQuery& query,
                       ServiceBatchAnswer& out, bool publish,
                       std::string* error) {
  RingOp op;
  op.query = query;
  op.publish = publish;
  // A full ring is transient by construction (the drain pops in
  // microseconds); a short yield loop rides it out before conceding to
  // the file wire.
  for (int attempt = 0; attempt < 256; ++attempt) {
    if (server_->ring_submit(&op)) {
      // Once pushed the server owns the op until it completes — and it
      // completes every accepted op, even at shutdown.
      op.wait();
      out = std::move(op.answer);
      ++ring_queries_;
      return true;
    }
    std::this_thread::yield();
  }
  ++wire_fallbacks_;
  if (!wire_.submit_batch(query, error)) return false;
  if (!wire_.wait_batch(query.id, out, fallback_timeout_ms)) {
    if (error != nullptr) *error = "timed out waiting for the answer file";
    return false;
  }
  return true;
}

}  // namespace snug::sim::service
