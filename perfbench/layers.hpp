// Layer microbenchmarks for the traced run: each times one library layer
// in isolation, on inputs taken from the commands the workload generated.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/batch.hpp"
#include "core/protocol.hpp"

namespace perfbench {

struct LayerInputs {
  std::vector<ci::consensus::Command> stream;  // the workload's single-key commands
  ci::consensus::BatchPolicy policy;           // the workload's leader batching
  ci::core::Protocol protocol = ci::core::Protocol::kMultiPaxos;
  std::uint32_t frame_bytes = 0;  // the workload's mean frame on the wire
};

// Nanoseconds per unit of work, as named.
struct LayerCosts {
  double encode_request_ns = 0;  // wire::encode_into, one client request
  double encode_batch_ns = 0;    // one 64-command accept batch
  double encode_reply_ns = 0;    // one client reply
  double decode_request_ns = 0;  // wire::try_decode, same three shapes
  double decode_batch_ns = 0;
  double decode_reply_ns = 0;
  double batcher_ns = 0;     // Batcher::push + take, per command
  double apply_ns = 0;       // MapStateMachine::apply, per command
  double slot_ns = 0;        // one frame through a qclt SPSC queue, write + read
  double reassembly_ns = 0;  // FrameReassembler::feed, per frame
};

LayerCosts measure_layers(const LayerInputs& in);

}  // namespace perfbench
