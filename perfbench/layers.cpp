#include "layers.hpp"

#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/time.hpp"
#include "consensus/message.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/wire_codec.hpp"
#include "net/framing.hpp"
#include "qclt/connection.hpp"
#include "rt/wire.hpp"

namespace perfbench {
namespace {

using ci::Nanos;
using ci::consensus::Command;
using ci::consensus::Message;
using ci::consensus::MsgType;
using ci::consensus::ProtoId;

constexpr Nanos kBudget = 40 * ci::kMillisecond;  // per microbenchmark
constexpr ci::consensus::NodeId kSession = 3;

// Keeps results observable so the timed loops are not folded away.
volatile std::uint64_t g_sink = 0;

// Runs `round` (which does some units of work and returns how many) until
// kBudget has passed, after one untimed warm-up round; ns per unit.
template <typename Round>
double ns_per_unit(Round&& round) {
  g_sink = g_sink + round();
  std::uint64_t units = 0;
  const Nanos t0 = ci::now_nanos();
  Nanos t = t0;
  do {
    units += round();
    t = ci::now_nanos();
  } while (t - t0 < kBudget);
  return static_cast<double>(t - t0) / static_cast<double>(units);
}

Message request_frame(const Command& c) {
  Message m(MsgType::kClientRequest, ProtoId::kClient, kSession, 0);
  m.u.client_request.cmd = c;
  return m;
}

Message reply_frame(const Command& c, std::int64_t instance) {
  Message m(MsgType::kClientReply, ProtoId::kClient, 0, kSession);
  m.u.client_reply.seq = c.seq;
  m.u.client_reply.result = c.value;
  m.u.client_reply.instance = instance;
  m.u.client_reply.leader_hint = 0;
  m.u.client_reply.lease_epoch = 1;
  return m;
}

// The leader's accept for a full batch: the frame a 64-command instance
// travels in (MultiPaxos phase 2, or 1Paxos' accept to its acceptor).
Message batch_frame(const Command* cmds, ci::core::Protocol protocol, std::int64_t instance) {
  const std::int32_t n = ci::consensus::kMaxCommandsPerBatch;
  if (protocol == ci::core::Protocol::kOnePaxos) {
    Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 0, 1);
    auto& b = m.u.opx_batch_accept_req;
    b.instance = instance;
    b.pn = {1, 0};
    b.count = n;
    b.run.assign(cmds, n);
    return m;
  }
  Message m(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, 0, 1);
  auto& b = m.u.phase2_batch_req;
  b.instance = instance;
  b.pn = {1, 0};
  b.count = n;
  b.run.assign(cmds, n);
  return m;
}

struct Frames {
  std::vector<Message> msgs;
  std::vector<std::vector<unsigned char>> bytes;
};

Frames encode_all(std::vector<Message> msgs) {
  Frames f;
  for (const Message& m : msgs) {
    std::vector<unsigned char> buf(ci::wire::kMaxFrameBytes);
    buf.resize(ci::wire::encode(m, buf.data()));
    f.bytes.push_back(std::move(buf));
  }
  f.msgs = std::move(msgs);
  return f;
}

double encode_cost(const Frames& f) {
  std::vector<unsigned char> buf(ci::wire::kMaxFrameBytes);
  return ns_per_unit([&] {
    std::uint64_t s = 0;
    for (const Message& m : f.msgs) {
      ci::wire::BufferWriter w(buf.data());
      s += ci::wire::encode_into(m, w, m.src, m.dst);
      s += buf[w.written() - 1];
    }
    g_sink = g_sink + s;
    return f.msgs.size();
  });
}

double decode_cost(const Frames& f) {
  return ns_per_unit([&] {
    std::uint64_t s = 0;
    for (const auto& b : f.bytes) {
      Message out;
      if (!ci::wire::try_decode(b.data(), b.size(), &out)) std::abort();
      s += static_cast<std::uint64_t>(out.type);
      ci::wire::release_body(out);
    }
    g_sink = g_sink + s;
    return f.bytes.size();
  });
}

}  // namespace

LayerCosts measure_layers(const LayerInputs& in) {
  LayerCosts c;
  // Commands as the session stamps them; at least one full batch.
  std::vector<Command> cmds = in.stream;
  while (cmds.size() < static_cast<std::size_t>(ci::consensus::kMaxCommandsPerBatch)) {
    cmds.push_back(cmds.empty() ? Command{} : cmds[cmds.size() % in.stream.size()]);
  }
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    cmds[i].client = kSession;
    cmds[i].seq = static_cast<std::uint32_t>(i + 1);
  }

  // Frame shapes: up to 256 distinct commands per shape.
  const std::size_t shapes = std::min<std::size_t>(cmds.size(), 256);
  std::vector<Message> requests, replies, batches;
  for (std::size_t i = 0; i < shapes; ++i) {
    requests.push_back(request_frame(cmds[i]));
    replies.push_back(reply_frame(cmds[i], static_cast<std::int64_t>(i)));
  }
  const std::size_t full = cmds.size() / ci::consensus::kMaxCommandsPerBatch;
  for (std::size_t i = 0; i < std::min<std::size_t>(full, 16); ++i) {
    batches.push_back(batch_frame(&cmds[i * ci::consensus::kMaxCommandsPerBatch],
                                  in.protocol, static_cast<std::int64_t>(i)));
  }
  const Frames req = encode_all(std::move(requests));
  const Frames rep = encode_all(std::move(replies));
  const Frames bat = encode_all(std::move(batches));
  c.encode_request_ns = encode_cost(req);
  c.encode_reply_ns = encode_cost(rep);
  c.encode_batch_ns = encode_cost(bat);
  c.decode_request_ns = decode_cost(req);
  c.decode_reply_ns = decode_cost(rep);
  c.decode_batch_ns = decode_cost(bat);
  for (const Message& m : bat.msgs) ci::wire::release_body(m);

  {
    ci::consensus::Batcher b(in.policy);
    Nanos t = 0;
    c.batcher_ns = ns_per_unit([&] {
      std::uint64_t s = 0;
      for (const Command& cmd : cmds) {
        b.push(cmd, t += ci::kMicrosecond);
        if (b.size() >= static_cast<std::size_t>(in.policy.commands_cap())) s += b.take().size();
      }
      while (!b.empty()) s += b.take().size();
      g_sink = g_sink + s;
      return cmds.size();
    });
  }

  {
    ci::consensus::MapStateMachine sm;
    c.apply_ns = ns_per_unit([&] {
      std::uint64_t s = 0;
      for (const Command& cmd : cmds) s += sm.apply(cmd);
      g_sink = g_sink + s;
      return cmds.size();
    });
  }

  const std::uint32_t frame =
      std::max<std::uint32_t>(in.frame_bytes, ci::consensus::kMessageHeaderBytes);
  std::vector<unsigned char> payload(frame);
  for (std::uint32_t i = 0; i < frame; ++i) payload[i] = static_cast<unsigned char>(i * 131);

  {
    const std::uint32_t slots =
        std::max(ci::rt::slots_for(in.policy), ci::qclt::wire::fragments_for(frame));
    const std::size_t bytes =
        (ci::qclt::SpscQueue::bytes_required(slots) + ci::kCacheLineSize - 1) /
        ci::kCacheLineSize * ci::kCacheLineSize;
    std::unique_ptr<void, decltype(&std::free)> mem(std::aligned_alloc(ci::kCacheLineSize, bytes),
                                                    &std::free);
    ci::qclt::SpscQueue* q = ci::qclt::SpscQueue::init(mem.get(), slots);
    ci::qclt::Connection conn(q, q);
    std::vector<unsigned char> out(frame);
    c.slot_ns = ns_per_unit([&] {
      std::uint64_t s = 0;
      for (int i = 0; i < 256; ++i) {
        if (!conn.try_write(payload.data(), frame)) std::abort();
        s += static_cast<std::uint64_t>(conn.try_read(out.data(), out.size()));
      }
      g_sink = g_sink + s + out[frame - 1];
      return 256;
    });
  }

  {
    constexpr std::size_t kFrames = 1024;
    constexpr std::size_t kRecv = 64 * 1024;  // bytes per simulated recv()
    std::vector<unsigned char> stream;
    stream.reserve(kFrames * (frame + ci::net::kLenPrefixBytes));
    for (std::size_t i = 0; i < kFrames; ++i) {
      unsigned char prefix[ci::net::kLenPrefixBytes];
      ci::net::put_len_prefix(prefix, frame);
      stream.insert(stream.end(), prefix, prefix + sizeof(prefix));
      stream.insert(stream.end(), payload.begin(), payload.end());
    }
    ci::net::FrameReassembler r(static_cast<std::uint32_t>(ci::wire::kMaxFrameBytes));
    c.reassembly_ns = ns_per_unit([&] {
      std::uint64_t frames = 0;
      for (std::size_t off = 0; off < stream.size(); off += kRecv) {
        const std::size_t n = std::min(kRecv, stream.size() - off);
        if (!r.feed(stream.data() + off, n, [&](const unsigned char* p, std::size_t len) {
              frames += 1;
              g_sink = g_sink + p[len - 1];
            })) {
          std::abort();
        }
      }
      return frames;
    });
  }
  return c;
}

}  // namespace perfbench
