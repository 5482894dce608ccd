// The benchmark's output checker: a model of what the replicated key/value
// service may return, kept apart from the program (it includes nothing from
// ../src). The load generator records every operation it issued and every
// answer it got; check() decides afterwards whether the answers are
// possible.
//
// The model rests on two rules the generator keeps: every written value is
// unique to its write, and a write returns the value it replaced. Then:
//   * Write chain. Per key, the acknowledged writes' (replaced -> written)
//     pairs form one chain from 0. The final probe (a write through the log
//     after the run) returns the chain's tail, and the chain is walked back
//     from there.
//   * Exclusive reads (issued with nothing else outstanding) return exactly
//     the newest chain value acknowledged before they were submitted.
//   * Concurrent reads return a chain value no older than the newest one
//     acknowledged before they were submitted.
//   * Transaction pairs are written only by two-key transactions that give
//     both keys the same value, never two in flight on one pair; at the end
//     both keys hold the last committed transaction's value.
//
// Failed operations (counted, the output stays correct):
//   * a lost write: acknowledged, but its value never enters the chain and
//     nobody ever observed it;
//   * a torn pair: one key holds the last committed value and the other an
//     earlier one of the same pair, i.e. exactly one command of one
//     transaction was never applied;
//   * a transaction abort.
// Any other violation marks the output incorrect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t { kRead, kWrite, kProbe };

// One single-key operation. Times are CLOCK_MONOTONIC nanoseconds: when
// the generator called submit, and when the reply was processed.
struct KeyOp {
  OpKind kind = OpKind::kRead;
  bool exclusive = false;  // nothing else was outstanding when submitted
  std::uint8_t phase = 0;  // the generator's phase tag (< kMaxPhases)
  std::uint64_t key = 0;
  std::uint64_t value = 0;   // written value (writes and probes)
  std::uint64_t result = 0;  // read value, or the value a write replaced
  std::int64_t t_submit = 0;
  std::int64_t t_done = 0;  // 0 = never acknowledged
};

// One two-key transaction writing `value` to both keys of pair `pair`.
struct TxnOp {
  std::uint32_t pair = 0;
  std::uint8_t phase = 0;
  std::uint64_t value = 0;
  bool committed = false;
  std::int64_t t_submit = 0;
  std::int64_t t_done = 0;  // 0 = never resolved
};

struct PairFinal {
  std::uint64_t a = 0;  // final read of the pair's first key
  std::uint64_t b = 0;  // and of its second
};

struct History {
  std::vector<KeyOp> ops;           // single-key ops and probes
  std::vector<TxnOp> txns;          // in submission order
  std::vector<PairFinal> pairs;     // indexed by TxnOp::pair
  std::uint64_t attempted = 0;      // ops the generator issued (probes excluded)
};

inline constexpr std::size_t kMaxPhases = 8;

struct Verdict {
  bool correct = true;
  std::uint64_t lost_writes = 0;
  std::uint64_t torn_pairs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t acknowledged = 0;  // attempted ops that completed and did not fail
  std::uint64_t failed_by_phase[kMaxPhases] = {};
  std::vector<std::string> errors;  // first few violations, for the log

  std::uint64_t failed() const { return lost_writes + torn_pairs + aborts; }
};

Verdict check(const History& h);

}  // namespace perfbench
