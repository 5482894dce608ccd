#include "checker.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

constexpr std::size_t kMaxErrors = 8;

void fail(Verdict& v, const char* fmt, unsigned long long a, unsigned long long b = 0,
          unsigned long long c = 0) {
  v.correct = false;
  if (v.errors.size() >= kMaxErrors) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  v.errors.emplace_back(buf);
}

// Checks one key's writes, probe and reads (indices into h.ops).
void check_key(const History& h, std::uint64_t key, const std::vector<std::size_t>& idx,
               Verdict& v) {
  std::unordered_map<std::uint64_t, std::size_t> by_value;  // written value -> op
  const KeyOp* probe = nullptr;
  std::unordered_set<std::uint64_t> observed;  // values some reply returned
  for (std::size_t i : idx) {
    const KeyOp& op = h.ops[i];
    if (op.t_done == 0) continue;  // counted by the op-count check
    observed.insert(op.result);
    if (op.kind == OpKind::kRead) continue;
    if (!by_value.emplace(op.value, i).second) {
      fail(v, "key %llu: value %llu written twice", key, op.value);
    }
    if (op.kind == OpKind::kProbe) probe = &op;
  }
  if (by_value.empty()) {
    // Never written: every read must return the initial 0.
    for (std::size_t i : idx) {
      if (h.ops[i].t_done != 0 && h.ops[i].result != 0) {
        fail(v, "key %llu: read returned %llu, which nobody wrote", key, h.ops[i].result);
      }
    }
    return;
  }
  if (probe == nullptr) {
    fail(v, "key %llu: written but never probed", key);
    return;
  }

  // Walk the chain back from the probe; pos[value] = 1-based chain position
  // (the initial 0 sits at position 0).
  std::vector<std::size_t> chain;
  std::unordered_set<std::size_t> on_chain;
  for (std::size_t cur = static_cast<std::size_t>(probe - h.ops.data());;) {
    if (!on_chain.insert(cur).second) {
      fail(v, "key %llu: write chain loops at value %llu", key, h.ops[cur].value);
      return;
    }
    chain.push_back(cur);
    const std::uint64_t prev = h.ops[cur].result;
    if (prev == 0) break;
    const auto it = by_value.find(prev);
    if (it == by_value.end()) {
      fail(v, "key %llu: a write replaced %llu, which nobody wrote", key, prev);
      return;
    }
    cur = it->second;
  }
  std::reverse(chain.begin(), chain.end());
  std::unordered_map<std::uint64_t, std::uint32_t> pos;
  pos[0] = 0;
  for (std::size_t p = 0; p < chain.size(); ++p) {
    pos[h.ops[chain[p]].value] = static_cast<std::uint32_t>(p + 1);
    // A write cannot be applied after a write that was acknowledged before
    // it was even submitted.
    if (p > 0 && h.ops[chain[p]].t_done < h.ops[chain[p - 1]].t_submit) {
      fail(v, "key %llu: chain order contradicts real time at value %llu", key,
           h.ops[chain[p]].value);
    }
  }

  // Acknowledged writes off the chain: lost when nobody ever saw their
  // value, a fork when somebody did.
  for (const auto& [value, i] : by_value) {
    if (on_chain.count(i) != 0) continue;
    const std::uint64_t prev = h.ops[i].result;
    if (prev != 0 && by_value.count(prev) == 0) {
      fail(v, "key %llu: a write replaced %llu, which nobody wrote", key, prev);
    } else if (observed.count(value) != 0) {
      fail(v, "key %llu: forked chain, off-chain value %llu was observed", key, value);
    } else {
      ++v.lost_writes;
      ++v.failed_by_phase[h.ops[i].phase % kMaxPhases];
    }
  }

  // Reads against the newest chain value acknowledged before submission.
  std::vector<std::pair<std::int64_t, std::uint32_t>> acked;  // (t_done, pos)
  acked.reserve(chain.size());
  for (std::size_t i : chain) acked.emplace_back(h.ops[i].t_done, pos[h.ops[i].value]);
  std::sort(acked.begin(), acked.end());
  for (std::size_t k = 1; k < acked.size(); ++k) {
    acked[k].second = std::max(acked[k].second, acked[k - 1].second);
  }
  for (std::size_t i : idx) {
    const KeyOp& op = h.ops[i];
    if (op.kind != OpKind::kRead || op.t_done == 0) continue;
    const auto it = pos.find(op.result);
    if (it == pos.end()) {
      if (by_value.count(op.result) == 0) {
        fail(v, "key %llu: read returned %llu, which nobody wrote", key, op.result);
      }
      continue;  // an off-chain value: already reported as a fork
    }
    const auto after = std::lower_bound(
        acked.begin(), acked.end(),
        std::make_pair(op.t_submit, std::uint32_t{0}));
    const std::uint32_t floor = after == acked.begin() ? 0 : (after - 1)->second;
    if (op.exclusive ? it->second != floor : it->second < floor) {
      fail(v, "key %llu: stale read returned chain position %llu, expected %llu", key,
           it->second, floor);
    }
  }
}

void check_pairs(const History& h, Verdict& v) {
  std::vector<std::vector<const TxnOp*>> per_pair(h.pairs.size());
  for (const TxnOp& t : h.txns) {
    if (t.pair >= h.pairs.size()) {
      fail(v, "transaction on unknown pair %llu", t.pair);
      continue;
    }
    if (t.t_done == 0) continue;  // counted by the op-count check
    if (!t.committed) {
      ++v.aborts;
      ++v.failed_by_phase[t.phase % kMaxPhases];
    }
    per_pair[t.pair].push_back(&t);
  }
  for (std::size_t p = 0; p < per_pair.size(); ++p) {
    std::uint64_t model = 0;
    std::unordered_set<std::uint64_t> earlier{0};  // committed before the last
    const TxnOp* prev = nullptr;
    const TxnOp* last = nullptr;  // the last committed transaction
    for (const TxnOp* t : per_pair[p]) {
      if (prev != nullptr && t->t_submit < prev->t_done) {
        fail(v, "pair %llu: two transactions in flight at once", p);
      }
      prev = t;
      if (!t->committed) continue;
      earlier.insert(model);
      model = t->value;
      last = t;
    }
    const PairFinal& f = h.pairs[p];
    if (f.a == model && f.b == model) continue;
    const bool a_new = f.a == model;
    const bool b_new = f.b == model;
    if (a_new != b_new && earlier.count(a_new ? f.b : f.a) != 0) {
      ++v.torn_pairs;
      ++v.failed_by_phase[last->phase % kMaxPhases];
    } else {
      fail(v, "pair %llu: final values %llu/%llu", p, f.a, f.b);
    }
  }
}

}  // namespace

Verdict check(const History& h) {
  Verdict v;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < h.ops.size(); ++i) {
    const KeyOp& op = h.ops[i];
    by_key[op.key].push_back(i);
    if (op.kind == OpKind::kProbe) {
      if (op.t_done == 0) fail(v, "key %llu: final probe never answered", op.key);
    } else if (op.t_done != 0) {
      ++completed;
    }
  }
  for (const auto& [key, idx] : by_key) check_key(h, key, idx, v);
  for (const TxnOp& t : h.txns) completed += t.t_done != 0 ? 1 : 0;
  check_pairs(h, v);
  if (completed != h.attempted) {
    fail(v, "%llu ops attempted but %llu completed", h.attempted, completed);
  }
  const std::uint64_t failed = v.failed();
  v.acknowledged = completed >= failed ? completed - failed : 0;
  if (v.acknowledged + failed != h.attempted) v.correct = false;
  return v;
}

}  // namespace perfbench
