// Synthetic histories for the output checker: each planted violation must
// be caught (counted as a failed op, or marking the output incorrect, as
// checker.hpp defines), and a clean history must pass.
// Run: perfbench_checker_test (exit 0 = every case passed).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checker.hpp"

using perfbench::check;
using perfbench::History;
using perfbench::KeyOp;
using perfbench::OpKind;
using perfbench::TxnOp;
using perfbench::Verdict;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& name, const std::string& what, const Verdict& v) {
  if (ok) {
    std::printf("ok   %s\n", name.c_str());
    return;
  }
  ++g_failures;
  std::printf("FAIL %s: %s (correct=%d failed=%llu)\n", name.c_str(), what.c_str(),
              v.correct ? 1 : 0, static_cast<unsigned long long>(v.failed()));
  for (const std::string& e : v.errors) std::printf("     %s\n", e.c_str());
}

KeyOp op(OpKind kind, std::uint64_t key, std::uint64_t value, std::uint64_t result,
         std::int64_t t_submit, std::int64_t t_done, bool exclusive = false) {
  KeyOp o;
  o.kind = kind;
  o.exclusive = exclusive;
  o.key = key;
  o.value = value;
  o.result = result;
  o.t_submit = t_submit;
  o.t_done = t_done;
  return o;
}

KeyOp write(std::uint64_t key, std::uint64_t value, std::uint64_t replaced, std::int64_t t0,
            std::int64_t t1) {
  return op(OpKind::kWrite, key, value, replaced, t0, t1);
}

KeyOp read(std::uint64_t key, std::uint64_t result, std::int64_t t0, std::int64_t t1,
           bool exclusive = false) {
  return op(OpKind::kRead, key, 0, result, t0, t1, exclusive);
}

KeyOp probe(std::uint64_t key, std::uint64_t value, std::uint64_t tail, std::int64_t t) {
  return op(OpKind::kProbe, key, value, tail, t, t + 1);
}

TxnOp txn(std::uint32_t pair, std::uint64_t value, bool committed, std::int64_t t0,
          std::int64_t t1) {
  TxnOp t;
  t.pair = pair;
  t.value = value;
  t.committed = committed;
  t.t_submit = t0;
  t.t_done = t1;
  return t;
}

// A clean history: exclusive ops on key 1, overlapping writes and reads on
// key 2, two committed transactions on pair 0, one probe per written key.
History clean() {
  History h;
  h.ops = {
      read(1, 0, 10, 11, true),
      write(1, 100, 0, 20, 21),
      read(1, 100, 30, 31, true),
      write(1, 101, 100, 40, 41),
      read(1, 101, 50, 51, true),
      // key 2: 102 and 103 overlap; the log put 103 first.
      write(2, 102, 103, 60, 80),
      write(2, 103, 0, 61, 70),
      read(2, 103, 62, 75),   // concurrent with both writes: 0, 103 or 102 allowed
      read(2, 102, 85, 90),   // after both acks: must see 102
      read(3, 0, 86, 91),     // never written
      probe(1, 900, 101, 200),
      probe(2, 901, 102, 201),
  };
  h.txns = {txn(0, 500, true, 100, 110), txn(0, 501, true, 120, 130)};
  h.pairs = {{501, 501}};
  h.attempted = 12;  // 10 single-key ops + 2 transactions
  return h;
}

void run(const std::string& name, const std::function<void(History&)>& plant,
         const std::function<bool(const Verdict&)>& caught, const std::string& what) {
  History h = clean();
  plant(h);
  const Verdict v = check(h);
  expect(caught(v), name, what, v);
}

bool incorrect(const Verdict& v) { return !v.correct; }

}  // namespace

int main() {
  {
    const Verdict v = check(clean());
    expect(v.correct && v.failed() == 0 && v.acknowledged == 12, "clean history passes",
           "expected correct with 0 failed and 12 acknowledged", v);
  }

  run(
      "lost write is a failed op",
      [](History& h) {
        // Acknowledged as replacing 0, never applied: nobody sees 104.
        h.ops.insert(h.ops.begin() + 4, write(1, 104, 0, 42, 43));
        ++h.attempted;
      },
      [](const Verdict& v) { return v.correct && v.lost_writes == 1 && v.failed() == 1; },
      "expected correct with exactly one lost write");

  run(
      "stale concurrent read",
      [](History& h) {
        h.ops[8] = read(2, 103, 85, 90);  // 102 was acknowledged at 80
      },
      incorrect, "a read older than an acknowledged write must be incorrect");

  run(
      "stale exclusive read",
      [](History& h) {
        h.ops[4] = read(1, 100, 50, 51, true);  // 101 was acknowledged at 41
      },
      incorrect, "an exclusive read must equal the model");

  run(
      "forked chain",
      [](History& h) {
        // 104 also claims to replace 100, and a read observed it.
        h.ops.push_back(write(1, 104, 100, 42, 43));
        h.ops.push_back(read(1, 104, 44, 45));
        h.attempted += 2;
      },
      incorrect, "an observed off-chain value must be incorrect");

  run(
      "value nobody wrote",
      [](History& h) { h.ops[8] = read(2, 777, 85, 90); },
      incorrect, "a read of an unwritten value must be incorrect");

  run(
      "write replaced a value nobody wrote",
      [](History& h) { h.ops[3] = write(1, 101, 777, 40, 41); },
      incorrect, "a chain link from an unwritten value must be incorrect");

  run(
      "torn pair from one lost command is a failed op",
      [](History& h) { h.pairs[0] = {501, 500}; },
      [](const Verdict& v) { return v.correct && v.torn_pairs == 1; },
      "expected correct with exactly one torn pair");

  run(
      "torn pair with a foreign value",
      [](History& h) { h.pairs[0] = {501, 777}; },
      incorrect, "a pair key holding a value no committed transaction wrote");

  run(
      "aborted transaction's value applied",
      [](History& h) {
        h.txns.push_back(txn(0, 502, false, 140, 150));
        h.pairs[0] = {502, 502};
        ++h.attempted;
      },
      incorrect, "an aborted transaction must leave no value");

  run(
      "abort is a failed op",
      [](History& h) {
        h.txns.push_back(txn(0, 502, false, 140, 150));
        ++h.attempted;
      },
      [](const Verdict& v) { return v.correct && v.aborts == 1 && v.failed() == 1; },
      "expected correct with exactly one abort");

  run(
      "overlapping transactions on one pair",
      [](History& h) { h.txns[1].t_submit = 105; },
      incorrect, "two transactions in flight on one pair must be incorrect");

  run(
      "unanswered op",
      [](History& h) { h.ops[2].t_done = 0; },
      incorrect, "attempted ops must all complete");

  run(
      "write chain against real time",
      [](History& h) {
        // 101 was acknowledged before 100 was submitted, yet replaced it.
        h.ops[1] = write(1, 100, 0, 42, 43);
        h.ops[3] = write(1, 101, 100, 20, 41);
        h.ops[2] = read(1, 0, 30, 31, true);
        h.ops[4] = read(1, 101, 50, 51, true);
      },
      incorrect, "a chain that contradicts real time must be incorrect");

  std::printf("%s (%d failing)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
