// perfbench: the repository's end-to-end benchmark (README.md beside this
// file has the workloads, phases, metrics and reference figures).
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1 [--spans-out FILE]
//
// One process hosts a client::ServiceClient on a real runtime and drives it
// from this thread through the public client API only, in phases:
//   seq   one op outstanding;
//   peak  a closed loop holding a fixed window of outstanding ops;
//   open  Poisson arrivals at a fixed rate, latency from each op's due time;
//   slow  one op outstanding while the leaders' node is slowed, repeatedly.
// Every answer is recorded and checked afterwards by checker.hpp. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics
// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
//
// The generator never spins: it blocks in wait() or sleeps until the next
// due time. Every core already runs a pinned node thread, and a spinning
// caller sharing a core with one makes throughput swing tenfold.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "client/service_client.hpp"
#include "common/time.hpp"
#include "layers.hpp"

namespace {

using ci::Nanos;
using ci::now_nanos;
using ci::client::ServiceClient;
using ci::client::Session;
using ci::client::SubmitHandle;
using ci::client::TxnHandle;
using ci::consensus::Op;
using perfbench::KeyOp;
using perfbench::OpKind;
using perfbench::TxnOp;

// Taken during static initialization, before main: the process start for
// setup_s.
const Nanos g_process_start = now_nanos();

// ---- Workloads ----

struct Mix {
  double read = 0;
  double write = 0;  // transactions take the rest
};

struct Workload {
  const char* name;
  ci::core::Backend backend;
  ci::core::Protocol protocol;
  std::int32_t groups;
  bool leases;
  Mix mix;               // peak and slow; seq and open issue its single-key part
  std::uint64_t keys;    // single keys 1..keys, zipfian
  std::uint32_t pairs;   // transaction pairs, disjoint from the single keys
  double open_rate;      // open phase, op/s
  int generator_core;    // node whose core the generator shares (pin_generator); -1 = none
};

constexpr double kZipfTheta = 0.99;
constexpr std::int32_t kWindow = 64;  // peak: outstanding ops
constexpr std::int32_t kBatch = 64;
constexpr Nanos kFlushBudget = 200 * ci::kMicrosecond;
constexpr Nanos kLease = 20 * ci::kMillisecond;
// The session's retry timer. A follower that receives a retried request
// takes over at once (leases off), so with the 10 ms default a 10 ms stall
// anywhere changed the leader; in 5 of about 60 runs that happened in the
// open phase and lost acknowledged writes (FOUND in CHANGES.md), a count
// that differs from run to run. 50 ms sits above the 25 ms failure detector.
constexpr Nanos kRequestTimeout = 50 * ci::kMillisecond;
constexpr std::uint64_t kPairBase = std::uint64_t{1} << 40;

// Slow phase: each episode serves for kWarm, slows the node hosting the
// most leaders by kSlowFactor (a 50 ms stall per message: its heartbeats
// stop for longer than the 25 ms failure detector waits), measures the
// longest completion gap over kEpisode, heals, and serves for kSettle.
constexpr std::uint32_t kSlowFactor = 100000;
constexpr Nanos kWarm = 50 * ci::kMillisecond;
constexpr Nanos kEpisode = 250 * ci::kMillisecond;
constexpr Nanos kSettle = 100 * ci::kMillisecond;

const Workload kWorkloads[] = {
    {"rt-kv", ci::core::Backend::kRt, ci::core::Protocol::kMultiPaxos, 1, false, {0.5, 0.5},
     1024, 16, 100000, 2},
    {"net-kv", ci::core::Backend::kNet, ci::core::Protocol::kMultiPaxos, 1, false, {0.5, 0.5},
     1024, 16, 40000, -1},
    {"rt-shard-txn", ci::core::Backend::kRt, ci::core::Protocol::kOnePaxos, 4, true,
     {0.90, 0.05}, 4096, 64, 25000, 3},
};

// The single-key part of a mix, renormalized; and transactions alone.
Mix single_key(const Mix& m) { return {m.read / (m.read + m.write), m.write / (m.read + m.write)}; }
constexpr Mix kTxnsOnly{0, 0};

enum Phase : std::uint8_t { kSetup, kSeq, kPeak, kOpen, kSlow, kProbe, kPhases };
const char* const kPhaseNames[] = {"setup", "seq", "peak", "open", "slow", "probe"};

// ---- Inputs: the benchmark's own generators, seeded by --seed ----

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// Zipfian ranks over [0, n) (Gray et al., "Quickly generating billion-record
// synthetic databases"): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta2 = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      const double term = 1.0 / std::pow(static_cast<double>(i), theta);
      zetan_ += term;
      if (i <= 2) zeta2 += term;
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }
  std::uint64_t next(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                              std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// ---- Tracing: spans around the public calls, kept in memory ----

enum SpanName : std::uint32_t { kSpanOp, kSpanSubmit, kSpanWait, kSpanTxnCommit, kSpanTxnWait };
const char* const kSpanNames[] = {"op", "session.submit", "handle.wait", "txn.commit",
                                  "txn.wait"};
constexpr std::uint32_t kNoSpan = ~0u;
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

struct Span {
  std::uint32_t name;
  std::uint32_t parent;
  std::uint64_t op;
  Nanos start;
  Nanos end;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(kMaxSpans);
  }
  bool on() const { return on_; }
  std::uint32_t add(SpanName name, std::uint32_t parent, std::uint64_t op, Nanos start,
                    Nanos end) {
    if (!on_) return kNoSpan;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return kNoSpan;
    }
    spans_.push_back({name, parent, op, start, end});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id, Nanos end) {
    if (id != kNoSpan) spans_[id].end = end;
  }
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,parent,op,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%llu,%lld,%lld\n", i, kSpanNames[s.name],
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start - g_process_start),
                   static_cast<long long>(s.end - g_process_start));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// ---- Statistics ----

double quantile(std::vector<Nanos> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(v.size())) - 1.0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr Nanos kBin = 100 * ci::kMillisecond;

struct PhaseStats {
  Nanos start = 0;
  Nanos end = 0;        // when the phase stopped issuing
  Nanos last_done = 0;  // newest completion of the phase's ops
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t msgs = 0;   // transport messages during the phase
  std::uint64_t bytes = 0;  // and frame bytes
  std::uint64_t retargets = 0;
  std::vector<std::uint32_t> bins;  // completions per kBin from the start
  std::vector<Nanos> lat;      // single-key ops, to their reply stamp
  std::vector<Nanos> txn_lat;  // transactions, commit() to acknowledged
};

// ---- The generator ----

class Generator {
 public:
  Generator(const Workload& w, ServiceClient& svc, std::uint64_t seed, bool trace)
      : w_(w),
        svc_(svc),
        session_(svc.session(0)),
        rng_(seed),
        zipf_(w.keys, kZipfTheta),
        tracer_(trace),
        ring_(kRing),
        pair_busy_(w.pairs, false),
        leaders_(static_cast<std::size_t>(svc.num_groups()), ci::consensus::kNoNode) {
    // Pair p's keys sit in different groups whenever there are several.
    for (std::uint32_t p = 0; p < w.pairs; ++p) {
      const std::uint64_t a = kPairBase + 1024 * std::uint64_t{p};
      std::uint64_t b = a + 1;
      while (svc.num_groups() > 1 && svc.group_of(b) == svc.group_of(a)) ++b;
      pair_keys_.emplace_back(a, b);
    }
    history_.pairs.resize(w.pairs);
    history_.ops.reserve(1 << 20);
  }

  // The first acknowledged op: a read of the hottest key.
  Nanos first_op() {
    issue_key(kSetup, Op::kRead, 1, now_nanos(), true);
    return reap();
  }

  // Single-key ops for the first three quarters, then transactions alone:
  // interleaved, a transaction's commands shorten its groups' arrival gaps
  // and the adaptive batch hold then delays the next single-key write, which
  // puts the seq tail on the edge between two latency modes.
  void seq_phase(Nanos dur) {
    begin(kSeq);
    run_exclusive(kSeq, stats_[kSeq].start + dur * 3 / 4, single_key(w_.mix));
    run_exclusive(kSeq, stats_[kSeq].start + dur, kTxnsOnly);
    finish(kSeq);
  }

  void peak_phase(Nanos dur) {
    begin(kPeak);
    const Nanos end = stats_[kPeak].start + dur;
    while (now_nanos() < end) {
      while (count_ < kWindow) issue(kPeak, now_nanos(), false, w_.mix);
      reap();
      while (count_ > 0 && front_done()) reap();
      sample_leaders(kPeak);
    }
    finish(kPeak);
  }

  // Single-key ops only: a transaction advances only inside
  // TxnHandle::wait(), so a one-thread open loop would have to block on each
  // one and its arrivals would no longer be independent of the service.
  void open_phase(Nanos dur) {
    begin(kOpen);
    const Mix mix = single_key(w_.mix);
    const double mean_gap_ns = 1e9 / w_.open_rate;
    Nanos due = stats_[kOpen].start;
    const Nanos end = due + dur;
    const auto gap = [&] {
      return static_cast<Nanos>(-std::log(1.0 - rng_.uniform()) * mean_gap_ns);
    };
    due += gap();
    while (due < end) {
      Nanos t = now_nanos();
      while (due <= t && due < end) {
        if (count_ == kRing) reap();
        issue(kOpen, due, false, mix);
        late_.push_back(ring_[slot(count_ - 1)].t_submit - due);
        due += gap();
        t = now_nanos();
      }
      while (count_ > 0 && front_done()) reap();
      sample_leaders(kOpen);
      if (due < end) sleep_until(due);
    }
    finish(kOpen);
  }

  void slow_phase(Nanos dur) {
    begin(kSlow);
    const Nanos end = stats_[kSlow].start + dur;
    do {
      run_exclusive(kSlow, now_nanos() + kWarm, w_.mix);
      const ci::consensus::NodeId victim = leaders_node();
      const Nanos t0 = now_nanos();
      svc_.throttle_replica(victim, kSlowFactor);
      Nanos last = t0;
      Nanos gap = 0;
      while (now_nanos() < t0 + kEpisode) {
        issue(kSlow, now_nanos(), true, w_.mix);
        const Nanos done = reap();
        gap = std::max(gap, done - last);
        last = std::max(last, done);
      }
      gap = std::max(gap, t0 + kEpisode - last);
      svc_.throttle_replica(victim, 1);
      failover_ms_.push_back(static_cast<double>(gap) / 1e6);
      run_exclusive(kSlow, now_nanos() + kSettle, w_.mix);
    } while (now_nanos() + kWarm + kEpisode + kSettle <= end);
    finish(kSlow);
  }

  // Final probes, after every phase: one write through the log per written
  // single key (it returns the chain's tail), then both keys of each pair.
  void probe() {
    std::set<std::uint64_t> written;
    for (const KeyOp& op : history_.ops) {
      if (op.kind == OpKind::kWrite) written.insert(op.key);
    }
    for (const std::uint64_t key : written) {
      issue_key(kProbe, Op::kWrite, key, now_nanos(), true);
      reap();
    }
    for (std::uint32_t p = 0; p < w_.pairs; ++p) {
      history_.pairs[p].a = session_.submit(Op::kRead, pair_keys_[p].first, 0).wait();
      history_.pairs[p].b = session_.submit(Op::kRead, pair_keys_[p].second, 0).wait();
    }
  }

  perfbench::History& history() { return history_; }
  const PhaseStats& stats(Phase p) const { return stats_[p]; }
  const std::vector<double>& failovers_ms() const { return failover_ms_; }
  const std::vector<Nanos>& late() const { return late_; }
  const Tracer& tracer() const { return tracer_; }
  // Per-layer samples (traced runs only).
  const std::vector<Nanos>& submit_ns() const { return submit_ns_; }
  const std::vector<Nanos>& wake_ns() const { return wake_ns_; }
  const std::vector<Nanos>& txn_commit_ns() const { return txn_commit_ns_; }
  const std::vector<Nanos>& txn_wait_ns() const { return txn_wait_ns_; }

 private:
  static constexpr std::int32_t kRing = 1 << 15;  // open loop backlog bound

  struct Item {
    bool txn = false;
    Phase phase = kSetup;
    std::size_t rec = 0;  // index into history_.ops or history_.txns
    SubmitHandle h;
    TxnHandle t;
    Nanos due = 0;  // latency origin: the due time, else the submit time
    Nanos t_submit = 0;
    std::uint32_t span = kNoSpan;
  };

  std::int32_t slot(std::int32_t i) const { return (head_ + i) % kRing; }

  void begin(Phase p) {
    stats_[p].start = now_nanos();
    stats_[p].msgs = svc_.total_messages();
    stats_[p].bytes = svc_.total_bytes();
  }

  void finish(Phase p) {
    stats_[p].end = now_nanos();
    while (count_ > 0) reap();
    stats_[p].msgs = svc_.total_messages() - stats_[p].msgs;
    stats_[p].bytes = svc_.total_bytes() - stats_[p].bytes;
  }

  void run_exclusive(Phase p, Nanos end, const Mix& mix) {
    while (now_nanos() < end) {
      issue(p, now_nanos(), true, mix);
      reap();
      sample_leaders(p);
    }
  }

  void issue(Phase p, Nanos due, bool exclusive, const Mix& mix) {
    const double u = rng_.uniform();
    if (u < mix.read) {
      issue_key(p, Op::kRead, zipf_.next(rng_) + 1, due, exclusive);
    } else if (u < mix.read + mix.write || !issue_txn(p, due)) {
      issue_key(p, Op::kWrite, zipf_.next(rng_) + 1, due, exclusive);
    }
  }

  void issue_key(Phase p, Op op, std::uint64_t key, Nanos due, bool exclusive) {
    KeyOp rec;
    rec.kind = p == kProbe ? OpKind::kProbe : op == Op::kRead ? OpKind::kRead : OpKind::kWrite;
    rec.exclusive = exclusive;
    rec.phase = p;
    rec.key = key;
    rec.value = op == Op::kWrite ? ++next_value_ : 0;
    Item& it = push(p, false, history_.ops.size(), due);
    rec.t_submit = now_nanos();
    it.h = session_.submit(op, key, rec.value);
    it.t_submit = rec.t_submit;
    if (tracer_.on()) {
      const Nanos t1 = now_nanos();
      submit_ns_.push_back(t1 - rec.t_submit);
      it.span = tracer_.add(kSpanOp, kNoSpan, op_id(it), due, 0);
      tracer_.add(kSpanSubmit, it.span, op_id(it), rec.t_submit, t1);
    }
    history_.ops.push_back(rec);
  }

  // A two-key transaction on a pair with nothing in flight; false when every
  // pair is busy (the caller issues a write instead).
  bool issue_txn(Phase p, Nanos due) {
    const auto start = static_cast<std::uint32_t>(rng_.below(w_.pairs));
    std::uint32_t pair = w_.pairs;
    for (std::uint32_t k = 0; k < w_.pairs && pair == w_.pairs; ++k) {
      const std::uint32_t c = (start + k) % w_.pairs;
      if (!pair_busy_[c]) pair = c;
    }
    if (pair == w_.pairs) return false;
    pair_busy_[pair] = true;
    TxnOp rec;
    rec.pair = pair;
    rec.phase = p;
    rec.value = ++next_value_;
    Item& it = push(p, true, history_.txns.size(), due);
    rec.t_submit = now_nanos();
    it.t = session_.txn()
               .put(pair_keys_[pair].first, rec.value)
               .put(pair_keys_[pair].second, rec.value)
               .commit();
    it.t_submit = rec.t_submit;
    if (tracer_.on()) {
      const Nanos t1 = now_nanos();
      txn_commit_ns_.push_back(t1 - rec.t_submit);
      it.span = tracer_.add(kSpanOp, kNoSpan, op_id(it), due, 0);
      tracer_.add(kSpanTxnCommit, it.span, op_id(it), rec.t_submit, t1);
    }
    history_.txns.push_back(rec);
    return true;
  }

  Item& push(Phase p, bool txn, std::size_t rec, Nanos due) {
    Item& it = ring_[slot(count_++)];
    it.txn = txn;
    it.phase = p;
    it.rec = rec;
    it.due = due;
    it.span = kNoSpan;
    if (p != kProbe) ++stats_[p].attempted;
    return it;
  }

  static std::uint64_t op_id(const Item& it) {
    return (static_cast<std::uint64_t>(it.txn) << 63) | it.rec;
  }

  bool front_done() const {
    const Item& it = ring_[head_];
    return !it.txn && it.h.done();
  }

  // Waits for the oldest outstanding op and records its answer; returns its
  // completion time.
  Nanos reap() {
    Item& it = ring_[head_];
    PhaseStats& ps = stats_[it.phase];
    Nanos done;
    const Nanos t0 = now_nanos();
    if (it.txn) {
      TxnOp& rec = history_.txns[it.rec];
      const bool committed = it.t.wait() == ci::client::TxnState::kCommitted;
      done = now_nanos();
      rec.committed = committed;
      rec.t_done = done;
      pair_busy_[rec.pair] = false;
      ps.txn_lat.push_back(done - it.due);
      if (tracer_.on()) {
        txn_wait_ns_.push_back(done - t0);
        tracer_.add(kSpanTxnWait, it.span, op_id(it), t0, done);
      }
      it.t = TxnHandle();
    } else {
      KeyOp& rec = history_.ops[it.rec];
      rec.result = it.h.wait();
      done = it.h.completed_at();
      rec.t_done = done;
      ps.lat.push_back(done - it.due);
      if (tracer_.on()) {
        const Nanos t1 = now_nanos();
        if (it.phase == kSeq) wake_ns_.push_back(t1 - done);
        tracer_.add(kSpanWait, it.span, op_id(it), t0, t1);
      }
      it.h = SubmitHandle();
    }
    tracer_.close(it.span, done);
    ++ps.completed;
    ps.last_done = std::max(ps.last_done, done);
    const auto bin = static_cast<std::size_t>(std::max<Nanos>(done - ps.start, 0) / kBin);
    if (bin >= ps.bins.size()) ps.bins.resize(bin + 1, 0);
    ++ps.bins[bin];
    head_ = (head_ + 1) % kRing;
    --count_;
    return done;
  }

  // Traced runs: counts changes of each group's believed leader, sampled at
  // most once a millisecond.
  void sample_leaders(Phase p) {
    if (!tracer_.on()) return;
    const Nanos t = now_nanos();
    if (t - last_sample_ < ci::kMillisecond) return;
    last_sample_ = t;
    for (std::int32_t g = 0; g < svc_.num_groups(); ++g) {
      const auto l = svc_.believed_leader(g);
      auto& prev = leaders_[static_cast<std::size_t>(g)];
      if (prev != ci::consensus::kNoNode && l != prev) ++stats_[p].retargets;
      prev = l;
    }
  }

  // The replica id that most groups believe leads them.
  ci::consensus::NodeId leaders_node() const {
    std::map<ci::consensus::NodeId, int> votes;
    for (std::int32_t g = 0; g < svc_.num_groups(); ++g) ++votes[svc_.believed_leader(g)];
    ci::consensus::NodeId best = 0;
    int most = 0;
    for (const auto& [node, n] : votes) {
      if (node >= 0 && node < svc_.num_replicas() && n > most) {
        best = node;
        most = n;
      }
    }
    return best;
  }

  static void sleep_until(Nanos t) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(t / ci::kSecond);
    ts.tv_nsec = static_cast<long>(t % ci::kSecond);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }

  const Workload& w_;
  ServiceClient& svc_;
  Session& session_;
  Rng rng_;
  Zipf zipf_;
  Tracer tracer_;
  std::vector<Item> ring_;
  std::int32_t head_ = 0;
  std::int32_t count_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pair_keys_;
  std::vector<bool> pair_busy_;
  std::uint64_t next_value_ = 0;
  perfbench::History history_;
  PhaseStats stats_[kPhases];
  std::vector<double> failover_ms_;
  std::vector<Nanos> late_;
  std::vector<Nanos> submit_ns_, wake_ns_, txn_commit_ns_, txn_wait_ns_;
  std::vector<ci::consensus::NodeId> leaders_;
  Nanos last_sample_ = 0;
};

// ---- Output ----

// The closed loop's throughput: the median over its whole kBin windows of
// the acknowledged op rate. On net, where a submission can wait out a 1 ms
// poll timeout, the rate of single windows swings severalfold; the median
// over the phase's windows is what holds still from run to run.
double peak_rate(const PhaseStats& s) {
  std::vector<double> rates;
  for (std::size_t b = 0; b < s.bins.size(); ++b) {
    if (s.start + static_cast<Nanos>(b + 1) * kBin > s.end) break;
    rates.push_back(static_cast<double>(s.bins[b]) * (static_cast<double>(ci::kSecond) / kBin));
  }
  return median(rates);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Pins the calling (generator) thread to the core of transport node `node`,
// at nice 5 when that node is a replica. On rt the service pins node n to
// core n modulo the cores (replicas on nodes 0..2, the session on node 3),
// so every core already runs a node thread. Workload::generator_core picks
// the placement each workload measured steadiest (README.md): at equal
// weight on a follower's core the generator starved it into leader
// changes, hence the nice value there.
void pin_generator(int node, bool replica_core) {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (cores < 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(node % cores), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);  // best effort
  if (replica_core) setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 5);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {rt-kv,net-kv,rt-shard-txn} "
               "--seed N --seconds T --trace {0,1} [--spans-out FILE]\n",
               why);
  std::exit(2);
}

// Ends the process if a run hangs (an op that never completes would block
// wait() forever); the benchmark must exit within its time limit either way.
class Watchdog {
 public:
  explicit Watchdog(Nanos limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::nanoseconds(limit), [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded its time limit, giving up\n");
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, spans_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload_name = v;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else if (a == "--seed" || a == "--seconds" || a == "--trace") {
      const long long n = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || n < 0) usage(("bad value for " + a).c_str());
      (a == "--seed" ? seed : a == "--seconds" ? seconds : trace) = n;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload_name == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown or missing --workload");
  if (seed < 0) usage("missing --seed");
  if (seconds < 1 || seconds > 600) usage("--seconds must be 1..600");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  const bool traced = trace == 1;
  const Nanos T = seconds * ci::kSecond;

  Watchdog watchdog(T + 120 * ci::kSecond);
  // The generator sleeps to absolute due times; the default 50 µs timer
  // slack would make every wake-up late by that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  ServiceClient::Options o;
  o.backend = w->backend;
  o.spec.protocol = w->protocol;
  o.spec.num_replicas = 3;
  o.spec.seed = static_cast<std::uint64_t>(seed) + 1;
  o.spec.engine.batch.max_commands = kBatch;
  o.spec.engine.batch.flush_mode = ci::consensus::BatchPolicy::FlushMode::kAdaptive;
  o.spec.engine.batch.flush_after = kFlushBudget;
  if (w->leases) {
    o.spec.engine.lease_duration = kLease;
    o.spec.engine.lease_epsilon = kLease / 10;
  }
  o.groups = w->groups;
  o.placement = w->groups > 1 ? ci::core::Placement::kCoLocated : ci::core::Placement::kGroupMajor;
  o.num_sessions = 1;
  o.spec.workload.request_timeout = kRequestTimeout;

  perfbench::Verdict verdict;
  std::vector<Metric> e2e, layer;
  std::uint64_t attempted = 0;
  std::uint64_t stream_msgs = 0, stream_bytes = 0;
  perfbench::LayerInputs layer_in;
  {
    const Nanos t_construct = now_nanos();
    ServiceClient svc(o);
    const Nanos t_constructed = now_nanos();
    if (w->generator_core >= 0) {
      pin_generator(w->generator_core, w->generator_core < o.spec.num_replicas);
    }
    Generator gen(*w, svc, static_cast<std::uint64_t>(seed), traced);
    const Nanos t_first = gen.first_op();

    // seq 25 %, peak 30 %, open 25 %, slow 20 % of the measured time.
    gen.seq_phase(T / 4);
    gen.peak_phase(T * 3 / 10);
    gen.open_phase(T / 4);
    gen.slow_phase(T - T / 4 - T * 3 / 10 - T / 4);
    gen.probe();

    perfbench::History& h = gen.history();
    for (int p = kSetup; p < kProbe; ++p) attempted += gen.stats(static_cast<Phase>(p)).attempted;
    h.attempted = attempted;
    verdict = perfbench::check(h);

    const PhaseStats& seq = gen.stats(kSeq);
    const PhaseStats& peak = gen.stats(kPeak);
    const PhaseStats& open = gen.stats(kOpen);
    const auto us = [](double ns) { return ns / 1e3; };
    e2e = {
        {"setup_s", static_cast<double>(t_first - g_process_start) / 1e9, "s"},
        {"seq_p50_us", us(quantile(seq.lat, 0.50)), "us"},
        {"seq_p99_us", us(quantile(seq.lat, 0.99)), "us"},
        {"peak_ops_per_s", peak_rate(peak), "op/s"},
        {"peak_p99_us", us(quantile(peak.lat, 0.99)), "us"},
        {"open_p50_us", us(quantile(open.lat, 0.50)), "us"},
        {"txn_p50_us", us(quantile(seq.txn_lat, 0.50)), "us"},
        {"failover_ms", median(gen.failovers_ms()), "ms"},
    };

    const auto p50_us = [&](const std::vector<Nanos>& v) { return us(quantile(v, 0.50)); };
    layer = {
        {"client.submit_us", p50_us(gen.submit_ns()), "us"},
        {"client.wake_us", p50_us(gen.wake_ns()), "us"},
        {"client.txn_commit_us", p50_us(gen.txn_commit_ns()), "us"},
        {"client.txn_wait_us", p50_us(gen.txn_wait_ns()), "us"},
    };
    for (int p = kSeq; p <= kSlow; ++p) {
      layer.push_back({std::string("client.retargets.") + kPhaseNames[p],
                       static_cast<double>(gen.stats(static_cast<Phase>(p)).retargets),
                       "count"});
    }
    for (int p = kSeq; p <= kSlow; ++p) {
      const PhaseStats& s = gen.stats(static_cast<Phase>(p));
      const double ops = static_cast<double>(std::max<std::uint64_t>(s.completed, 1));
      layer.push_back({std::string("consensus.msgs_per_op.") + kPhaseNames[p],
                       static_cast<double>(s.msgs) / ops, "msg/op"});
      layer.push_back({std::string("consensus.bytes_per_op.") + kPhaseNames[p],
                       static_cast<double>(s.bytes) / ops, "B/op"});
    }
    layer.push_back({"core.construct_ms", static_cast<double>(t_constructed - t_construct) / 1e6,
                     "ms"});
    layer.push_back({"core.first_reply_ms", static_cast<double>(t_first - t_constructed) / 1e6,
                     "ms"});
    layer.push_back({"gen.late_p99_us", us(quantile(gen.late(), 0.99)), "us"});

    std::printf("workload %s seed %lld seconds %lld trace %lld backend %s\n", w->name, seed,
                seconds, trace, ci::core::backend_name(w->backend));
    for (int p = kSetup; p <= kSlow; ++p) {
      const PhaseStats& s = gen.stats(static_cast<Phase>(p));
      std::printf("phase %-5s attempted %llu failed %llu\n", kPhaseNames[p],
                  static_cast<unsigned long long>(s.attempted),
                  static_cast<unsigned long long>(verdict.failed_by_phase[p]));
    }
    // Reported, not gated: on rt-shard-txn it ranged 29-94 us over 5 runs.
    std::printf("open_p99_us %.3f us\n", us(quantile(open.lat, 0.99)));
    std::printf("failover episodes %zu:", gen.failovers_ms().size());
    for (double f : gen.failovers_ms()) std::printf(" %.1f", f);
    std::printf(" ms\n");
    std::printf("check: %s, lost writes %llu, torn pairs %llu, aborts %llu\n",
                verdict.correct ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(verdict.lost_writes),
                static_cast<unsigned long long>(verdict.torn_pairs),
                static_cast<unsigned long long>(verdict.aborts));
    for (const std::string& e : verdict.errors) std::printf("check error: %s\n", e.c_str());

    if (traced) {
      stream_msgs = peak.msgs;
      stream_bytes = peak.bytes;
      for (const KeyOp& op : h.ops) {
        if (layer_in.stream.size() >= (1u << 16)) break;
        if (op.kind == OpKind::kProbe) continue;
        ci::consensus::Command c;
        c.op = op.kind == OpKind::kRead ? Op::kRead : Op::kWrite;
        c.key = op.key;
        c.value = op.value;
        layer_in.stream.push_back(c);
      }
      layer_in.policy = o.spec.engine.batch;
      layer_in.protocol = w->protocol;
      const Tracer& tr = gen.tracer();
      std::printf("trace: %zu spans kept, %llu dropped\n", tr.size(),
                  static_cast<unsigned long long>(tr.dropped()));
      if (!spans_out.empty() && !tr.write(spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      }
    }
  }  // the service shuts down here: the microbenchmarks run on a quiet machine

  if (traced) {
    layer_in.frame_bytes =
        static_cast<std::uint32_t>(stream_bytes / std::max<std::uint64_t>(stream_msgs, 1));
    const perfbench::LayerCosts c = perfbench::measure_layers(layer_in);
    layer.push_back({"consensus.encode_ns", c.encode_batch_ns, "ns"});
    layer.push_back({"consensus.encode_request_ns", c.encode_request_ns, "ns"});
    layer.push_back({"consensus.encode_reply_ns", c.encode_reply_ns, "ns"});
    layer.push_back({"consensus.decode_ns", c.decode_batch_ns, "ns"});
    layer.push_back({"consensus.decode_request_ns", c.decode_request_ns, "ns"});
    layer.push_back({"consensus.decode_reply_ns", c.decode_reply_ns, "ns"});
    layer.push_back({"consensus.batcher_ns", c.batcher_ns, "ns"});
    layer.push_back({"consensus.apply_ns", c.apply_ns, "ns"});
    layer.push_back({"qclt.slot_ns", c.slot_ns, "ns"});
    layer.push_back({"net.reassembly_ns", c.reassembly_ns, "ns"});
  }

  for (const Metric& m : e2e) std::printf("metric %-28s %14.3f %s\n", m.name.c_str(), m.value, m.unit);
  if (traced) {
    for (const Metric& m : layer) {
      std::printf("metric %-28s %14.3f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  print_json(verdict.correct, attempted, verdict.failed(), traced ? layer : e2e);
  return 0;
}
