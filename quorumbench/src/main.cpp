// quorumbench: the repo's end-to-end benchmark.
//
// One process runs whole clusters, one after another, each over one
// socknet::TcpNetwork on loopback: n servers (on bcsr_byzantine the last one is a Byzantine
// FabricateStrategy server) and four RegisterClients, so every timestamp
// comes from one steady_clock. The calling thread is the single open-loop
// generator. README.md has the workloads and the metric dictionary.
//
//   quorumbench --workload NAME --seed N --seconds S --trace 0|1
//               [--commit ID]
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status 1 when the correctness gate or a validity guard
// fails, 2 on bad usage or a refused build.
#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adversary/byzantine_server.h"
#include "codec/mds_code.h"
#include "crypto/auth.h"
#include "open_loop.h"
#include "percentiles.h"
#include "registers/bcsr.h"
#include "registers/registers.h"
#include "safety.h"
#include "socknet/tcp_network.h"
#include "tracing.h"
#include "workload.h"

namespace bftreg::qb {
namespace {

using registers::ProtocolVariant;

// ----------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  ProtocolVariant variant;
  size_t n;
  size_t f;
  bench::YcsbMix mix;
  bench::KeyDist dist;
  uint32_t keys;
  size_t value_size;
  uint32_t writers;
  uint32_t readers;
  bool byzantine;           // the last server runs FabricateStrategy
  double fixed_rate;        // offered ops/s of the latency phase
  double read_limit_us;     // read p99 limit of the max-rate search
  double write_limit_us;    // write p99 limit of the max-rate search
};

// Why each workload exists is in README.md. The fixed rates sit at or
// below half of the measured max rate on a 4-core host, so latency is
// measured under load but with headroom; the limits are about ten times
// the unloaded medians of each op kind.
const Workload kWorkloads[] = {
    {"bsr_read_heavy", ProtocolVariant::kBsr, 5, 1, bench::kYcsbB,
     bench::KeyDist::kZipfian, 10'000, 128, 1, 3, false, 4'000, 1'500, 3'000},
    {"bsr_write_heavy", ProtocolVariant::kBsr, 5, 1, bench::kYcsbA,
     bench::KeyDist::kUniform, 20'000, 128, 2, 2, false, 2'000, 1'500, 2'500},
    {"bcsr_byzantine", ProtocolVariant::kBcsr, 7, 1, bench::kYcsbA,
     bench::KeyDist::kZipfian, 1'000, 4096, 1, 3, true, 3'000, 2'500, 3'500},
};

/// Every op carries this deadline: a lost frame shows up as timed_out
/// (after two retransmissions) instead of hanging the run.
constexpr TimeNs kOpDeadlineNs = 200'000'000;
const registers::OpOptions kOpOptions{
    kOpDeadlineNs, registers::RetryPolicy{kOpDeadlineNs, 2, 2.0}};

// Clusters set up per run: setup_s is their median, and the fixed-rate
// time is shared among them.
constexpr int kClusters = 8;
constexpr uint32_t kPreloadWindow = 2048;  // preload keys in flight
constexpr double kWarmupSeconds = 0.3;     // per cluster, not measured
// loadgen.lag_p99_us validity bound. Generous: a host that steals the
// generator's core for milliseconds should fail the run, ordinary
// scheduling jitter should not.
constexpr double kLagBoundUs = 20'000;
// Max-rate search: kSearchSteps steps, each kStepOps ops long (so a step's
// p99 rests on enough samples) but within [kStepSeconds, kMaxStepSeconds].
constexpr int kSearchSteps = 7;
constexpr double kStepSeconds = 0.3;
constexpr double kMaxStepSeconds = 1.5;
constexpr double kStepOps = 4000;
// The fixed-rate phase is cut into windows of this length by due time.
// read_p50_us and write_p50_us are this percentile over the windows of each
// window's median. Host interference only ever slows a window, so a low
// percentile reports the program's latency in the windows the host left
// alone, while a change that slows every op still moves it.
constexpr double kWindowSeconds = 1.0;
constexpr double kWindowQuantile = 25;

// Phase ids tag every recorded op.
constexpr uint16_t kPhasePreload = 0;
constexpr uint16_t kPhaseWarmup = 1;
constexpr uint16_t kPhaseFixed = 2;
constexpr uint16_t kPhaseTraced = 3;
constexpr uint16_t kPhaseSearch0 = 100;

// -------------------------------------------------------------------- values

constexpr uint64_t kInitialId = ~uint64_t{0};      // v0, the empty value
constexpr uint64_t kForeignId = ~uint64_t{0} - 1;  // bytes no write wrote

/// The value of write `id`: the id (8 bytes, little-endian), then filler
/// drawn from (seed, id). Every write's bytes differ, and a read's bytes
/// name the write they came from.
Bytes make_value(uint64_t seed, uint64_t id, size_t size) {
  Bytes v(size);
  Rng rng(seed ^ (id * 0x9E3779B97F4A7C15ULL));
  for (size_t i = 0; i < size; i += 8) {
    const uint64_t word = i == 0 ? id : rng.next_u64();
    std::memcpy(v.data() + i, &word, std::min<size_t>(8, size - i));
  }
  return v;
}

uint64_t hash_bytes(BytesView b) {
  uint64_t h = 0x243F6A8885A308D3ULL ^ b.size();
  size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  for (; i < b.size(); ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  return h;
}

uint64_t id_of(BytesView b) {
  if (b.empty()) return kInitialId;
  if (b.size() < 8) return kForeignId;
  uint64_t id;
  std::memcpy(&id, b.data(), 8);
  return id;
}

// ------------------------------------------------------------------- records

enum class Status : uint8_t { kOk, kTimedOut, kWrongRounds };

struct OpRec {
  int64_t due_ns{0};       // intended start, steady clock
  int64_t done_ns{0};      // callback ran, steady clock
  TimeNs invoked{0};       // result.invoked_at, transport clock (checker)
  TimeNs completed{0};     // result.completed_at
  uint64_t value_id{0};    // writes: the id written; reads: id in the bytes
  uint64_t value_hash{0};  // reads: hash of the returned bytes
  uint32_t key{0};
  uint16_t phase{0};
  bool write{false};
  Status status{Status::kOk};
};

struct ClientSlot {
  ClientSlot(ProcessId pid, const registers::SystemConfig& cfg,
             net::Transport* tx, Tracer* tracer, ProtocolVariant variant)
      : client(pid, cfg, tx, registers::ClientOptions{variant, {}}),
        traced(&client, tracer) {}

  registers::RegisterClient client;
  TracedClient traced;
  /// Written only in the client's context; read by the generator thread
  /// after a drain (the completion counter orders the two).
  std::vector<OpRec> recs;
};

/// Runs `fn` in `slot`'s client context and returns its result: the safe
/// way to read a client's counters from outside.
template <typename Fn>
auto on_client(net::Transport& tx, ClientSlot& slot, Fn fn) {
  std::promise<decltype(fn())> p;
  auto fut = p.get_future();
  tx.post(slot.client.id(), [&p, &fn] { p.set_value(fn()); });
  return fut.get();
}

// ------------------------------------------------------------------- preload

/// Bulk loader: writes key k once, with value id k, before the run. A
/// first write's get-tag phase can only return t0, so the loader skips it
/// and runs the put-data phase alone under tag (1, loader): the state a
/// RegisterClient's first write would leave, at half the messages. A key
/// is complete (for the correctness gate) at its (n-f)-th ACK; the preload
/// ends when all n servers have acknowledged every key.
class Loader final : public net::IProcess {
 public:
  Loader(ProcessId self, const Workload& w, const registers::SystemConfig& cfg,
         net::Transport* tx, uint64_t seed)
      : invoked(w.keys, 0),
        responded(w.keys, 0),
        self_(self),
        w_(w),
        cfg_(cfg),
        tx_(tx),
        seed_(seed),
        acks_(w.keys, 0) {
    if (w.variant == ProtocolVariant::kBcsr) {
      code_.emplace(codec::MdsCode::for_bcsr(cfg.n, cfg.f));
    }
  }

  const ProcessId& id() const { return self_; }
  bool done() const {
    return acked_keys_.load(std::memory_order_acquire) == w_.keys;
  }

  /// Loader context: puts the first kPreloadWindow keys in flight; each
  /// fully acknowledged key sends the next.
  void start() {
    for (uint32_t i = 0; i < kPreloadWindow; ++i) send_next();
  }

  void on_message(const net::Envelope& env) override {
    const WirePeek p = peek_wire(env.payload.view());
    if (!p.ok || p.type != static_cast<uint8_t>(registers::MsgType::kAck) ||
        p.op_id == 0 || p.op_id > w_.keys) {
      return;
    }
    const auto key = static_cast<uint32_t>(p.op_id - 1);
    const uint32_t acks = ++acks_[key];
    if (acks == cfg_.quorum()) responded[key] = tx_->now();
    if (acks == cfg_.n) {
      acked_keys_.fetch_add(1, std::memory_order_release);
      send_next();
    }
  }

  /// Per key, transport clock: when its put-data went out and when its
  /// quorum had answered. Read after done().
  std::vector<TimeNs> invoked;
  std::vector<TimeNs> responded;

 private:
  void send_next() {
    if (next_ >= w_.keys) return;
    const uint32_t key = next_++;
    registers::RegisterMessage put;
    put.type = registers::MsgType::kPutData;
    put.op_id = key + 1;
    put.object = key;
    put.tag = Tag{1, self_};
    const Bytes value = make_value(seed_, key, w_.value_size);
    invoked[key] = tx_->now();
    if (code_) {
      const std::vector<Bytes> elements = code_->encode(value);
      for (uint32_t i = 0; i < cfg_.n; ++i) {
        put.value = elements[i];
        tx_->send(self_, ProcessId::server(i), put.encode());
      }
    } else {
      put.value = value;
      const Bytes wire = put.encode();
      for (uint32_t i = 0; i < cfg_.n; ++i) {
        tx_->send(self_, ProcessId::server(i), wire);
      }
    }
  }

  const ProcessId self_;
  const Workload& w_;
  const registers::SystemConfig cfg_;
  net::Transport* const tx_;
  const uint64_t seed_;
  std::optional<codec::MdsCode> code_;
  // Loader context only.
  std::vector<uint8_t> acks_;
  uint32_t next_{0};
  std::atomic<uint32_t> acked_keys_{0};
};

// ------------------------------------------------------------------- cluster

class Cluster {
 public:
  Cluster(const Workload& w, const net::TransportOptions& topts,
          Tracer* tracer, uint64_t seed)
      : net_(socknet::TcpConfig{.options = topts}),
        tx(&net_, tracer),
        cfg(build_config(w, topts)),
        loader(ProcessId::writer(w.writers), w, cfg, &tx, seed) {
    std::vector<Bytes> initial(cfg.n, cfg.initial_value);
    if (w.variant == ProtocolVariant::kBcsr) {
      initial = registers::bcsr_initial_elements(cfg);
    }
    for (uint32_t i = 0; i < cfg.n; ++i) {
      const ProcessId pid = ProcessId::server(i);
      net::IProcess* proc = nullptr;
      if (w.byzantine && i + 1 == cfg.n) {
        adversary::ServerContext ctx{pid, cfg, &tx, initial[i],
                                     Rng(seed ^ 0xB12A7u)};
        byzantine_ = std::make_unique<adversary::ByzantineServer>(
            std::move(ctx), std::make_unique<adversary::FabricateStrategy>());
        proc = byzantine_.get();
      } else {
        honest.push_back(std::make_unique<registers::RegisterServer>(
            pid, cfg, &tx, initial[i]));
        proc = honest.back().get();
      }
      auto traced = std::make_unique<TracedServer>(proc, tracer);
      net_.add_process(pid, traced.get());
      if (proc == byzantine_.get()) {
        byzantine_traced_ = std::move(traced);
      } else {
        honest_traced.push_back(std::move(traced));
      }
    }
    for (uint32_t i = 0; i < w.writers + w.readers; ++i) {
      const ProcessId pid = i < w.writers ? ProcessId::writer(i)
                                          : ProcessId::reader(i - w.writers);
      clients.push_back(
          std::make_unique<ClientSlot>(pid, cfg, &tx, tracer, w.variant));
      net_.add_process(pid, &clients.back()->traced, /*listen=*/false);
    }
    net_.add_process(loader.id(), &loader, /*listen=*/false);
    net_.start();
  }

  ~Cluster() { net_.stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  net::MetricsSnapshot net_metrics() { return net_.metrics().snapshot(); }

 private:
  static registers::SystemConfig build_config(
      const Workload& w, const net::TransportOptions& topts) {
    auto builder = registers::SystemConfig::builder()
                       .n(w.n)
                       .f(w.f)
                       .max_history(1)
                       .server_shards(1)
                       .transport_options(topts);
    auto built = w.variant == ProtocolVariant::kBcsr ? builder.build_for_bcsr()
                                                     : builder.build_for_bsr();
    return built.value();  // every workload satisfies its bound
  }

  socknet::TcpNetwork net_;

 public:
  TracingTransport tx;
  const registers::SystemConfig cfg;
  Loader loader;
  std::vector<std::unique_ptr<registers::RegisterServer>> honest;
  std::vector<std::unique_ptr<TracedServer>> honest_traced;
  std::vector<std::unique_ptr<ClientSlot>> clients;  // writers first

 private:
  std::unique_ptr<adversary::ByzantineServer> byzantine_;
  std::unique_ptr<TracedServer> byzantine_traced_;
};

// -------------------------------------------------------------------- runner

/// CPU placement: the generator, which yields in a loop until each op is
/// due, gets the last CPU of the process's set to itself, and the cluster's
/// threads share the others. Left to the scheduler, the generator competes
/// with whichever cluster thread lands next to it, and a run's latency
/// depends on where its threads happened to land. With fewer than two CPUs
/// nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) != 0 || CPU_COUNT(&all) < 2) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) generator_cpu_ = cpu;
    }
    cluster_ = all;
    CPU_CLR(generator_cpu_, &cluster_);
    CPU_ZERO(&generator_);
    CPU_SET(generator_cpu_, &generator_);
  }

  /// -1 when nothing is pinned.
  int generator_cpu() const { return generator_cpu_; }
  void pin_to_cluster() const { pin(cluster_); }
  void pin_to_generator() const { pin(generator_); }

 private:
  void pin(const cpu_set_t& set) const {
    if (generator_cpu_ >= 0) sched_setaffinity(0, sizeof(set), &set);
  }

  cpu_set_t cluster_;
  cpu_set_t generator_;
  int generator_cpu_{-1};
};

struct PhaseOut {
  uint64_t issued{0};
  int64_t start_ns{0};       // first op due
  int64_t window_end_ns{0};  // no op due at or after this
  int64_t end_ns{0};         // the generator loop returned
  uint64_t backlog_at_end{0};  // ops in flight when the window closed
  bool aborted{false};
  bool drained{false};
  std::vector<double> lag_us;  // sorted post time minus due time, per op
};

using Windows = std::vector<std::vector<double>>;

struct Latencies {
  std::vector<double> read_us;   // sorted; failed ops are kFailed
  std::vector<double> write_us;  // sorted; failed ops are kFailed
  /// The same latencies split into kWindowSeconds windows by due time.
  Windows read_windows;
  Windows write_windows;
  uint64_t ops{0};
  uint64_t failed{0};

  /// Pools another phase's latencies into these; sort() afterwards.
  void append(Latencies&& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    for (auto& w : o.read_windows) read_windows.push_back(std::move(w));
    for (auto& w : o.write_windows) write_windows.push_back(std::move(w));
    ops += o.ops;
    failed += o.failed;
  }
  void sort() {
    std::sort(read_us.begin(), read_us.end());
    std::sort(write_us.begin(), write_us.end());
  }
};

/// Percentile `q` over the windows of each window's percentile `p`.
double windowed(const Windows& windows, double p, double q) {
  std::vector<double> per_window;
  for (std::vector<double> w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(percentile_sorted(w, p));
  }
  std::sort(per_window.begin(), per_window.end());
  return percentile_sorted(per_window, q);
}

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed, const net::TransportOptions& topts)
      : w_(w), seed_(seed), topts_(topts), ycsb_(w.mix, w.dist, w.keys, seed) {}

  /// Builds the cluster and preloads every key; the previous cluster, if
  /// any, is torn down first, outside the timed span. Returns seconds.
  double setup() {
    cluster_.reset();
    // The old cluster's threads are gone, and their malloc arenas would
    // otherwise keep its pages: every setup would add a cluster to rss_mb.
    malloc_trim(0);
    const int64_t t0 = steady_ns();
    // The cluster's threads inherit this thread's CPU set when created.
    placement_.pin_to_cluster();
    cluster_ = std::make_unique<Cluster>(w_, topts_, &tracer_, seed_);
    placement_.pin_to_generator();
    preload();
    return static_cast<double>(steady_ns() - t0) / 1e9;
  }

  Cluster& cluster() { return *cluster_; }
  Tracer& tracer() { return tracer_; }
  int generator_cpu() const { return placement_.generator_cpu(); }
  uint64_t next_id() const { return next_id_; }
  uint64_t in_flight() const {
    return issued_ - completed_.load(std::memory_order_acquire);
  }

  PhaseOut run_phase(uint16_t phase, double rate, double seconds, bool traced,
                     uint64_t abort_backlog = UINT64_MAX) {
    PhaseOut out;
    lag_us_.clear();
    lag_us_.reserve(static_cast<size_t>(rate * seconds) + 16);
    out.start_ns = steady_ns() + 200'000;
    out.window_end_ns = out.start_ns + static_cast<int64_t>(seconds * 1e9);
    out.issued = run_open_loop(
        rate, out.start_ns, out.window_end_ns,
        [&](uint64_t, int64_t due) { issue(phase, due, traced); },
        [&] {
          out.aborted = in_flight() > abort_backlog;
          return out.aborted;
        });
    out.end_ns = steady_ns();
    out.backlog_at_end = in_flight();
    out.lag_us = std::move(lag_us_);
    std::sort(out.lag_us.begin(), out.lag_us.end());
    out.drained = drain(3.0);
    return out;
  }

  /// Latency of every op of `phase`, from its due time. Ops that never
  /// completed (a failed drain) count as failed.
  Latencies collect(uint16_t phase, const PhaseOut& p) const {
    Latencies out;
    const double span = static_cast<double>(p.window_end_ns - p.start_ns);
    const size_t windows = std::max<size_t>(
        1, static_cast<size_t>(std::lround(span / 1e9 / kWindowSeconds)));
    out.read_windows.resize(windows);
    out.write_windows.resize(windows);
    for (const auto& slot : cluster_->clients) {
      for (const OpRec& r : slot->recs) {
        if (r.phase != phase) continue;
        const bool ok = r.status == Status::kOk;
        const double us =
            ok ? static_cast<double>(r.done_ns - r.due_ns) / 1e3 : kFailed;
        (r.write ? out.write_us : out.read_us).push_back(us);
        const auto window = std::min<size_t>(
            windows - 1,
            static_cast<size_t>(static_cast<double>(r.due_ns - p.start_ns) *
                                static_cast<double>(windows) / span));
        (r.write ? out.write_windows : out.read_windows)[window].push_back(us);
        ++out.ops;
        if (!ok) ++out.failed;
      }
    }
    if (p.issued > out.ops) out.failed += p.issued - out.ops;
    std::sort(out.read_us.begin(), out.read_us.end());
    std::sort(out.write_us.begin(), out.write_us.end());
    return out;
  }

  /// Definition 1 per key over every recorded op (all phases), plus the
  /// round-count contract. Returns the number of violating ops and sets
  /// `measured` to how many of them were in measured phases.
  uint64_t check(uint64_t* measured, std::string* first) const {
    std::vector<std::vector<HistOp>> by_key(w_.keys);
    std::vector<std::vector<uint16_t>> phase_of(w_.keys);
    std::unordered_map<uint64_t, uint64_t> expected_hash;
    uint64_t bad = 0;
    *measured = 0;
    std::vector<const std::vector<OpRec>*> sources = {&preload_recs_};
    for (const auto& slot : cluster_->clients) sources.push_back(&slot->recs);
    for (const std::vector<OpRec>* recs : sources) {
      for (const OpRec& r : *recs) {
        if (r.status == Status::kWrongRounds) {
          ++bad;
          if (r.phase >= kPhaseFixed) ++*measured;
          if (first->empty()) *first = "an op used the wrong number of rounds";
        }
        HistOp h;
        h.write = r.write;
        h.invoked = r.invoked;
        h.responded = r.completed;
        h.completed = r.status != Status::kTimedOut;
        h.value = r.value_id;
        if (!r.write) {
          if (!h.completed) continue;  // a timed-out read returns nothing
          if (r.value_id != kInitialId) {
            bool known = r.value_id < next_id_;
            if (known) {
              auto [it, fresh] = expected_hash.try_emplace(r.value_id, 0);
              if (fresh) {
                it->second =
                    hash_bytes(make_value(seed_, r.value_id, w_.value_size));
              }
              known = it->second == r.value_hash;
            }
            if (!known) h.value = kForeignId;
          }
        }
        by_key[r.key].push_back(h);
        phase_of[r.key].push_back(r.phase);
      }
    }
    for (uint32_t k = 0; k < w_.keys; ++k) {
      for (size_t i : safety_violations(by_key[k], kInitialId)) {
        ++bad;
        if (phase_of[k][i] >= kPhaseFixed) ++*measured;
        if (first->empty()) {
          *first = "key " + std::to_string(k) +
                   ": a read returned a value Definition 1 forbids";
        }
      }
    }
    return bad;
  }

 private:
  ClientSlot* writer(uint64_t i) {
    return cluster_->clients[i % w_.writers].get();
  }
  ClientSlot* reader(uint64_t i) {
    return cluster_->clients[w_.writers + i % w_.readers].get();
  }

  /// Runs the cluster's loader until every server has acknowledged every
  /// key, and records each key's preload write for the correctness gate.
  void preload() {
    Loader& loader = cluster_->loader;
    cluster_->tx.post(loader.id(), [&loader] { loader.start(); });
    const int64_t deadline = steady_ns() + 120'000'000'000LL;
    while (!loader.done()) {
      if (steady_ns() > deadline) {
        std::fprintf(stderr, "quorumbench: preload did not finish\n");
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    preload_recs_.clear();
    for (uint32_t key = 0; key < w_.keys; ++key) {
      OpRec rec;
      rec.invoked = loader.invoked[key];
      rec.completed = loader.responded[key];
      rec.value_id = key;
      rec.key = key;
      rec.phase = kPhasePreload;
      rec.write = true;
      preload_recs_.push_back(rec);
    }
    next_id_ = w_.keys;
  }

  void record(ClientSlot& s, const registers::OpResult& r, uint32_t key,
              uint16_t phase, int64_t due, bool write, uint64_t value_id,
              uint64_t value_hash, int rounds) {
    OpRec rec;
    rec.due_ns = due;
    rec.done_ns = steady_ns();
    rec.invoked = r.invoked_at;
    rec.completed = r.completed_at;
    rec.value_id = value_id;
    rec.value_hash = value_hash;
    rec.key = key;
    rec.phase = phase;
    rec.write = write;
    rec.status = r.timed_out            ? Status::kTimedOut
                 : r.rounds != rounds   ? Status::kWrongRounds
                                        : Status::kOk;
    s.recs.push_back(rec);
  }

  /// Generator thread: draws the next YCSB op and posts it to a client.
  void issue(uint16_t phase, int64_t due, bool traced) {
    const bench::YcsbOp op = ycsb_.next();
    const bool write = op.kind != bench::YcsbOpKind::kRead;
    ClientSlot* s = write ? writer(rr_write_++) : reader(rr_read_++);
    const auto key = static_cast<uint32_t>(op.key);
    uint64_t id = 0;
    Bytes value;
    if (write) {
      id = next_id_++;
      value = make_value(seed_, id, w_.value_size);
    }
    const int64_t posted = steady_ns();
    lag_us_.push_back(static_cast<double>(posted - due) / 1e3);
    ++issued_;
    cluster_->tx.post(s->client.id(), [this, s, key, phase, due, posted,
                                       traced, write, id,
                                       value = std::move(value)]() mutable {
      start_op(s, key, phase, due, posted, traced, write, id, std::move(value));
    });
  }

  /// Client context: starts one op; its callback records the outcome.
  void start_op(ClientSlot* s, uint32_t key, uint16_t phase, int64_t due,
                int64_t posted, bool traced, bool write, uint64_t id,
                Bytes value) {
    const OpKind kind = write ? kWrite : kRead;
    uint32_t slot = 0;
    if (traced) {
      s->traced.post_wait_ns[kind].record(
          static_cast<uint64_t>(steady_ns() - posted));
      slot = s->traced.next_slot();
    }
    auto done = [this, s, traced, slot] {
      if (traced) s->traced.mark_done(slot);
      completed_.fetch_add(1, std::memory_order_release);
    };
    auto start = [&] {
      if (write) {
        s->client.write(key, std::move(value), kOpOptions,
                        [this, s, key, phase, due, id,
                         done](const registers::WriteResult& r) {
                          record(*s, r, key, phase, due, true, id, 0, 2);
                          done();
                        });
      } else {
        s->client.read(key, kOpOptions,
                       [this, s, key, phase, due,
                        done](const registers::ReadResult& r) {
                         record(*s, r, key, phase, due, false, id_of(r.value),
                                hash_bytes(r.value), 1);
                         done();
                       });
      }
    };
    if (traced) {
      s->traced.start_traced(kind, start);
    } else {
      start();
    }
  }

  bool drain(double timeout_s) {
    const int64_t deadline =
        steady_ns() + static_cast<int64_t>(timeout_s * 1e9);
    while (in_flight() > 0 && steady_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return in_flight() == 0;
  }

  const Workload& w_;
  const uint64_t seed_;
  const net::TransportOptions topts_;
  Placement placement_;
  Tracer tracer_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<OpRec> preload_recs_;
  bench::YcsbWorkload ycsb_;
  // Generator thread only.
  uint64_t next_id_{0};
  uint64_t issued_{0};
  uint64_t rr_read_{0};
  uint64_t rr_write_{0};
  std::vector<double> lag_us_;
  std::atomic<uint64_t> completed_{0};
};

// ------------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_latency(const char* what, const std::vector<double>& sorted) {
  const double p = highest_supported_percentile(sorted.size());
  std::printf("  %-5s n=%zu  p50=%.1f us  p99=%.1f us  highest supported "
              "p%.3f=%.1f us\n",
              what, sorted.size(), percentile_sorted(sorted, 50),
              percentile_sorted(sorted, 99), p,
              p > 0 ? percentile_sorted(sorted, p) : 0.0);
}

/// The spread of per-window medians: a host episode shows as a high max.
void print_windows(const char* what, const Windows& windows) {
  std::printf("  %-5s p50 over %zu windows: min %.1f  p10 %.1f  p25 %.1f  "
              "median %.1f  max %.1f us\n",
              what, windows.size(), windowed(windows, 50, 0),
              windowed(windows, 50, 10), windowed(windows, 50, 25),
              windowed(windows, 50, 50), windowed(windows, 50, 100));
}

/// Highest offered rate whose step keeps read and write p99 under their
/// limits with no failed op and no runaway backlog. Starts at 3x the fixed
/// rate and doubles (or halves) until one rate passes and one fails, then
/// bisects geometrically for the rest of the kSearchSteps decisions. A
/// failing step is run once more before the rate counts as failed, so one
/// scheduling hiccup of the host does not end the search early.
double search_max_rate(Runner& run, const Workload& w, uint64_t* attempted,
                       uint64_t* failed) {
  double lo = 0;
  double hi = 0;
  double rate = w.fixed_rate * 3;
  bool retried = false;
  uint16_t phase = kPhaseSearch0;
  for (int step = 0, decisions = 0; decisions < kSearchSteps;
       ++step, ++phase) {
    if (lo > 0 && hi > 0) {
      if (hi / lo < 1.01) break;
      rate = std::sqrt(lo * hi);
    }
    // Stop issuing once the backlog holds eight limits' worth of offered
    // load: the step has failed, and more load only delays the next one.
    const auto abort_at =
        static_cast<uint64_t>(rate * w.write_limit_us * 8 / 1e6) + 64;
    const double step_s =
        std::clamp(kStepOps / rate, kStepSeconds, kMaxStepSeconds);
    const PhaseOut p = run.run_phase(phase, rate, step_s, false, abort_at);
    const Latencies l = run.collect(phase, p);
    *attempted += p.issued;
    *failed += l.failed;
    const double r99 = percentile_sorted(l.read_us, 99);
    const double w99 = percentile_sorted(l.write_us, 99);
    const bool pass = !p.aborted && p.drained && l.failed == 0 &&
                      r99 <= w.read_limit_us && w99 <= w.write_limit_us;
    std::printf("  search step %d: %.0f ops/s  read p99 %.0f us  write p99 "
                "%.0f us  %s\n",
                step, rate, r99, w99, pass ? "pass" : "fail");
    if (!pass && !retried) {
      retried = true;
      continue;
    }
    retried = false;
    ++decisions;
    if (pass) {
      lo = rate;
      if (hi == 0) rate *= 2;
    } else {
      hi = rate;
      if (lo == 0) rate /= 2;
    }
  }
  if (lo == 0) {
    // Nothing passed: report the lowest rate tried so the metric stays
    // positive; the run says so.
    std::printf("  search: no step passed; reporting the lowest rate tried\n");
    return hi;
  }
  return lo;
}

/// Keeps timed loops from being optimized away.
volatile uint64_t g_sink = 0;

/// Mean ns per Authenticator::seal over the traced payload-size mix.
double time_seal(const std::vector<size_t>& sizes) {
  crypto::Authenticator auth(
      crypto::KeyRegistry(socknet::TcpConfig{}.master_secret));
  const ProcessId from = ProcessId::reader(0);
  const ProcessId to = ProcessId::server(0);
  auth.precompute({from, to});
  size_t max_size = 1;
  for (size_t s : sizes) max_size = std::max(max_size, s);
  const Bytes buf(max_size, 0x5a);
  std::vector<double> per_seal;
  for (int rep = 0; rep < 7; ++rep) {
    uint64_t sink = 0;
    const int64_t t0 = steady_ns();
    for (size_t s : sizes) sink ^= auth.seal(from, to, BytesView(buf.data(), s));
    per_seal.push_back(static_cast<double>(steady_ns() - t0) /
                       static_cast<double>(sizes.size()));
    g_sink = sink;
  }
  return median_of(per_seal);
}

struct CodecTimes {
  double encode_us{0};
  double decode_clean_us{0};
  double decode_stale_us{0};
};

/// Direct MdsCode timings on the workload's own values: encode one write;
/// decode the n-f honest elements; decode a quorum holding one stale
/// same-size element and the Byzantine server's junk one.
CodecTimes time_codec(const Workload& w, uint64_t seed, uint64_t first_id) {
  const codec::MdsCode code = codec::MdsCode::for_bcsr(w.n, w.f);
  Rng rng(seed ^ 0xC0DEu);
  std::vector<double> enc, clean, stale;
  bool all_decoded = true;
  for (uint64_t i = 0; i < 200; ++i) {
    const Bytes value = make_value(seed, first_id + i, w.value_size);
    const Bytes older = make_value(seed, first_id + i + 1000, w.value_size);
    int64_t t0 = steady_ns();
    const std::vector<Bytes> el = code.encode(value);
    enc.push_back(static_cast<double>(steady_ns() - t0) / 1e3);
    const std::vector<Bytes> old_el = code.encode(older);

    std::vector<std::optional<Bytes>> quorum(w.n);
    for (size_t j = 0; j + w.f < w.n; ++j) quorum[j] = el[j];
    t0 = steady_ns();
    const auto a = code.decode(quorum);
    clean.push_back(static_cast<double>(steady_ns() - t0) / 1e3);

    // n - f responses: n - f - 2 current elements, one stale, and the
    // Byzantine server's junk in the last position.
    std::vector<std::optional<Bytes>> mixed(w.n);
    for (size_t j = 0; j + w.f + 2 < w.n; ++j) mixed[j] = el[j];
    mixed[w.n - w.f - 2] = old_el[w.n - w.f - 2];
    Bytes junk(16 + rng.uniform(48));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    mixed[w.n - 1] = junk;
    t0 = steady_ns();
    const auto b = code.decode(mixed);
    stale.push_back(static_cast<double>(steady_ns() - t0) / 1e3);
    all_decoded = all_decoded && a && *a == value && b && *b == value;
  }
  if (!all_decoded) std::printf("  codec: a direct decode lost the value\n");
  return {median_of(enc), median_of(clean), median_of(stale)};
}

// ---------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed{1};
  double seconds{10};
  int trace{0};
  std::string commit{"unknown"};
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
      } else if (k == "--trace") {
        a->trace = std::stoi(v);
      } else if (k == "--commit") {
        a->commit = v;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

/// Timings from a Debug or sanitizer build would not describe the program.
const char* refused_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimized (Debug) build";
#else
  return std::string(QB_BUILD_TYPE) == "Debug" ? "Debug build" : nullptr;
#endif
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "quorumbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;

  // Thread budget: loop shards + mailbox consumers + this generator thread
  // stay within nproc (1 + 2 + 1 on a 4-core host).
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  net::TransportOptions topts;
  topts.loop_shards = 1;
  topts.mailbox_shards = nproc > 3 ? nproc - 2 : 1;
  // The generator sleeps until each op is due; the default 50 us timer
  // slack would show up as lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  Runner run(w, args.seed, topts);
  std::printf("run_record {\"workload\": \"%s\", \"seed\": %llu, \"trace\": "
              "%d, \"seconds\": %g, \"nproc\": %u, \"loop_shards\": %zu, "
              "\"mailbox_shards\": %zu, \"server_shards\": 1, "
              "\"generator_threads\": 1, \"generator_cpu\": %d, "
              "\"clusters\": %d, \"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              w.name, static_cast<unsigned long long>(args.seed), args.trace,
              args.seconds, nproc, topts.loop_shards, topts.mailbox_shards,
              run.generator_cpu(), kClusters, QB_BUILD_TYPE,
              args.commit.c_str());
  std::printf("cluster: %s n=%zu f=%zu%s, %u writer(s) + %u reader(s), %s %s "
              "over %u keys, %zu B values, fixed rate %.0f ops/s, p99 limits "
              "%.0f us read, %.0f us write\n",
              w.variant == ProtocolVariant::kBcsr ? "BCSR" : "BSR", w.n, w.f,
              w.byzantine ? " (last server Byzantine: fabricate)" : "",
              w.writers, w.readers, w.mix.name, bench::to_string(w.dist),
              w.keys, w.value_size, w.fixed_rate, w.read_limit_us,
              w.write_limit_us);

  std::vector<std::string> invalid;
  // Validity guards on a fixed-rate phase: the generator kept to its
  // schedule, and the cluster kept up with it.
  auto guard = [&](const PhaseOut& p, const char* name) {
    const double lag_p99 = percentile_sorted(p.lag_us, 99);
    if (lag_p99 > kLagBoundUs) {
      invalid.push_back(std::string(name) + ": generator lag p99 " +
                        std::to_string(lag_p99) + " us is over the bound");
    }
    const auto bound = static_cast<uint64_t>(w.fixed_rate * 0.05) + 64;
    if (p.backlog_at_end > bound || !p.drained) {
      invalid.push_back(std::string(name) + ": backlog grew to " +
                        std::to_string(p.backlog_at_end) + " ops");
    }
  };
  auto net_guard = [&](const net::MetricsSnapshot& m) {
    if (!w.byzantine && (m.messages_dropped != 0 || m.auth_failures != 0)) {
      invalid.push_back("frames dropped or MAC failures on an honest cluster");
    }
  };

  // The untraced run spends all of --seconds at the fixed rate; the traced
  // run splits it between an untraced and a traced fixed-rate phase. The
  // fixed-rate time is shared among the kClusters clusters the run sets up,
  // and their windows are pooled: a cluster whose threads or memory landed
  // badly is one of several, not the whole run. Each cluster but the last
  // passes the correctness gate before it is torn down.
  const double half = args.seconds / 2;
  const double fixed_s = args.trace == 0 ? args.seconds : half;
  std::vector<double> setup_s;
  Latencies lat;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wire_bytes = 0;
  uint64_t violations = 0;
  std::string first;
  for (int i = 0; i < kClusters; ++i) {
    setup_s.push_back(run.setup());
    (void)run.run_phase(kPhaseWarmup, w.fixed_rate, kWarmupSeconds, false);
    const net::MetricsSnapshot m0 = run.cluster().net_metrics();
    const PhaseOut fixed = run.run_phase(kPhaseFixed, w.fixed_rate,
                                         fixed_s / kClusters, false);
    const net::MetricsSnapshot m1 = run.cluster().net_metrics();
    Latencies l = run.collect(kPhaseFixed, fixed);
    std::printf("cluster %d: setup %.3f s, %llu ops at the fixed rate, read "
                "p50 %.1f us, write p50 %.1f us\n",
                i, setup_s.back(),
                static_cast<unsigned long long>(fixed.issued),
                percentile_sorted(l.read_us, 50),
                percentile_sorted(l.write_us, 50));
    guard(fixed, "fixed-rate phase");
    attempted += fixed.issued;
    failed += l.failed;
    wire_bytes += m1.bytes_sent - m0.bytes_sent;
    lat.append(std::move(l));
    if (i + 1 < kClusters) {
      net_guard(m1);
      uint64_t measured = 0;
      violations += run.check(&measured, &first);
      failed += measured;
    }
  }
  Cluster& c = run.cluster();
  lat.sort();
  std::printf("fixed-rate phase: %llu ops in %.2f s over %d clusters\n",
              static_cast<unsigned long long>(attempted), fixed_s, kClusters);
  print_latency("read", lat.read_us);
  print_latency("write", lat.write_us);
  print_windows("read", lat.read_windows);
  print_windows("write", lat.write_windows);

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const double completed = static_cast<double>(lat.ops - lat.failed);
    double stored = 0;
    for (const auto& s : c.honest) {
      stored += static_cast<double>(s->stored_bytes());
    }
    metrics = {
        {"read_p50_us", windowed(lat.read_windows, 50, kWindowQuantile),
         "us"},
        {"write_p50_us", windowed(lat.write_windows, 50, kWindowQuantile),
         "us"},
        {"wire_bytes_per_op", static_cast<double>(wire_bytes) / completed,
         "B"},
        {"stored_bytes_per_value_byte",
         stored / (static_cast<double>(w.keys) *
                   static_cast<double>(w.value_size)),
         "ratio"},
        {"rss_mb", peak_rss_mb(), "MiB"},
        {"setup_s", median_of(setup_s), "s"},
    };
  } else {
    Tracer& tr = run.tracer();
    auto client_sum = [&](auto get) {
      uint64_t total = 0;
      for (const auto& s : c.clients) {
        total += on_client(c.tx, *s, [&] { return get(s->client); });
      }
      return total;
    };
    auto retransmits = [](registers::RegisterClient& cl) {
      return cl.retransmits();
    };
    auto decode_failures = [](registers::RegisterClient& cl) {
      return cl.decode_failures();
    };
    auto puts = [&] {
      uint64_t total = 0;
      for (const auto& s : c.honest) total += s->puts_applied();
      return total;
    };
    const uint64_t rt0 = client_sum(retransmits);
    const uint64_t df0 = client_sum(decode_failures);
    const uint64_t puts0 = puts();
    const net::MetricsSnapshot t0m = c.net_metrics();
    tr.set(true);
    const PhaseOut traced =
        run.run_phase(kPhaseTraced, w.fixed_rate, half, true);
    tr.set(false);
    const net::MetricsSnapshot t1m = c.net_metrics();
    const auto wall_ns = static_cast<double>(traced.end_ns - traced.start_ns);
    const Latencies tl = run.collect(kPhaseTraced, traced);
    attempted += traced.issued;
    failed += tl.failed;
    guard(traced, "traced phase");
    std::printf("traced phase: %llu ops\n",
                static_cast<unsigned long long>(traced.issued));
    print_latency("read", tl.read_us);
    print_latency("write", tl.write_us);

    const auto ops = static_cast<double>(tl.ops - tl.failed);
    const auto writes = static_cast<double>(tl.write_us.size());
    std::array<LogHist, 2> post_wait, invoke, reply;  // by OpKind
    uint64_t replies = 0;
    uint64_t useful = 0;
    for (const auto& s : c.clients) {
      for (size_t k = 0; k < 2; ++k) {
        post_wait[k].merge_from(s->traced.post_wait_ns[k]);
        invoke[k].merge_from(s->traced.invoke_ns[k]);
        reply[k].merge_from(s->traced.reply_ns[k]);
      }
      replies += s->traced.replies.load();
      useful += s->traced.useful_replies.load();
    }
    LogHist query, put, batch_end;
    uint64_t batches = 0;
    uint64_t batched = 0;
    double busiest = 0;
    for (const auto& s : c.honest_traced) {
      query.merge_from(s->query_ns);
      put.merge_from(s->put_ns);
      batch_end.merge_from(s->batch_end_ns);
      batches += s->batches.load();
      batched += s->batched_msgs.load();
      busiest = std::max(busiest,
                         static_cast<double>(s->busy_ns.load()) / wall_ns);
    }
    double stored = 0;
    double objects = 0;
    for (const auto& s : c.honest) {
      stored += static_cast<double>(s->stored_bytes());
      objects += static_cast<double>(s->objects_known());
    }
    const net::MetricsSnapshot end = c.net_metrics();
    CodecTimes codec;
    if (w.variant == ProtocolVariant::kBcsr) {
      codec = time_codec(w, args.seed, run.next_id());
    }
    auto us = [](const LogHist& h, double p) { return h.percentile(p) / 1e3; };
    auto both = [](const std::array<LogHist, 2>& h) {
      LogHist all;
      all.merge_from(h[kRead]);
      all.merge_from(h[kWrite]);
      return all.percentile(50) / 1e3;
    };

    // The blocking path of a read, stage by stage (medians, us).
    const auto q = static_cast<uint8_t>(registers::MsgType::kQueryData);
    const auto d = static_cast<uint8_t>(registers::MsgType::kDataResp);
    const std::vector<double> stages = {
        percentile_sorted(traced.lag_us, 50), us(post_wait[kRead], 50),
        us(invoke[kRead], 50),                us(tr.transit.by_type(q), 50),
        us(query, 50),                        us(tr.transit.by_type(d), 50),
        us(reply[kRead], 50),
    };
    const double traced_read_p50 = percentile_sorted(tl.read_us, 50);
    std::printf("  read ledger (p50 us): lag %.1f, post wait %.1f, invoke "
                "%.1f, request transit %.1f, server query %.1f, reply "
                "transit %.1f, reply handling %.1f; read p50 %.1f\n",
                stages[0], stages[1], stages[2], stages[3], stages[4],
                stages[5], stages[6], traced_read_p50);

    metrics = {
        {"loadgen.lag_p99_us", percentile_sorted(traced.lag_us, 99), "us"},
        {"registers.client.post_wait_p50_us", both(post_wait), "us"},
        {"registers.client.invoke_p50_us", both(invoke), "us"},
        {"registers.client.reply_p50_us", both(reply), "us"},
        {"registers.client.replies_per_op",
         static_cast<double>(replies) / ops, "count"},
        {"registers.client.useful_reply_ratio",
         replies ? static_cast<double>(useful) / static_cast<double>(replies)
                 : 0.0,
         "ratio"},
        {"registers.client.retransmits_per_kop",
         static_cast<double>(client_sum(retransmits) - rt0) * 1e3 / ops,
         "count"},
        {"registers.client.decode_failures_per_kop",
         static_cast<double>(client_sum(decode_failures) - df0) * 1e3 / ops,
         "count"},
        {"socknet.send_p50_ns", tr.send_ns.percentile(50), "ns"},
        {"socknet.msgs_per_op",
         static_cast<double>(t1m.messages_sent - t0m.messages_sent) / ops,
         "count"},
        {"socknet.transit_p50_us", us(tr.transit.all(), 50), "us"},
        {"socknet.transit_p99_us", us(tr.transit.all(), 99), "us"},
        {"socknet.dropped", static_cast<double>(end.messages_dropped),
         "count"},
        {"socknet.mailbox_overflows",
         static_cast<double>(end.mailbox_overflows), "count"},
        {"socknet.auth_failures", static_cast<double>(end.auth_failures),
         "count"},
        {"crypto.seal_ns", time_seal(tr.sizes()), "ns"},
        {"registers.server.query_p50_us", us(query, 50), "us"},
        {"registers.server.busy_frac", busiest, "ratio"},
        {"registers.server.put_p50_us", us(put, 50), "us"},
        {"registers.server.batch_end_p50_us", us(batch_end, 50), "us"},
        {"registers.server.msgs_per_batch",
         batches ? static_cast<double>(batched) / static_cast<double>(batches)
                 : 0.0,
         "count"},
        {"registers.store.bytes_per_object",
         objects > 0 ? stored / objects : 0.0, "B"},
        {"registers.store.objects",
         objects / static_cast<double>(c.honest.size()), "count"},
        {"registers.store.puts_per_write",
         writes > 0 ? static_cast<double>(puts() - puts0) / writes : 0.0,
         "count"},
        {"codec.encode_us", codec.encode_us, "us"},
        {"codec.decode_clean_us", codec.decode_clean_us, "us"},
        {"codec.decode_stale_us", codec.decode_stale_us, "us"},
        {"trace.coverage", coverage(stages, traced_read_p50), "ratio"},
        {"trace.overhead",
         traced_read_p50 / percentile_sorted(lat.read_us, 50), "ratio"},
    };
  }

  // Tail latency and the max rate are reported only with the per-layer
  // metrics, which carry no regression bound: on a shared virtual host
  // their run-to-run spread is wider than any bound an end-to-end gate
  // could hold. The untraced run prints its p99s above.
  if (args.trace == 1) {
    const double max_rate = search_max_rate(run, w, &attempted, &failed);
    metrics.push_back(
        {"read_p99_us", percentile_sorted(lat.read_us, 99), "us"});
    metrics.push_back(
        {"write_p99_us", percentile_sorted(lat.write_us, 99), "us"});
    metrics.push_back({"max_rate_ops_s", max_rate, "1/s"});
  }

  net_guard(c.net_metrics());
  uint64_t measured_violations = 0;
  violations += run.check(&measured_violations, &first);
  failed += measured_violations;
  std::printf("correctness gate: %llu violation(s) over every recorded op%s%s\n",
              static_cast<unsigned long long>(violations),
              first.empty() ? "" : "; first: ", first.c_str());
  const double fail_ratio = static_cast<double>(failed) /
                            static_cast<double>(std::max<uint64_t>(1, attempted));
  std::printf("op_fail_ratio = %.6g (%llu of %llu)\n", fail_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (args.trace == 1) metrics.push_back({"op_fail_ratio", fail_ratio, "ratio"});

  std::string json = "{\"correct\": " +
                     std::string(violations == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %s = %.10g %s\n", m.name.c_str(), m.value, m.unit);
    if (!std::isfinite(m.value)) {
      invalid.push_back(m.name + " is not finite (failed ops in a percentile)");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : -1.0, m.unit);
    json += buf;
  }
  json += "}}";
  for (const std::string& why : invalid) {
    std::printf("INVALID: %s\n", why.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return violations == 0 && invalid.empty() ? 0 : 1;
}

}  // namespace
}  // namespace bftreg::qb

int main(int argc, char** argv) {
  using namespace bftreg::qb;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: quorumbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit ID]\n");
    return 2;
  }
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "quorumbench: refusing to report from a %s\n", why);
    return 2;
  }
  return run(args);
}
