// kv_store: a Byzantine-tolerant key-value store on real threads.
//
// The paper motivates safe registers with geo-replicated key-value storage
// (Cassandra, Redis; Section I). This example runs ONE five-server BSR
// cluster on the in-memory real-time transport (actual OS threads,
// wall-clock delays) and multiplexes every key over it as a separate shared variable
// (object id) -- the model's "finite set of shared variables" of Section
// II-B. One server is Byzantine throughout. The store is then driven with
// the read-heavy mix from the paper's TAO footnote (99.8% reads), printing
// wall-clock latency percentiles that show why one-shot reads matter.
//
// The whole store runs through a single RegisterClient: the operation
// multiplexer gives every key (object id) and every in-flight operation its
// own lane, so no per-key client pool -- and no provisioning keys up
// front -- is needed.
//
// With `--keys N` the demo is replaced by a bulk phase: N distinct keys are
// loaded through the same single multiplexed client (a window of pipelined
// writes), then a sample is read back through batched one-shot reads. This
// is the "no longer toy scale" mode -- the compact object store keeps the
// per-key server footprint flat, so N=100000 runs in the unit suite.
//
//   ./build/examples/kv_store
//   ./build/examples/kv_store --keys 100000
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adversary/byzantine_server.h"
#include "common/stats.h"
#include "registers/registers.h"
#include "runtime/thread_network.h"
#include "workload/workload.h"

using namespace bftreg;

namespace {

/// One 5-server BSR cluster serving arbitrarily many keys: each key maps
/// to an object id, all served by one multiplexing client.
class KvStore {
 public:
  /// `delay_lo_ns`/`delay_hi_ns` bound the emulated one-way network delay.
  explicit KvStore(uint64_t delay_lo_ns = 50'000,
                   uint64_t delay_hi_ns = 200'000) {
    auto built = registers::SystemConfig::builder().n(5).f(1).build_for_bsr();
    assert(built.ok());
    config_ = built.value();

    runtime::RuntimeConfig rc;
    rc.seed = 7;
    rc.delay = std::make_unique<net::UniformDelay>(delay_lo_ns, delay_hi_ns);
    net_ = std::make_unique<runtime::ThreadNetwork>(std::move(rc));

    for (uint32_t i = 0; i + 1 < config_.n; ++i) {
      servers_.push_back(std::make_unique<registers::RegisterServer>(
          ProcessId::server(i), config_, net_.get(), Bytes{}));
      net_->add_process(ProcessId::server(i), servers_.back().get());
    }
    // The last server is Byzantine: it fabricates tags and values for
    // every key. The f+1 witness rule makes it irrelevant.
    adversary::ServerContext ctx;
    ctx.self = ProcessId::server(4);
    ctx.config = config_;
    ctx.transport = net_.get();
    ctx.rng = Rng(999);
    byzantine_ = std::make_unique<adversary::ByzantineServer>(
        std::move(ctx), adversary::make_strategy(
                            adversary::StrategyKind::kFabricate, 999));
    net_->add_process(ProcessId::server(4), byzantine_.get());

    client_ = std::make_unique<registers::RegisterClient>(
        ProcessId::writer(0), config_, net_.get());
    net_->add_process(client_->id(), client_.get());
    blocking_ = std::make_unique<registers::BlockingRegisterClient>(*client_);
    net_->start();
  }

  ~KvStore() { net_->stop(); }

  void put(const std::string& key, const std::string& value) {
    blocking_->write(object_for(key), Bytes(value.begin(), value.end()));
  }

  std::string get(const std::string& key) {
    const auto r = blocking_->read(object_for(key));
    return std::string(r.value.begin(), r.value.end());
  }

  /// Multi-get: ONE batched one-shot round for any number of keys.
  std::map<std::string, std::string> get_all(
      const std::vector<std::string>& keys) {
    std::vector<uint32_t> objects;
    objects.reserve(keys.size());
    for (const auto& key : keys) objects.push_back(object_for(key));
    const auto batch = blocking_->read_batch(objects);
    std::map<std::string, std::string> out;
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto& v = batch.results.at(i).value;
      out[keys[i]] = std::string(v.begin(), v.end());
    }
    return out;
  }

  size_t keys() const { return objects_.size(); }

  /// Pipelined bulk load: writes "key:i" -> "v<i>" for i in [0, n) keeping
  /// up to `window` writes in flight through the one multiplexed client.
  /// Blocks the calling thread until every write has completed.
  void bulk_load(size_t n, size_t window) {
    // Assign object ids up front so the issue loop below never touches the
    // (non-thread-safe) name table from the client's execution context.
    std::vector<uint32_t> objects(n);
    for (size_t i = 0; i < n; ++i) {
      objects[i] = object_for("key:" + std::to_string(i));
    }
    std::mutex m;
    std::condition_variable cv;
    size_t completed = 0;
    size_t next = 0;
    // Runs only in the client's execution context, so `next` needs no lock:
    // the mailbox serializes the initial burst and every completion callback.
    std::function<void()> issue_one = [&] {
      const size_t i = next++;
      const std::string value = "v" + std::to_string(i);
      client_->write(objects[i], Bytes(value.begin(), value.end()),
                     [&, n](const registers::WriteResult&) {
                       if (next < n) issue_one();
                       std::lock_guard<std::mutex> lock(m);
                       if (++completed == n) cv.notify_one();
                     });
    };
    net_->post(client_->id(), [&, n, window] {
      for (size_t i = 0; i < std::min(window, n); ++i) issue_one();
    });
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return completed == n; });
  }

 private:
  uint32_t object_for(const std::string& key) {
    const auto it = objects_.find(key);
    if (it != objects_.end()) return it->second;
    const auto object = static_cast<uint32_t>(objects_.size());
    objects_.emplace(key, object);
    return object;
  }

  registers::SystemConfig config_;
  std::unique_ptr<runtime::ThreadNetwork> net_;
  std::vector<std::unique_ptr<registers::RegisterServer>> servers_;
  std::unique_ptr<adversary::ByzantineServer> byzantine_;
  std::unique_ptr<registers::RegisterClient> client_;
  std::unique_ptr<registers::BlockingRegisterClient> blocking_;
  std::map<std::string, uint32_t> objects_;
};

/// Bulk mode (--keys N): load N distinct keys, then spot-check a sample
/// with batched one-shot reads. Returns the process exit code.
int run_bulk(size_t n) {
  std::printf(
      "byzantine-tolerant kv store, bulk mode\n"
      "one BSR cluster (n=5, f=1, server 4 Byzantine), %zu keys through one\n"
      "multiplexed client, real threads, 2-10us one-way delays\n\n",
      n);
  // Same-rack delays: bulk mode exists to prove object-count scale, not to
  // re-measure WAN latency (the default demo already does that).
  KvStore store(2'000, 10'000);

  const auto t0 = std::chrono::steady_clock::now();
  store.bulk_load(n, /*window=*/256);
  const double load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("loaded %zu keys in %.2f s (%.0f writes/s)\n", n, load_s,
              static_cast<double>(n) / load_s);

  // Spot-check: one batched one-shot round over a stride of keys must read
  // back exactly what the bulk phase wrote.
  std::vector<std::string> sample;
  const size_t stride = std::max<size_t>(1, n / 64);
  std::vector<size_t> indices;
  for (size_t i = 0; i < n; i += stride) indices.push_back(i);
  for (const size_t i : indices) sample.push_back("key:" + std::to_string(i));
  const auto batch = store.get_all(sample);
  size_t bad = 0;
  for (size_t s = 0; s < indices.size(); ++s) {
    const std::string want = "v" + std::to_string(indices[s]);
    if (batch.at(sample[s]) != want) ++bad;
  }
  std::printf("spot-check: %zu/%zu sampled keys correct (one batched round)\n",
              indices.size() - bad, indices.size());
  if (bad != 0 || store.keys() != n) {
    std::printf("FAILED\n");
    return 1;
  }
  std::printf("\n%zu keys on one cluster: the compact object store keeps the\n"
              "per-key server footprint flat, so key count is no longer the\n"
              "binding constraint -- see docs/PERF.md.\n",
              n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t keys = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--keys") == 0 && i + 1 < argc) {
      keys = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      keys = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--keys N]\n", argv[0]);
      return 2;
    }
  }
  if (keys > 0) return run_bulk(keys);

  std::printf(
      "byzantine-tolerant kv store\n"
      "one BSR cluster (n=5, f=1, server 4 Byzantine), one object id per key,\n"
      "one multiplexed client, real threads, 50-200us one-way delays\n\n");

  KvStore store;

  store.put("user:42", "{\"name\":\"ada\"}");
  store.put("user:43", "{\"name\":\"grace\"}");
  store.put("counter", "0");
  std::printf("get user:42 -> %s\n", store.get("user:42").c_str());
  std::printf("get user:43 -> %s\n", store.get("user:43").c_str());
  std::printf("get counter -> %s\n", store.get("counter").c_str());
  const auto all = store.get_all({"user:42", "user:43", "counter"});
  std::printf("multi-get (%zu keys, one round) -> ok=%d\n\n", all.size(),
              all.at("user:42") == store.get("user:42"));

  // TAO-style read-heavy traffic (99.8% reads, Section I footnote 1)
  // against one hot key.
  auto opts = workload::WorkloadOptions::facebook_tao(500, 48);
  workload::WorkloadGenerator gen(opts);
  Samples read_lat;
  Samples write_lat;
  uint64_t version = 0;
  while (!gen.done()) {
    const auto op = gen.next();
    const auto t0 = std::chrono::steady_clock::now();
    if (op.is_read) {
      (void)store.get("user:42");
    } else {
      store.put("user:42", "v" + std::to_string(version++));
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    (op.is_read ? read_lat : write_lat).add(us);
  }

  std::printf("TAO mix (%zu ops, %.1f%% reads) wall-clock latency per op:\n",
              opts.num_ops, opts.read_ratio * 100);
  std::printf("  reads : n=%zu  median=%.0f us  p99=%.0f us\n", read_lat.count(),
              read_lat.median(), read_lat.p99());
  if (write_lat.count() > 0) {
    std::printf("  writes: n=%zu  median=%.0f us  p99=%.0f us\n",
                write_lat.count(), write_lat.median(), write_lat.p99());
  }
  std::printf("\none-shot reads cost one round trip; writes cost two -- the\n"
              "read-heavy mix is exactly where BSR's trade-off pays off.\n");
  return 0;
}
