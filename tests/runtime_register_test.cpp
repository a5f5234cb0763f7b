// End-to-end register protocols on the REAL-TIME thread runtime: the same
// state machines that the simulator tests exercise, now on OS threads with
// wall-clock delays -- validating the central design decision that protocol
// code is transport-agnostic (DESIGN.md §6.1).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/thread_cluster.h"
#include "registers/registers.h"
#include "runtime/thread_network.h"

namespace bftreg::registers {
namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// A full BSR deployment over ThreadNetwork.
class RuntimeBsr {
 public:
  RuntimeBsr(size_t n, size_t f, TimeNs delay_lo = 0, TimeNs delay_hi = 0,
             size_t server_shards = 1) {
    runtime::RuntimeConfig rc;
    rc.seed = 11;
    if (delay_hi > 0) {
      rc.delay = std::make_unique<net::UniformDelay>(delay_lo, delay_hi);
    }
    net_ = std::make_unique<runtime::ThreadNetwork>(std::move(rc));
    config_.n = n;
    config_.f = f;
    config_.server_shards = server_shards;
    for (uint32_t i = 0; i < n; ++i) {
      servers_.push_back(std::make_unique<RegisterServer>(ProcessId::server(i),
                                                          config_, net_.get(),
                                                          Bytes{}));
      net_->add_process(ProcessId::server(i), servers_.back().get());
    }
  }

  ~RuntimeBsr() { net_->stop(); }

  void add_writer(uint32_t i) {
    writers_.push_back(std::make_unique<RegisterClient>(ProcessId::writer(i),
                                                        config_, net_.get()));
    net_->add_process(ProcessId::writer(i), writers_.back().get());
  }
  void add_reader(uint32_t i) {
    readers_.push_back(std::make_unique<RegisterClient>(ProcessId::reader(i),
                                                        config_, net_.get()));
    net_->add_process(ProcessId::reader(i), readers_.back().get());
  }
  void start() { net_->start(); }

  WriteResult write(size_t w, Bytes value, uint32_t object = 0) {
    return BlockingRegisterClient(*writers_[w]).write(object, std::move(value));
  }

  ReadResult read(size_t r) { return BlockingRegisterClient(*readers_[r]).read(0); }
  BatchReadResult read_batch(size_t r, std::span<const uint32_t> objects) {
    return BlockingRegisterClient(*readers_[r]).read_batch(objects);
  }

  /// The delivery shard that owns `object` (the same on every server).
  uint32_t shard_of(uint32_t object) const {
    RegisterMessage q;
    q.type = MsgType::kQueryData;
    q.object = object;
    net::Envelope env;
    env.payload = Payload(q.encode());
    return servers_.front()->shard_of(env);
  }

  runtime::ThreadNetwork& net() { return *net_; }

 private:
  SystemConfig config_;
  std::unique_ptr<runtime::ThreadNetwork> net_;
  std::vector<std::unique_ptr<RegisterServer>> servers_;
  std::vector<std::unique_ptr<RegisterClient>> writers_;
  std::vector<std::unique_ptr<RegisterClient>> readers_;
};

TEST(RuntimeRegisterTest, WriteThenReadOnRealThreads) {
  RuntimeBsr cluster(5, 1);
  cluster.add_writer(0);
  cluster.add_reader(0);
  cluster.start();
  const auto w = cluster.write(0, val("threads"));
  EXPECT_EQ(w.tag.num, 1u);
  EXPECT_EQ(cluster.read(0).value, val("threads"));
}

TEST(RuntimeRegisterTest, SurvivesCrashedServerOnThreads) {
  RuntimeBsr cluster(5, 1);
  cluster.add_writer(0);
  cluster.add_reader(0);
  cluster.start();
  cluster.net().mark_crashed(ProcessId::server(2));
  cluster.write(0, val("minus-one"));
  EXPECT_EQ(cluster.read(0).value, val("minus-one"));
}

TEST(RuntimeRegisterTest, SequentialWritesReadLatest) {
  RuntimeBsr cluster(5, 1, 10'000, 100'000);  // 10-100us delays
  cluster.add_writer(0);
  cluster.add_reader(0);
  cluster.start();
  for (int i = 0; i < 10; ++i) {
    cluster.write(0, val("gen" + std::to_string(i)));
    EXPECT_EQ(cluster.read(0).value, val("gen" + std::to_string(i)));
  }
}

TEST(RuntimeRegisterTest, ConcurrentClientsFromDifferentThreads) {
  // Two writer client threads and two reader client threads hammer the
  // register concurrently; every read must return some written value or
  // v0 (validity) -- checked inline.
  RuntimeBsr cluster(5, 1);
  cluster.add_writer(0);
  cluster.add_writer(1);
  cluster.add_reader(0);
  cluster.add_reader(1);
  cluster.start();

  std::vector<Bytes> legal;
  legal.push_back({});  // v0
  for (int i = 0; i < 40; ++i) legal.push_back(val("w" + std::to_string(i)));

  std::atomic<int> next{0};
  auto writer_thread = [&](size_t w) {
    for (int i = 0; i < 20; ++i) {
      cluster.write(w, legal[static_cast<size_t>(1 + next.fetch_add(1))]);
    }
  };
  std::atomic<bool> ok{true};
  auto reader_thread = [&](size_t r) {
    for (int i = 0; i < 20; ++i) {
      const auto res = cluster.read(r);
      bool found = false;
      for (const auto& v : legal) found = found || v == res.value;
      if (!found) ok.store(false);
    }
  };
  std::thread tw0(writer_thread, 0);
  std::thread tw1(writer_thread, 1);
  std::thread tr0(reader_thread, 0);
  std::thread tr1(reader_thread, 1);
  tw0.join();
  tw1.join();
  tr0.join();
  tr1.join();
  EXPECT_TRUE(ok.load());
}

TEST(RuntimeRegisterTest, ShardedServersOnRealThreads) {
  // Each server runs 4 delivery shards (4 mailbox threads apiece): the
  // envelope-peek routing and the mutex-guarded per-shard object tables
  // all run on real OS threads here, not just the simulator.
  RuntimeBsr cluster(5, 1, 0, 0, /*server_shards=*/4);
  cluster.add_writer(0);
  cluster.add_writer(1);
  cluster.add_reader(0);
  cluster.start();
  for (int i = 0; i < 8; ++i) {
    const auto v = val("shard" + std::to_string(i));
    cluster.write(static_cast<size_t>(i % 2), v);
    EXPECT_EQ(cluster.read(0).value, v);
  }
}

TEST(RuntimeRegisterTest, CrossShardBatchReadsRaceOwnerWrites) {
  // QUERY-DATA-BATCH runs on the shard that owns the request's header
  // object and reads every other object from its owner's store, under
  // that shard's mutex, while the owner's thread applies PUT-DATAs. Two
  // writers update objects on every shard while a reader batch-reads them
  // all. Each answer must be v0 or a pair some write produced -- never a
  // tag paired with another write's value -- and no object's tag may go
  // backwards across the reader's batches. Run under the tsan preset,
  // this is also the data-race check for the cross-shard path.
  constexpr size_t kShards = 4;
  constexpr uint32_t kObjects = 16;
  constexpr int kWritesPerWriter = 96;
  RuntimeBsr cluster(5, 1, 0, 0, kShards);
  cluster.add_writer(0);
  cluster.add_writer(1);
  cluster.add_reader(0);
  cluster.start();

  std::vector<uint32_t> objects(kObjects);
  std::set<uint32_t> shards;
  for (uint32_t o = 0; o < kObjects; ++o) {
    objects[o] = o;
    shards.insert(cluster.shard_of(o));
  }
  ASSERT_EQ(shards.size(), kShards) << "objects must span every shard";

  // Values alternate between inline (<= 16 B) and slab-backed lengths.
  auto value_of = [](size_t w, uint32_t object, int i) {
    std::string v = "w" + std::to_string(w) + "/o" + std::to_string(object) +
                    "/" + std::to_string(i);
    if (i % 2 == 1) v.resize(48, '.');
    return val(v);
  };
  // (object, tag) -> value, filled in by each writer; merged after join.
  using Written = std::map<std::pair<uint32_t, Tag>, Bytes>;
  std::vector<Written> written(2);
  std::atomic<int> writers_done{0};
  auto writer_thread = [&](size_t w) {
    for (int i = 0; i < kWritesPerWriter; ++i) {
      const uint32_t object = objects[static_cast<size_t>(i) % kObjects];
      Bytes v = value_of(w, object, i);
      const Tag tag = cluster.write(w, v, object).tag;
      written[w].emplace(std::make_pair(object, tag), std::move(v));
    }
    writers_done.fetch_add(1);
  };

  std::vector<std::tuple<uint32_t, Tag, Bytes>> seen;
  int backwards = 0;
  std::thread tw0(writer_thread, 0);
  std::thread tw1(writer_thread, 1);
  std::vector<Tag> last(kObjects, Tag::initial());
  for (int batches = 0; batches < 8 || writers_done.load() < 2; ++batches) {
    const BatchReadResult batch = cluster.read_batch(0, objects);
    EXPECT_EQ(batch.results.size(), kObjects);  // no ASSERT: writers run
    for (uint32_t o = 0; o < kObjects && o < batch.results.size(); ++o) {
      const ReadResult& r = batch.results[o];
      if (r.tag < last[o]) ++backwards;
      last[o] = r.tag;
      seen.emplace_back(o, r.tag, r.value);
    }
  }
  tw0.join();
  tw1.join();
  EXPECT_EQ(backwards, 0);

  written[0].merge(written[1]);
  size_t fresh = 0;
  for (const auto& [object, tag, value] : seen) {
    if (tag == Tag::initial()) {
      EXPECT_EQ(value, Bytes{}) << "object " << object;
      continue;
    }
    const auto it = written[0].find({object, tag});
    ASSERT_NE(it, written[0].end()) << "object " << object << " tag " << tag.num;
    EXPECT_EQ(value, it->second) << "object " << object << " tag " << tag.num;
    ++fresh;
  }
  EXPECT_GT(fresh, 0u);
}

TEST(RuntimeRegisterTest, BcsrDecodesOnRealThreads) {
  runtime::RuntimeConfig rc;
  rc.seed = 13;
  runtime::ThreadNetwork net(std::move(rc));
  SystemConfig cfg;
  cfg.n = 6;
  cfg.f = 1;
  const auto initial = bcsr_initial_elements(cfg);
  std::vector<std::unique_ptr<RegisterServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<RegisterServer>(ProcessId::server(i), cfg,
                                                       &net, initial[i]));
    net.add_process(ProcessId::server(i), servers.back().get());
  }
  const ClientOptions bcsr{ProtocolVariant::kBcsr};
  RegisterClient writer(ProcessId::writer(0), cfg, &net, bcsr);
  RegisterClient reader(ProcessId::reader(0), cfg, &net, bcsr);
  net.add_process(ProcessId::writer(0), &writer);
  net.add_process(ProcessId::reader(0), &reader);
  net.start();

  const Bytes payload(5000, 0x5C);
  BlockingRegisterClient(writer).write(0, payload);
  EXPECT_EQ(BlockingRegisterClient(reader).read(0).value, payload);
  net.stop();
}

TEST(ThreadClusterTest, AllProtocolsWorkOnRealThreads) {
  for (auto protocol :
       {registers::ProtocolVariant::kBsr, registers::ProtocolVariant::kBsrHistory,
        registers::ProtocolVariant::kBsrTwoRound, registers::ProtocolVariant::kBcsr,
        registers::ProtocolVariant::kRb, registers::ProtocolVariant::kBsrWriteBack}) {
    harness::ThreadClusterOptions o;
    o.protocol = protocol;
    o.config.f = 1;
    o.config.n = registers::min_servers(protocol, 1);
    o.num_writers = 1;
    o.num_readers = 1;
    harness::ThreadCluster cluster(o);
    cluster.set_byzantine(o.config.n - 1, adversary::StrategyKind::kStale);
    cluster.write(0, val("tc-" + std::string(registers::to_string(protocol))));
    const auto r = cluster.read(0);
    EXPECT_EQ(r.value, val("tc-" + std::string(registers::to_string(protocol))))
        << registers::to_string(protocol);
    cluster.stop();
  }
}

TEST(ThreadClusterTest, ConcurrentClientThreads) {
  harness::ThreadClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  o.num_writers = 2;
  o.num_readers = 2;
  harness::ThreadCluster cluster(o);
  std::atomic<bool> ok{true};
  auto writer_loop = [&](size_t w) {
    for (int i = 0; i < 15; ++i) {
      cluster.write(w, Bytes{static_cast<uint8_t>(i)});
    }
  };
  auto reader_loop = [&](size_t r) {
    for (int i = 0; i < 15; ++i) {
      const auto res = cluster.read(r);
      if (res.value.size() > 1) ok.store(false);  // only 1-byte values written
    }
  };
  std::thread t1(writer_loop, 0), t2(writer_loop, 1);
  std::thread t3(reader_loop, 0), t4(reader_loop, 1);
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace bftreg::registers
