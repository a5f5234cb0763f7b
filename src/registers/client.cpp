#include "registers/client.h"

#include <future>
#include <memory>
#include <utility>

namespace bftreg::registers {

RegisterClient::RegisterClient(ProcessId self, SystemConfig config,
                               net::Transport* transport, ClientOptions options)
    : mux_(self, std::move(config), transport), options_(options) {
  // Only BCSR needs its bound to construct at all (k = n - 5f). The other
  // variants run below their bounds on purpose in the lower-bound
  // experiments (Theorem 5 drives BSR at n = 4f); applications get
  // validated configs from SystemConfig::Builder.
  if (options_.variant == ProtocolVariant::kBcsr) {
    assert(mux_.config().n >=
           min_servers(ProtocolVariant::kBcsr, mux_.config().f));
    code_ = codec::MdsCode::for_bcsr(mux_.config().n, mux_.config().f);
  }
}

LocalState& RegisterClient::state_for(uint32_t object) {
  auto [it, inserted] =
      states_.try_emplace(object, LocalState::initial(mux_.config()));
  return it->second;
}

uint64_t RegisterClient::decode_failures() const {
  uint64_t total = 0;
  for (const auto& [object, state] : states_) total += state.decode_failures;
  return total;
}

RetryPolicy RegisterClient::effective_policy(const OpOptions& opts) const {
  RetryPolicy policy = opts.retry_policy.value_or(options_.retry);
  if (opts.deadline != 0) policy.timeout = opts.deadline;
  return policy;
}

void RegisterClient::read(uint32_t object, ReadCallback cb) {
  read(object, OpOptions{}, std::move(cb));
}

void RegisterClient::read(uint32_t object, const OpOptions& opts,
                          ReadCallback cb) {
  const SystemConfig& cfg = mux_.config();
  LocalState* state = &state_for(object);
  std::unique_ptr<PendingOp> op;
  OpKind kind = OpKind::kBsrRead;
  switch (options_.variant) {
    case ProtocolVariant::kBsr:
      op = std::make_unique<BsrReadOp>(cfg, state, std::move(cb));
      kind = OpKind::kBsrRead;
      break;
    case ProtocolVariant::kBsrHistory:
      op = std::make_unique<HistoryReadOp>(cfg, state, std::move(cb));
      kind = OpKind::kHistoryRead;
      break;
    case ProtocolVariant::kBsrTwoRound:
      op = std::make_unique<TwoRoundReadOp>(cfg, state, std::move(cb));
      kind = OpKind::kTwoRoundRead;
      break;
    case ProtocolVariant::kBsrWriteBack:
      op = std::make_unique<WriteBackReadOp>(cfg, state, std::move(cb));
      kind = OpKind::kWriteBackRead;
      break;
    case ProtocolVariant::kBcsr:
      op = std::make_unique<BcsrReadOp>(cfg, &*code_, state, std::move(cb));
      kind = OpKind::kBcsrRead;
      break;
    case ProtocolVariant::kRb:
      op = std::make_unique<RbReadOp>(cfg, state, std::move(cb));
      kind = OpKind::kRbRead;
      break;
  }
  mux_.start(std::move(op), kind, object, effective_policy(opts));
}

void RegisterClient::write(uint32_t object, Bytes value, WriteCallback cb) {
  write(object, std::move(value), OpOptions{}, std::move(cb));
}

void RegisterClient::write(uint32_t object, Bytes value, const OpOptions& opts,
                           WriteCallback cb) {
  mux_.start(std::make_unique<WriteOp>(mux_.config(),
                                       code_ ? &*code_ : nullptr,
                                       &state_for(object), std::move(value),
                                       std::move(cb)),
             OpKind::kWrite, object, effective_policy(opts));
}

void RegisterClient::read_batch(std::span<const uint32_t> objects,
                                BatchReadCallback cb) {
  assert(options_.variant != ProtocolVariant::kBcsr &&
         options_.variant != ProtocolVariant::kRb &&
         "batched reads need replicated RegisterServer storage");
  assert(!objects.empty());
  assert(objects.size() <= 4096 && "batch exceeds the server-side cap");
  // The op owns its id list; the caller's span may die with the call.
  std::vector<uint32_t> owned(objects.begin(), objects.end());
  mux_.start(std::make_unique<BatchReadOp>(mux_.config(), &states_,
                                           std::move(owned), std::move(cb)),
             OpKind::kBatchRead, /*object=*/0, options_.retry);
}

// --- BlockingRegisterClient -------------------------------------------------

ReadResult BlockingRegisterClient::read(uint32_t object, const OpOptions& opts) {
  auto promise = std::make_shared<std::promise<ReadResult>>();
  std::future<ReadResult> fut = promise->get_future();
  client_.transport()->post(client_.id(), [this, object, opts, promise] {
    client_.read(object, opts,
                 [promise](const ReadResult& r) { promise->set_value(r); });
  });
  return fut.get();
}

WriteResult BlockingRegisterClient::write(uint32_t object, Bytes value,
                                          const OpOptions& opts) {
  auto promise = std::make_shared<std::promise<WriteResult>>();
  std::future<WriteResult> fut = promise->get_future();
  client_.transport()->post(
      client_.id(),
      [this, object, opts, v = std::move(value), promise]() mutable {
        client_.write(object, std::move(v), opts,
                      [promise](const WriteResult& r) { promise->set_value(r); });
      });
  return fut.get();
}

BatchReadResult BlockingRegisterClient::read_batch(
    std::span<const uint32_t> objects) {
  // Copy before posting: the caller's span only has to outlive this call,
  // not the asynchronous hop into the client's context.
  std::vector<uint32_t> owned(objects.begin(), objects.end());
  auto promise = std::make_shared<std::promise<BatchReadResult>>();
  std::future<BatchReadResult> fut = promise->get_future();
  client_.transport()->post(
      client_.id(), [this, objs = std::move(owned), promise]() mutable {
        client_.read_batch(std::span<const uint32_t>(objs),
                           [promise](const BatchReadResult& r) {
                             promise->set_value(r);
                           });
      });
  return fut.get();
}

}  // namespace bftreg::registers
