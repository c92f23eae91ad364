#include "exec/engine.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "types/block.h"

namespace mahimahi::exec {

namespace {

// Per-command pre-resolved state-change outcomes for the transactions of one
// wave, indexed [position within wave][command]. Filled by workers, consumed
// by the merge.
using ResolvedWave = std::vector<std::vector<std::uint8_t>>;

// Pre-resolves one transaction's commands against the pre-wave store state.
// Safe to run concurrently with other transactions of the same wave: their
// write sets are disjoint from this transaction's keys (wave invariant 1),
// so presence/absence of *these* keys is fixed for the whole wave — only the
// transaction's own earlier commands can change it, tracked in the overlay.
std::vector<std::uint8_t> resolve_effects(const app::KvStore& store,
                                          const ExecTxn& txn) {
  std::vector<std::uint8_t> resolved(txn.commands.size(), 0);
  std::unordered_map<std::string, bool> overlay;  // key -> present after own cmds
  for (std::size_t i = 0; i < txn.commands.size(); ++i) {
    const app::KvCommand& cmd = txn.commands[i];
    switch (cmd.op) {
      case app::KvCommand::Op::kPut:
        resolved[i] = 1;
        overlay[cmd.key] = true;
        break;
      case app::KvCommand::Op::kDelete: {
        const auto it = overlay.find(cmd.key);
        const bool present =
            it != overlay.end() ? it->second : store.get(cmd.key).has_value();
        resolved[i] = present ? 1 : 0;
        overlay[cmd.key] = false;
        break;
      }
      case app::KvCommand::Op::kNoop:
        break;
    }
  }
  return resolved;
}

// Stack-allocated completion barrier for a fan-out. notify under the lock:
// the waiter may destroy the fence the moment the predicate holds.
class Fence {
 public:
  explicit Fence(std::size_t remaining) : remaining_(remaining) {}
  void done() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

}  // namespace

// ---------------------------------------------------------------------------
// SerialExecutor
// ---------------------------------------------------------------------------

Plan SerialExecutor::plan(const CommittedSubDag& subdag) {
  return plan_decoded(decode_subdag(subdag));
}

Plan SerialExecutor::plan_decoded(std::vector<ExecTxn> txns) {
  Plan plan = build_plan(std::move(txns), executed_);
  stats_.conflict_delayed += plan.conflict_delayed;
  for (const ExecTxn& txn : plan.txns) {
    switch (txn.skip) {
      case Skip::kDuplicate: ++stats_.deduplicated; break;
      case Skip::kMalformed: ++stats_.malformed; break;
      case Skip::kNone:
        if (txn.access.opaque) ++stats_.opaque;
        break;
      case Skip::kFiller: break;
    }
    if (txn.access_violation) ++stats_.access_violations;
  }
  return plan;
}

std::vector<Delivery> SerialExecutor::apply_wave(const Plan& plan,
                                                 std::size_t wave,
                                                 bool last_wave,
                                                 const void* resolved_opaque) {
  const auto* resolved = static_cast<const ResolvedWave*>(resolved_opaque);
  const std::vector<std::uint32_t>& members = plan.waves[wave];

  std::size_t executable = 0;
  for (const std::uint32_t index : members) {
    const ExecTxn& txn = plan.txns[index];
    if (txn.skip == Skip::kNone && !txn.commands.empty()) ++executable;
  }

  std::vector<Delivery> deliveries;
  deliveries.reserve(members.size());
  for (std::size_t pos = 0; pos < members.size(); ++pos) {
    const ExecTxn& txn = plan.txns[members[pos]];
    if (txn.skip == Skip::kNone && !txn.commands.empty()) {
      for (std::size_t i = 0; i < txn.commands.size(); ++i) {
        if (resolved) {
          store_.apply_resolved(txn.commands[i], (*resolved)[pos][i] != 0);
        } else {
          store_.apply(txn.commands[i]);
        }
      }
      stats_.commands_applied += txn.commands.size();
      ++stats_.batches_executed;
      if (executable > 1) ++stats_.parallel_batches;
    }
    const TxBatch& batch = *txn.batch;
    deliveries.push_back(Delivery{
        .batch_id = batch.id,
        .submitted_at = batch.submitted_at,
        .count = batch.count == 0 ? 1 : batch.count,
        .wave = txn.wave,
        .early = !last_wave,
    });
  }
  ++stats_.waves;
  if (!last_wave) stats_.early_deliveries += members.size();
  if (last_wave) ++stats_.subdags;
  return deliveries;
}

void SerialExecutor::note_empty_subdag() { ++stats_.subdags; }

void SerialExecutor::apply_subdag(const CommittedSubDag& subdag) {
  const Plan p = plan(subdag);
  if (p.waves.empty()) {
    note_empty_subdag();
    return;
  }
  for (std::size_t w = 0; w < p.waves.size(); ++w) {
    apply_wave(p, w, w + 1 == p.waves.size());
  }
}

// ---------------------------------------------------------------------------
// ExecutionEngine
// ---------------------------------------------------------------------------

ExecutionEngine::ExecutionEngine(Options options, DeliveryHandler on_delivery)
    : on_delivery_(std::move(on_delivery)) {
  if (options.threads > 0) {
    pool_ = std::make_unique<net::WorkerPool>(options.threads, "exec");
    merge_ = std::thread([this] { merge_main(); });
  }
}

ExecutionEngine::~ExecutionEngine() {
  stop_merge();
  pool_.reset();
}

void ExecutionEngine::shutdown() {
  drain();
  stop_merge();
}

void ExecutionEngine::stop_merge() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (merge_.joinable()) merge_.join();
}

void ExecutionEngine::execute(const CommittedSubDag& subdag,
                              TimeMicros enqueued_at) {
  if (pool_ == nullptr) {
    // threads == 0: serial inline apply on the caller, deliveries included.
    process(Pending{subdag, enqueued_at});
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push_back(Pending{subdag, enqueued_at});
  }
  wake_.notify_one();
}

void ExecutionEngine::replay(const CommittedSubDag& subdag) {
  // Pre-loop recovery only: no execute() in flight, so the merge thread (if
  // any) is idle and the first post-replay enqueue publishes this state to it
  // through the queue mutex.
  serial_.apply_subdag(subdag);
  std::lock_guard<std::mutex> lock(mutex_);
  stats_snapshot_ = serial_.stats();
}

void ExecutionEngine::drain() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return (queue_.empty() && !busy_) || stopping_; });
}

Digest ExecutionEngine::state_digest() {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);  // memory fence vs the merge thread
  return serial_.state_digest();
}

Bytes ExecutionEngine::app_snapshot() {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return serial_.snapshot_bytes();
}

Bytes ExecutionEngine::app_delta_snapshot() {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return serial_.take_app_delta();
}

void ExecutionEngine::clear_app_delta_window() {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);
  serial_.store_.clear_delta_window();
}

void ExecutionEngine::install_snapshot(BytesView snapshot) {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);
  serial_.install_snapshot(snapshot);
  stats_snapshot_ = serial_.stats();
}

ExecStats ExecutionEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_snapshot_;
}

void ExecutionEngine::merge_main() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        idle_.notify_all();
        return;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    process(pending);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_ = false;
      if (queue_.empty()) idle_.notify_all();
    }
  }
}

void ExecutionEngine::process(const Pending& pending) {
  // Stage 1 — decode fan-out: pure per-batch work (payload decode, identity
  // hash, access derivation), chunked across the pool.
  std::vector<const TxBatch*> batches;
  for (const BlockPtr& block : pending.subdag.blocks) {
    for (const TxBatch& batch : block->batches()) batches.push_back(&batch);
  }
  std::vector<ExecTxn> txns(batches.size());
  const std::size_t workers = pool_ ? pool_->thread_count() : 0;
  if (workers > 0 && batches.size() > 1) {
    const std::size_t chunks = std::min(workers, batches.size());
    const std::size_t stride = (batches.size() + chunks - 1) / chunks;
    Fence fence(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * stride;
      const std::size_t end = std::min(begin + stride, batches.size());
      pool_->submit([&, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          txns[i] = decode_batch(*batches[i]);
        }
        fence.done();
      });
    }
    fence.wait();
  } else {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      txns[i] = decode_batch(*batches[i]);
    }
  }

  // Stage 2 — serial plan: dedup in committed order, wave partition.
  const Plan plan = serial_.plan_decoded(std::move(txns));
  if (plan.waves.empty()) {
    serial_.note_empty_subdag();
    deliver({}, true, pending);
    return;
  }

  // Stage 3 — per wave: workers pre-resolve each member transaction's
  // effects against the quiescent store (concurrent reads only), then the
  // merge applies them in committed order and the wave delivers. Conflicting
  // transactions are separated by the wave barrier; non-conflicting ones
  // resolve concurrently.
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    const std::vector<std::uint32_t>& members = plan.waves[w];
    ResolvedWave resolved(members.size());
    const bool fan_out = workers > 0 && members.size() > 1;
    if (fan_out) {
      const std::size_t chunks = std::min(workers, members.size());
      const std::size_t stride = (members.size() + chunks - 1) / chunks;
      Fence fence(chunks);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * stride;
        const std::size_t end = std::min(begin + stride, members.size());
        pool_->submit([&, begin, end] {
          for (std::size_t pos = begin; pos < end; ++pos) {
            const ExecTxn& txn = plan.txns[members[pos]];
            if (txn.skip == Skip::kNone && !txn.commands.empty()) {
              resolved[pos] = resolve_effects(serial_.store(), txn);
            }
          }
          fence.done();
        });
      }
      fence.wait();
    } else {
      for (std::size_t pos = 0; pos < members.size(); ++pos) {
        const ExecTxn& txn = plan.txns[members[pos]];
        if (txn.skip == Skip::kNone && !txn.commands.empty()) {
          resolved[pos] = resolve_effects(serial_.store(), txn);
        }
      }
    }
    const bool last = w + 1 == plan.waves.size();
    deliver(serial_.apply_wave(plan, w, last, &resolved), last, pending);
  }
}

void ExecutionEngine::deliver(std::vector<Delivery> batches, bool complete,
                              const Pending& pending) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_snapshot_ = serial_.stats();
  }
  if (!on_delivery_) return;
  WaveDelivery wave;
  wave.batches = std::move(batches);
  wave.subdag_complete = complete;
  wave.enqueued_at = pending.enqueued_at;
  wave.block_count = static_cast<std::uint32_t>(pending.subdag.blocks.size());
  wave.slot = pending.subdag.slot;
  on_delivery_(wave);
}

}  // namespace mahimahi::exec
