#include "exec/plan.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "app/replicated_kv.h"
#include "serde/serde.h"
#include "types/block.h"

namespace mahimahi::exec {

ExecTxn decode_batch(const TxBatch& batch) {
  ExecTxn txn;
  txn.batch = &batch;
  if (batch.payload.empty()) {
    // Benchmark filler: no commands, no identity (ReplicatedKv skips these
    // before dedup, so they must not consume an identity slot here either).
    txn.skip = Skip::kFiller;
    return txn;
  }
  txn.identity = app::batch_identity(batch);

  std::vector<app::KvCommand> commands;
  try {
    commands =
        app::decode_kv_payload({batch.payload.data(), batch.payload.size()});
  } catch (const serde::SerdeError&) {
    // Byzantine garbage: the batch still occupies its identity slot (a
    // resubmitted copy deduplicates instead of double-counting as malformed)
    // but contributes no commands and conflicts with nothing.
    txn.skip = Skip::kMalformed;
    return txn;
  }

  const bool declared = !batch.read_keys.empty() || !batch.write_keys.empty();
  if (declared) {
    txn.access.reads = batch.read_keys;
    txn.access.writes = batch.write_keys;
    if (!declared_covers(txn.access, commands)) {
      // The payload escaped its declaration: executing it in a parallel wave
      // could race an undeclared key, so demote to the conservative class.
      // Still executed — in its own barrier wave, at its serial position.
      txn.access = AccessSet{.opaque = true};
      txn.access_violation = true;
    }
  } else if (commands.empty()) {
    // Non-empty payload that is not a KV command list and declares nothing:
    // unknown content, conservatively conflicts with everything.
    txn.access.opaque = true;
  } else {
    txn.access = derive_kv_access(commands);
  }
  txn.commands = std::move(commands);
  return txn;
}

std::vector<ExecTxn> decode_subdag(const CommittedSubDag& subdag) {
  std::vector<ExecTxn> txns;
  for (const BlockPtr& block : subdag.blocks) {
    for (const TxBatch& batch : block->batches()) {
      txns.push_back(decode_batch(batch));
    }
  }
  return txns;
}

Plan build_plan(std::vector<ExecTxn> txns,
                std::unordered_set<Digest, DigestHasher>& executed) {
  Plan plan;
  plan.txns = std::move(txns);

  // Per-key high-water marks: one past the last wave that wrote / read each
  // key so far (0: none yet), keyed by views into the plan's own access sets
  // (plan.txns is not resized below, so the strings stay put). Lookup-only
  // usage — unordered iteration order never observed, so the plan is
  // deterministic.
  struct KeyMarks {
    std::uint32_t write = 0;
    std::uint32_t read = 0;
  };
  std::unordered_map<std::string_view, KeyMarks> marks;
  std::size_t keys = 0;
  for (const ExecTxn& txn : plan.txns) {
    keys += txn.access.writes.size() + txn.access.reads.size();
  }
  marks.reserve(keys);
  // The current transaction's entries, writes first (element references
  // survive a rehash).
  std::vector<KeyMarks*> touched;
  std::uint32_t floor = 0;       // earliest admissible wave (opaque barriers)
  std::uint32_t next_wave = 0;   // == max assigned wave + 1

  auto place = [&](std::size_t index, std::uint32_t wave) {
    if (plan.waves.size() <= wave) plan.waves.resize(wave + 1);
    plan.waves[wave].push_back(static_cast<std::uint32_t>(index));
    plan.txns[index].wave = wave;
    next_wave = std::max(next_wave, wave + 1);
  };

  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    ExecTxn& txn = plan.txns[i];

    // Dedup in committed order — the same branch ReplicatedKv takes, so both
    // apply paths agree on which copy of a resubmitted batch executes.
    if (txn.skip == Skip::kNone || txn.skip == Skip::kMalformed) {
      if (!executed.insert(txn.identity).second) {
        txn.skip = Skip::kDuplicate;
        txn.commands.clear();
      }
    }

    // Non-executing batches (filler, duplicates, malformed) ride along in
    // the earliest admissible wave: they apply nothing, so they constrain
    // nothing — but they still need a wave to be delivered with.
    if (txn.skip != Skip::kNone) {
      txn.access = AccessSet{};
      place(i, floor);
      continue;
    }

    if (txn.access.opaque) {
      // Barrier: after everything assigned so far, before everything later.
      const std::uint32_t wave = std::max(floor, next_wave);
      plan.conflict_delayed += wave > floor ? 1 : 0;
      place(i, wave);
      floor = wave + 1;
      continue;
    }

    // One probe per key: a write follows every earlier write and read of
    // its key, a read every earlier write.
    std::uint32_t wave = floor;
    touched.clear();
    for (const std::string& key : txn.access.writes) {
      KeyMarks& m = marks[key];
      wave = std::max({wave, m.write, m.read});
      touched.push_back(&m);
    }
    for (const std::string& key : txn.access.reads) {
      KeyMarks& m = marks[key];
      wave = std::max(wave, m.write);
      touched.push_back(&m);
    }
    plan.conflict_delayed += wave > floor ? 1 : 0;
    place(i, wave);
    const std::size_t writes = txn.access.writes.size();
    for (std::size_t k = 0; k < touched.size(); ++k) {
      std::uint32_t& mark = k < writes ? touched[k]->write : touched[k]->read;
      mark = std::max(mark, wave + 1);
    }
  }
  return plan;
}

}  // namespace mahimahi::exec
