// Client-side KV batch encoding: commands -> TxBatch with declared access
// sets.
//
// A client knows exactly which keys its commands touch, so it declares them
// on the batch (TxBatch::read_keys / write_keys). The execution scheduler can
// then place the batch into a dependency wave without decoding the payload
// first — and the declaration is enforced at execution time, so a buggy or
// Byzantine declaration costs only that client its parallelism, never
// correctness (exec/plan.h).
//
// Also home to the deterministic synthetic conflict workload shared by
// bench_execution, the execution property tests, and the simulator's KV load
// generator: batches draw keys from a small shared hot set with probability
// `conflict_percent`, else from a keyspace private to the generating stream.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_command.h"
#include "common/rng.h"
#include "common/time.h"
#include "types/transaction.h"

namespace mahimahi::client {

// Encodes `commands` into a batch payload and declares the derived write set
// (KV commands are blind writes: the read set is empty). `count` defaults to
// the command count so latency histograms weight the batch sensibly.
inline TxBatch make_kv_batch(std::uint64_t id,
                             const std::vector<app::KvCommand>& commands,
                             TimeMicros submitted_at = 0) {
  TxBatch batch;
  batch.id = id;
  batch.submitted_at = submitted_at;
  batch.count = static_cast<std::uint32_t>(commands.size());
  batch.payload = app::encode_kv_payload(commands);
  for (const app::KvCommand& cmd : commands) {
    if (cmd.op == app::KvCommand::Op::kNoop) continue;
    batch.write_keys.push_back(cmd.key);
  }
  return batch;
}

struct KvWorkload {
  // Probability (0-100) that a key is drawn from the shared hot set; 0 means
  // fully disjoint batches (maximal parallelism), 100 means every command
  // fights over `hot_keys` keys (fully serial waves).
  std::uint32_t conflict_percent = 0;
  std::uint32_t hot_keys = 4;
  std::uint32_t commands_per_batch = 8;
  std::uint32_t value_bytes = 16;
  // Every tenth command is a Delete (exercises the store's tombstones and
  // its no-op Delete of an absent key); false disables.
  bool with_deletes = true;
};

// One synthetic batch. `stream` disambiguates the private keyspace (callers
// pass e.g. a client index) so two generators never collide by accident;
// `sequence` makes batch ids and private keys unique within the stream.
inline TxBatch synth_kv_batch(const KvWorkload& workload, std::uint64_t stream,
                              std::uint64_t sequence, Rng& rng,
                              TimeMicros submitted_at = 0) {
  std::vector<app::KvCommand> commands;
  commands.reserve(workload.commands_per_batch);
  for (std::uint32_t i = 0; i < workload.commands_per_batch; ++i) {
    std::string key;
    if (rng.uniform(100) < workload.conflict_percent) {
      key = "hot/" + std::to_string(rng.uniform(workload.hot_keys));
    } else {
      key = "s" + std::to_string(stream) + "/" + std::to_string(sequence) +
            "/" + std::to_string(i);
    }
    if (workload.with_deletes && i % 10 == 9) {
      commands.push_back(app::KvCommand::del(std::move(key)));
    } else {
      std::string value(workload.value_bytes, 'v');
      if (!value.empty()) value[0] = static_cast<char>('a' + (sequence % 26));
      commands.push_back(app::KvCommand::put(std::move(key), std::move(value)));
    }
  }
  return make_kv_batch((stream << 40) | sequence, commands, submitted_at);
}

}  // namespace mahimahi::client
