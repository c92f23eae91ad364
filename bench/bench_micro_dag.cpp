// Microbenchmarks: DAG operations, serialization, decision rules, WAL.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>

#include "core/committer.h"
#include "mempool/mempool.h"
#include "sim/dag_builder.h"
#include "types/validation.h"
#include "wal/segmented_wal.h"

namespace {

using namespace mahimahi;

void BM_BlockCreateAndSign(benchmark::State& state) {
  auto setup = Committee::make_test(4);
  std::vector<BlockRef> refs;
  for (ValidatorId v = 0; v < 4; ++v) {
    refs.push_back(Block::genesis(v, setup.committee.coin()).ref());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block::make(0, 1, refs, {},
                                         setup.committee.coin().share(0, 1),
                                         setup.keypairs[0].private_key));
  }
}
BENCHMARK(BM_BlockCreateAndSign);

// `payload_bytes` of transaction payload in 4 KiB batches.
std::vector<TxBatch> bench_batches(std::size_t payload_bytes) {
  std::vector<TxBatch> batches;
  for (std::size_t left = payload_bytes; left > 0;) {
    TxBatch batch;
    batch.id = batches.size();
    batch.count = 8;
    batch.payload.assign(std::min<std::size_t>(4096, left), 0x5a);
    left -= batch.payload.size();
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<BlockRef> round_refs(const DagBuilder& builder, Round round) {
  std::vector<BlockRef> refs;
  for (ValidatorId v = 0; v < builder.n(); ++v) refs.push_back(builder.dag().slot(round, v).front()->ref());
  return refs;
}

// A block of a fully connected 10-validator DAG carrying `payload_bytes`
// of transaction payload in 4 KiB batches (0 = an empty round-2 block). The
// 256 KiB shape is close to a tcp-opaque-100k block (~300 KB), whose decode
// cost is mostly hashing the payloads.
BlockPtr bench_block(std::size_t payload_bytes) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  if (payload_bytes == 0) return builder.dag().slot(2, 0).front();
  return builder.add_block(0, 3, round_refs(builder, 2), bench_batches(payload_bytes));
}

// Microseconds per iteration of the timed region (the inverted rate of 1e-6
// per iteration), the unit --compare reads across BM_BlockMake and
// BM_BlockDeserialize.
benchmark::Counter micros_per_block() {
  return benchmark::Counter(1e-6, benchmark::Counter::kIsIterationInvariantRate |
                                      benchmark::Counter::kInvert);
}

void BM_BlockSerialize(benchmark::State& state) {
  const BlockPtr block = bench_block(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(block->serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * block->encoded_size()));
}
BENCHMARK(BM_BlockSerialize)->Arg(0)->Arg(256 * 1024);

void BM_BlockDeserialize(benchmark::State& state) {
  const Bytes wire = bench_block(static_cast<std::size_t>(state.range(0)))->serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block::deserialize({wire.data(), wire.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
  state.counters["MicrosPerBlock"] = micros_per_block();
}
BENCHMARK(BM_BlockDeserialize)->Arg(0)->Arg(256 * 1024);

// The author's path: the same block as BM_BlockDeserialize, built and signed
// from batches that went through ShardedMempool admission, which already
// hashed their payloads. Copying the drained batches stays outside the
// timing. Hashing only the block's preimage, this must stay well under
// BM_BlockDeserialize/262144, which hashes every payload byte.
void BM_BlockMake(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  const std::vector<BlockRef> parents = round_refs(builder, 2);
  ShardedMempool pool;
  for (TxBatch& batch : bench_batches(static_cast<std::size_t>(state.range(0)))) {
    if (!admitted(pool.submit(std::move(batch)))) state.SkipWithError("batch not admitted");
  }
  const std::vector<TxBatch> drained = pool.drain(1 << 20, 1ull << 40);
  const auto setup = Committee::make_test(10);
  const crypto::CoinShare coin = setup.committee.coin().share(0, 3);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<TxBatch> batches = drained;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        Block::make(0, 3, parents, std::move(batches), coin, setup.keypairs[0].private_key));
  }
  state.counters["MicrosPerBlock"] = micros_per_block();
}
BENCHMARK(BM_BlockMake)->Arg(256 * 1024);

void BM_BlockValidate(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  const BlockPtr block = builder.dag().slot(2, 0).front();
  ValidationOptions options;
  options.verify_signature = state.range(0) != 0;
  options.verify_coin_share = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_block(*block, builder.committee(), options));
  }
}
BENCHMARK(BM_BlockValidate)->Arg(0)->Arg(1);  // structural only vs full crypto

void BM_DagInsertRound(benchmark::State& state) {
  // Dag::insert of one fully connected round: every parent resolved through
  // its (round, author) cell. Every DagBuilder(n) seeds the same test
  // committee, so the source's round-4 blocks insert as-is into a copy of a
  // DAG holding rounds 0-3. Signing, and copying and destroying the DAG,
  // stay outside the timing.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder base(n);
  base.build_fully_connected(3);
  DagBuilder source(n);
  source.build_fully_connected(4);
  const std::vector<BlockPtr> blocks = source.dag().blocks_at(4);
  std::optional<Dag> dag;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dag.emplace(base.dag());
    const std::uint64_t probes_before = dag->digest_probes();
    state.ResumeTiming();
    for (const BlockPtr& block : blocks) dag->insert(block);
    benchmark::DoNotOptimize(dag->highest_round());
    probes += dag->digest_probes() - probes_before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * blocks.size()));
  state.counters["DigestProbesPerBlock"] =
      static_cast<double>(probes) / static_cast<double>(state.iterations() * blocks.size());
}
BENCHMARK(BM_DagInsertRound)->Arg(10)->Arg(50);

void BM_CommitterDecideWave(benchmark::State& state) {
  // Cost of the full decision pipeline over a freshly completed wave.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder builder(n);
  builder.build_fully_connected(40);
  for (auto _ : state) {
    Committer committer(builder.dag(), builder.committee(), mahi_mahi_5(2));
    benchmark::DoNotOptimize(committer.try_commit());
  }
  state.SetLabel("full decision pass over 40 rounds");
}
BENCHMARK(BM_CommitterDecideWave)->Arg(10)->Arg(50);

void BM_CommitterIncremental(benchmark::State& state) {
  // Steady-state incremental cost: one try_commit after one new round.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder builder(n);
  builder.build_fully_connected(30);
  Committer committer(builder.dag(), builder.committee(), mahi_mahi_5(2));
  committer.try_commit();
  Round next = 31;
  for (auto _ : state) {
    state.PauseTiming();
    builder.add_full_round(next++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(committer.try_commit());
  }
}
BENCHMARK(BM_CommitterIncremental)->Arg(10)->Arg(50);

void BM_IsLink(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder builder(n);
  builder.build_fully_connected(20);
  const Dag& dag = builder.dag();
  const BlockPtr top = dag.slot(20, 0).front();
  const BlockRef deep = dag.slot(1, 5).front()->ref();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.is_link(deep, *top));
  }
}
BENCHMARK(BM_IsLink)->Arg(10)->Arg(50);

void BM_WalAppend(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(1);
  const BlockPtr block = builder.dag().slot(1, 0).front();
  const auto path = std::filesystem::temp_directory_path() / "mahi_bench.wal";
  std::filesystem::remove_all(path);
  {
    SegmentedWal wal(path.string());
    for (auto _ : state) {
      wal.append_block(*block, false);
    }
  }
  std::filesystem::remove_all(path);
}
BENCHMARK(BM_WalAppend);

void BM_WalReplay(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(1);
  const BlockPtr block = builder.dag().slot(1, 0).front();
  const auto path = std::filesystem::temp_directory_path() / "mahi_bench_replay.wal";
  std::filesystem::remove_all(path);
  {
    SegmentedWal wal(path.string());
    for (int i = 0; i < 1000; ++i) wal.append_block(*block, false);
  }
  for (auto _ : state) {
    int count = 0;
    benchmark::DoNotOptimize(SegmentedWal::replay(
        path.string(), [&](BlockPtr, bool) { ++count; }, false));
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel("1000-block log");
  std::filesystem::remove_all(path);
}
BENCHMARK(BM_WalReplay);

}  // namespace

BENCHMARK_MAIN();
