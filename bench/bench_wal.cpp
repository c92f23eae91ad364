// WAL microbenchmarks: inline-sync vs group-commit append cost under
// 1/8/64-record bursts.
//
// The quantity that matters to consensus is what the APPENDER's thread pays
// — on a deployed validator that thread is the event loop, so every micro
// spent in append + sync is a micro not spent multiplexing sockets.
//
//   BM_WalAppendInlineSync   the classic path: burst appends + one sync on
//                            the caller, what an inline log costs
//                            NodePipeline::perform.
//   BM_WalAppendGroupCommit  the staged path: burst appends return after an
//                            encode + memcpy; the writer thread lands groups
//                            concurrently. Caller-side cost only — the disk
//                            rides another thread.
//   BM_WalGroupDurableLatency  full durability latency of a burst (append +
//                            wait for the covering group flush): shows the
//                            per-record amortization as bursts grow — one
//                            write + sync covers the whole burst.
//
// Compare per-record (items/s) numbers: group-commit staging should beat
// inline append+sync at every burst size, and durable latency per record
// should fall sharply from burst 1 to burst 64 (acceptance: amortizing by
// burst 8). Machine-readable output: --benchmark_format=json (CI uploads
// bench_wal.json and gates it with scripts/check_bench.py).
//
// Every series runs over the WAL's one layout, SegmentedWal, and also
// reports SyscallsPerRecord — kernel entries spent making records durable
// (SegmentedWal::syscalls, which counts sync() and group flushes alike),
// divided by records landed. Inline fsync pays 2 per burst on the appender;
// group commit pays 2 per GROUP (write + fsync) on the writer thread.
//
//   BM_Crc32                 the record-framing checksum alone, in bytes/s:
//                            every WAL record, checkpoint and delta cut is
//                            framed with it.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <future>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "types/committee.h"
#include "wal/group_commit_wal.h"
#include "wal/segmented_wal.h"

namespace {

using namespace mahimahi;

// One representative block (4-validator committee, one small batch),
// reused for every append: signing dominates construction, not logging.
const Block& test_block() {
  static const Block block = [] {
    static Committee::TestSetup setup = Committee::make_test(4);
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = 1;
    batch.count = 16;
    batch.tx_bytes = 512;
    return Block::make(0, 1, refs, {batch}, setup.committee.coin().share(0, 1),
                       setup.keypairs[0].private_key);
  }();
  return block;
}

std::string bench_wal_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("mahi_bench_wal_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

// Recreate the log every so often so long benchmark runs do not fill /tmp.
constexpr std::uint64_t kTruncateEveryBursts = 8192;

std::unique_ptr<SegmentedWal> open_log(const std::string& path, bool fsync) {
  SegmentedWalOptions options;
  options.fsync_on_sync = fsync;
  return std::make_unique<SegmentedWal>(path, options);
}

void inline_append_bench(benchmark::State& state, bool fsync) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_wal_path(fsync ? "inline_fsync" : "inline");
  std::filesystem::remove_all(path);
  auto wal = open_log(path, fsync);
  std::uint64_t bursts = 0;
  std::uint64_t syscalls = 0;  // accumulated across truncation resets
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) wal->append_block(test_block(), false);
    wal->sync();
    if (++bursts % kTruncateEveryBursts == 0) {
      state.PauseTiming();
      syscalls += wal->syscalls();
      wal.reset();
      std::filesystem::remove_all(path);
      wal = open_log(path, fsync);
      state.ResumeTiming();
    }
  }
  const auto records = state.iterations() * static_cast<std::int64_t>(burst);
  state.SetItemsProcessed(records);
  syscalls += wal->syscalls();
  if (records > 0) {
    state.counters["SyscallsPerRecord"] =
        static_cast<double>(syscalls) / static_cast<double>(records);
  }
  wal.reset();
  std::filesystem::remove_all(path);
}

// fflush-only durability (process crash), the test/simulator default.
void BM_WalAppendInlineSync(benchmark::State& state) {
  inline_append_bench(state, /*fsync=*/false);
}
BENCHMARK(BM_WalAppendInlineSync)->ArgName("burst")->Arg(1)->Arg(8)->Arg(64);

// fsync durability (machine crash) — the deployment-grade baseline whose
// per-sync milliseconds the group path amortizes and offloads.
void BM_WalAppendInlineFsync(benchmark::State& state) {
  inline_append_bench(state, /*fsync=*/true);
}
BENCHMARK(BM_WalAppendInlineFsync)->ArgName("burst")->Arg(1)->Arg(8)->Arg(64);

void BM_WalAppendGroupCommit(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_wal_path("group");
  std::filesystem::remove_all(path);
  GroupCommitWalOptions options;
  options.flush_interval = 0;  // writer flushes whatever accumulated, ASAP
  auto make_wal = [&] {
    return std::make_unique<GroupCommitWal>(open_log(path, /*fsync=*/false), options);
  };
  auto wal = make_wal();
  std::uint64_t bursts = 0;
  std::uint64_t groups = 0;
  std::uint64_t flush_syscalls = 0;
  for (auto _ : state) {
    // Caller-side cost only: appends stage and return. The bounded staging
    // buffer keeps this honest — if the writer cannot keep up, backpressure
    // shows up right here.
    for (std::size_t i = 0; i < burst; ++i) wal->append_block(test_block(), false);
    if (++bursts % kTruncateEveryBursts == 0) {
      state.PauseTiming();
      groups += wal->groups_flushed();
      flush_syscalls += wal->group_flush_syscalls();
      wal.reset();
      std::filesystem::remove_all(path);
      wal = make_wal();
      state.ResumeTiming();
    }
  }
  const auto records = state.iterations() * static_cast<std::int64_t>(burst);
  state.SetItemsProcessed(records);
  groups += wal->groups_flushed();
  flush_syscalls += wal->group_flush_syscalls();
  state.counters["groups"] = static_cast<double>(groups);
  if (records > 0) {
    state.counters["SyscallsPerRecord"] =
        static_cast<double>(flush_syscalls) / static_cast<double>(records);
  }
  wal.reset();
  std::filesystem::remove_all(path);
}
BENCHMARK(BM_WalAppendGroupCommit)->ArgName("burst")->Arg(1)->Arg(8)->Arg(64);

void group_durable_bench(benchmark::State& state, bool fsync) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  const std::string path = bench_wal_path(fsync ? "durable_fsync" : "durable");
  std::filesystem::remove_all(path);
  GroupCommitWalOptions options;
  options.flush_interval = 0;
  auto make_wal = [&] {
    return std::make_unique<GroupCommitWal>(open_log(path, fsync), options);
  };
  auto wal = make_wal();
  std::uint64_t bursts = 0;
  std::uint64_t groups = 0;
  std::uint64_t flush_syscalls = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) wal->append_block(test_block(), false);
    // Ack round trip: the whole burst becomes durable under one (or very
    // few) write + sync, so per-record latency amortizes with burst size.
    std::promise<void> durable;
    wal->on_durable([&durable] { durable.set_value(); });
    durable.get_future().wait();
    if (++bursts % kTruncateEveryBursts == 0) {
      state.PauseTiming();
      groups += wal->groups_flushed();
      flush_syscalls += wal->group_flush_syscalls();
      wal.reset();
      std::filesystem::remove_all(path);
      wal = make_wal();
      state.ResumeTiming();
    }
  }
  const auto records = state.iterations() * static_cast<std::int64_t>(burst);
  state.SetItemsProcessed(records);
  groups += wal->groups_flushed();
  flush_syscalls += wal->group_flush_syscalls();
  state.counters["groups"] = static_cast<double>(groups);
  if (records > 0) {
    state.counters["SyscallsPerRecord"] =
        static_cast<double>(flush_syscalls) / static_cast<double>(records);
  }
  wal.reset();
  std::filesystem::remove_all(path);
}

void BM_WalGroupDurableLatency(benchmark::State& state) {
  group_durable_bench(state, /*fsync=*/false);
}
BENCHMARK(BM_WalGroupDurableLatency)->ArgName("burst")->Arg(1)->Arg(8)->Arg(64);

// The headline: one fsync covers the whole burst, so per-record durable
// latency falls ~linearly with burst size, versus BM_WalAppendInlineFsync
// which pays the device each time the appender syncs.
void BM_WalGroupDurableFsync(benchmark::State& state) {
  group_durable_bench(state, /*fsync=*/true);
}
BENCHMARK(BM_WalGroupDurableFsync)->ArgName("burst")->Arg(1)->Arg(8)->Arg(64);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) benchmark::DoNotOptimize(crc32({data.data(), data.size()}));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1048576);

}  // namespace

BENCHMARK_MAIN();
