// Recovery/replay benchmarks: monolithic log vs checkpoint + segment-suffix.
//
// The quantity that matters to an operator is restart time. A log that is
// never cut replays every record ever written — O(history). The checkpoint
// subsystem
// (checkpoint/) bounds it: recovery decodes the newest checkpoint and
// replays only the segment suffix accumulated since the last cut, which the
// checkpoint interval caps independently of history length.
//
//   BM_RecoveryReplayMonolithic/N        full SegmentedWal::replay of an
//                                        uncut N-record log (no checkpoint
//                                        ever rolled or retired a segment)
//   BM_RecoveryReplayCheckpointSuffix/N  CheckpointStore load + decode, plus
//                                        SegmentedWal::replay of the bounded
//                                        suffix (same fixed interval at every
//                                        N — that is the point)
//
// Compare PerRecordNs across N for the monolithic series: it must stay flat
// (the replay scratch buffer is shared and reused — a per-record allocation
// regression shows up here as superlinear growth, and the benchmark fails
// itself if per-record time at the largest N exceeds 20x the smallest-N
// baseline). Machine-readable output: --benchmark_format=json (CI uploads
// bench_recovery.json and gates it with scripts/check_bench.py).
//
// Catch-up transfer (incremental checkpoints, checkpoint/delta.h):
//
//   BM_RecoveryCatchupMonolithic/N   a refreshing peer is shipped the full
//                                    newest cut — CatchupBytes grows with
//                                    the N-record app history it re-sends
//   BM_RecoveryCatchupDeltaChain/N   the peer already holds the chain's
//                                    base; it is shipped only the delta
//                                    links (touched keys + decided suffix),
//                                    so CatchupBytes must stay sublinear in
//                                    N — the benchmark fails itself if the
//                                    delta series' bytes grow at even half
//                                    the rate of the history
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_command.h"
#include "app/kv_store.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/delta.h"
#include "sim/dag_builder.h"
#include "validator/validator.h"
#include "wal/segmented_wal.h"

namespace {

using namespace mahimahi;

namespace fs = std::filesystem;

// Records since the last checkpoint cut — what the suffix replay pays no
// matter how long the validator has been running.
constexpr std::size_t kSuffixRecords = 1024;

std::string bench_dir(const char* tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string("mahi_bench_recovery_") + tag + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// One representative framed block record, cloned N times: replay cost per
// record (frame scan + CRC + block decode) is independent of block identity.
const Bytes& record_bytes() {
  static const Bytes record = [] {
    static Committee::TestSetup setup = Committee::make_test(4);
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = 1;
    batch.count = 16;
    batch.tx_bytes = 512;
    const Block block =
        Block::make(0, 1, refs, {batch}, setup.committee.coin().share(0, 1),
                    setup.keypairs[0].private_key);
    return wal_encode_block_record(block, false);
  }();
  return record;
}

// The replayed logs are built the way a production group-commit writer lands
// them — whole groups through SegmentedWal::append_group_durable — so the
// build exercises (and reports) the group-flush syscall accounting. The file
// bytes are identical to per-record appends either way.
constexpr std::size_t kBuildGroupRecords = 64;

struct LogBuildStats {
  std::uint64_t groups = 0;
  std::uint64_t syscalls = 0;  // kernel entries spent landing the groups
};

LogBuildStats write_records(SegmentedWal& wal, std::size_t count) {
  const Bytes& record = record_bytes();
  Bytes group;
  std::size_t staged = 0;
  for (std::size_t i = 0; i < count; ++i) {
    group.insert(group.end(), record.begin(), record.end());
    if (++staged == kBuildGroupRecords || i + 1 == count) {
      wal.append_group_durable({group.data(), group.size()});
      group.clear();
      staged = 0;
    }
  }
  return {wal.groups_durable(), wal.syscalls()};
}

// A real captured cut (30 fully-connected rounds, GC horizon active), so the
// checkpoint-decode half of recovery pays representative costs.
const Bytes& checkpoint_bytes() {
  static const Bytes encoded = [] {
    DagBuilder builder(4);
    builder.build_fully_connected(30);
    Committee::TestSetup setup = Committee::make_test(4);
    ValidatorConfig config;
    config.observer = true;
    config.committer.gc_depth = 8;
    config.validation.verify_signature = false;
    config.validation.verify_coin_share = false;
    ValidatorCore core(setup.committee, setup.keypairs[0].private_key, config);
    for (Round r = 1; r <= 30; ++r) {
      for (ValidatorId v = 0; v < 4; ++v) {
        core.on_block(builder.dag().slot(r, v).front(), v, 0);
      }
    }
    CheckpointData data = core.capture_checkpoint();
    data.sequence = 1;
    return encode_checkpoint(data);
  }();
  return encoded;
}

// Cross-run quadratic guard: per-record replay time at the largest N must
// stay within an order of magnitude of the smallest-N baseline. Quadratic
// growth (e.g. a reintroduced per-record allocation pattern) trips this at
// ratio ~100.
std::map<std::string, double>& per_record_baseline() {
  static std::map<std::string, double> baseline;
  return baseline;
}

void check_linear(benchmark::State& state, const std::string& series,
                  double per_record_ns) {
  state.counters["PerRecordNs"] = per_record_ns;
  auto [it, inserted] = per_record_baseline().emplace(series, per_record_ns);
  if (!inserted && per_record_ns > 20.0 * it->second) {
    state.SkipWithError("superlinear replay: per-record time grew >20x vs "
                        "the smallest-N baseline");
  }
}

void BM_RecoveryReplayMonolithic(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string dir = bench_dir("mono");
  LogBuildStats build;
  {
    SegmentedWal wal(dir);
    build = write_records(wal, records);
  }
  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    replayed = 0;
    const auto result = SegmentedWal::replay(dir, visitor);
    benchmark::DoNotOptimize(result.records);
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
  if (records > 0) {
    state.counters["LogBuildSyscallsPerRecord"] =
        static_cast<double>(build.syscalls) / static_cast<double>(records);
  }
  if (state.iterations() > 0 && records > 0) {
    check_linear(state, "monolithic",
                 wall_ns / static_cast<double>(state.iterations() * records));
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplayMonolithic)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryReplayCheckpointSuffix(benchmark::State& state) {
  // `records` is the history length; the checkpoint path replays only the
  // bounded suffix regardless — the flat line next to the monolithic series
  // IS the subsystem's value proposition.
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string dir = bench_dir("ckpt");
  LogBuildStats build;
  {
    SegmentedWalOptions options;
    options.segment_bytes = 256 * 1024;
    SegmentedWal seg(dir, options);
    build = write_records(seg, std::min(records, kSuffixRecords));
    CheckpointStore store(dir);
    const Bytes& encoded = checkpoint_bytes();
    store.write(1, {encoded.data(), encoded.size()});
  }
  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  for (auto _ : state) {
    replayed = 0;
    CheckpointStore store(dir);
    auto data = store.load_newest_valid();
    benchmark::DoNotOptimize(data->blocks.size());
    const auto result = SegmentedWal::replay(dir, visitor);
    benchmark::DoNotOptimize(result.records);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * std::min(records, kSuffixRecords)));
  if (const std::size_t suffix = std::min(records, kSuffixRecords); suffix > 0) {
    state.counters["LogBuildSyscallsPerRecord"] =
        static_cast<double>(build.syscalls) / static_cast<double>(suffix);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplayCheckpointSuffix)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// --- Catch-up transfer: monolithic re-send vs delta chain --------------------

// Working set touched between cuts and chain length after the base. Both are
// fixed across N on purpose: the delta path's transfer cost is a function of
// these, not of history length.
constexpr std::size_t kHotKeys = 256;
constexpr std::size_t kCatchupDeltas = 3;

struct CatchupFixture {
  Bytes base;                 // the cut the refreshing peer already holds
  std::vector<Bytes> deltas;  // the links the delta path ships
  Bytes monolithic;           // the full tip cut the monolithic path ships
};

// Real core-driven cuts (four capture points, heads advancing) with the app
// state scaled to `records` keys: the base and monolithic tip carry the full
// snapshot, each delta only the kHotKeys window since the previous cut.
const CatchupFixture& catchup_fixture(std::size_t records) {
  static std::map<std::size_t, CatchupFixture> cache;
  if (auto it = cache.find(records); it != cache.end()) return it->second;

  const Round stage = 8;
  const Round total = stage * (kCatchupDeltas + 2);
  DagBuilder builder(4);
  builder.build_fully_connected(total);
  Committee::TestSetup setup = Committee::make_test(4);
  ValidatorConfig config;
  config.observer = true;
  config.committer.gc_depth = 8;
  config.validation.verify_signature = false;
  config.validation.verify_coin_share = false;
  ValidatorCore core(setup.committee, setup.keypairs[0].private_key, config);

  app::KvStore kv;
  for (std::size_t i = 0; i < records; ++i) {
    kv.apply(app::KvCommand::put("key" + std::to_string(i),
                                 "v" + std::to_string(i)));
  }
  kv.clear_delta_window();

  Round fed = 0;
  std::uint64_t sequence = 0;
  const auto capture = [&](Round upto) {
    for (Round r = fed + 1; r <= upto; ++r) {
      for (ValidatorId v = 0; v < 4; ++v) {
        core.on_block(builder.dag().slot(r, v).front(), v, 0);
      }
    }
    fed = upto;
    CheckpointData data = core.capture_checkpoint();
    data.sequence = ++sequence;
    data.app_state = kv.snapshot_bytes();
    data.app_digest = kv.state_digest();
    return data;
  };

  CatchupFixture fixture;
  CheckpointData prev = capture(stage * 2);
  fixture.base = encode_checkpoint(prev);
  for (std::size_t d = 0; d < kCatchupDeltas; ++d) {
    for (std::size_t i = 0; i < kHotKeys; ++i) {
      kv.apply(app::KvCommand::put(
          "hot" + std::to_string(i),
          std::to_string(d) + ":" + std::to_string(i)));
    }
    Bytes app_delta = kv.delta_bytes();
    kv.clear_delta_window();
    CheckpointData next = capture(stage * (d + 3));
    fixture.deltas.push_back(encode_checkpoint_delta(make_checkpoint_delta(
        prev, next, /*base_sequence=*/1, std::move(app_delta))));
    prev = std::move(next);
  }
  fixture.monolithic = encode_checkpoint(prev);
  return cache.emplace(records, std::move(fixture)).first->second;
}

// Sublinearity gate on the delta series: CatchupBytes at N records must grow
// at less than half the rate of the history vs the smallest-N baseline (the
// links carry the touched window, so the real ratio is ~1x at 100x history).
// The monolithic series records the counter un-gated — it is the linear
// control the table compares against.
std::map<std::string, std::pair<double, double>>& catchup_baseline() {
  static std::map<std::string, std::pair<double, double>> baseline;
  return baseline;
}

void check_catchup_bytes(benchmark::State& state, const std::string& series,
                         double bytes, double records) {
  state.counters["CatchupBytes"] = bytes;
  auto [it, inserted] =
      catchup_baseline().emplace(series, std::make_pair(records, bytes));
  // The harness re-invokes a benchmark at the same N while estimating
  // iteration counts; the ratio test only means something once N grew.
  if (inserted || series != "delta-chain" || records <= it->second.first) return;
  const double record_ratio = records / it->second.first;
  const double byte_ratio = bytes / it->second.second;
  if (byte_ratio > 0.5 * record_ratio) {
    state.SkipWithError(
        "delta catch-up bytes grew superlinearly in history length");
  }
}

void BM_RecoveryCatchupMonolithic(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const CatchupFixture& fixture = catchup_fixture(records);
  for (auto _ : state) {
    // The wire carries the full tip cut; the joiner decodes and restores.
    const CheckpointData tip = decode_checkpoint(
        {fixture.monolithic.data(), fixture.monolithic.size()});
    const app::KvStore kv =
        app::KvStore::restore({tip.app_state.data(), tip.app_state.size()});
    if (kv.state_digest() != tip.app_digest) {
      state.SkipWithError("monolithic catch-up digest mismatch");
      break;
    }
    benchmark::DoNotOptimize(kv.state_digest());
  }
  check_catchup_bytes(state, "monolithic",
                      static_cast<double>(fixture.monolithic.size()),
                      static_cast<double>(records));
}
BENCHMARK(BM_RecoveryCatchupMonolithic)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryCatchupDeltaChain(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const CatchupFixture& fixture = catchup_fixture(records);
  // The joiner's installed state: the chain's base, decoded once.
  const CheckpointData base =
      decode_checkpoint({fixture.base.data(), fixture.base.size()});
  double wire_bytes = 0;
  for (const Bytes& link : fixture.deltas) {
    wire_bytes += static_cast<double>(link.size());
  }
  for (auto _ : state) {
    CheckpointData data = base;
    for (const Bytes& link : fixture.deltas) {
      apply_checkpoint_delta(
          data, decode_checkpoint_delta({link.data(), link.size()}));
    }
    const app::KvStore kv =
        app::KvStore::restore({data.app_state.data(), data.app_state.size()});
    if (kv.state_digest() != data.app_digest) {
      state.SkipWithError("delta-chain catch-up digest mismatch");
      break;
    }
    benchmark::DoNotOptimize(kv.state_digest());
  }
  check_catchup_bytes(state, "delta-chain", wire_bytes,
                      static_cast<double>(records));
}
BENCHMARK(BM_RecoveryCatchupDeltaChain)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
