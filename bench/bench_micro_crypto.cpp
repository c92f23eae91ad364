// Microbenchmarks: cryptographic substrate (google-benchmark).
//
// The paper argues uncertified DAGs save certificate-verification CPU; these
// numbers quantify this implementation's primitive costs (§4 discussion).
#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "crypto/blake2b.h"
#include "crypto/blake2bp.h"
#include "crypto/coin.h"
#include "crypto/ed25519.h"
#include "crypto/sha512.h"

namespace {

using namespace mahimahi;
using namespace mahimahi::crypto;

Bytes make_input(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<std::uint8_t>(i * 31);
  return data;
}

// The bulk-hash series: sequential BLAKE2b, and BLAKE2bp through the
// dispatched stripe kernel (AVX2 where the host has it) and through the
// scalar leaves. NsPerByte is the CI gate's unit (scripts/run_benches.py):
// BLAKE2bp must beat BLAKE2b per byte on a 256 KiB block. The 1-2 KiB sizes
// bracket kBulkHashCrossover, where the two cost the same.
void hash_series(benchmark::State& state, Digest (*hash)(BytesView)) {
  const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash({input.data(), input.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
  // Seconds per (bytes / 1e9), i.e. nanoseconds per byte.
  state.counters["NsPerByte"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_Blake2b256(benchmark::State& state) { hash_series(state, &Blake2b::hash256); }
void BM_Blake2bp256(benchmark::State& state) { hash_series(state, &Blake2bp::hash256); }
void BM_Blake2bp256Portable(benchmark::State& state) {
  hash_series(state, &Blake2bp::hash256_portable);
}
#define MM_HASH_SIZES \
  ->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(65536)->Arg(262144)
BENCHMARK(BM_Blake2b256) MM_HASH_SIZES;
BENCHMARK(BM_Blake2bp256) MM_HASH_SIZES;
BENCHMARK(BM_Blake2bp256Portable) MM_HASH_SIZES;
#undef MM_HASH_SIZES

void BM_Sha512(benchmark::State& state) {
  const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash({input.data(), input.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(512)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32({input.data(), input.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096);

void BM_Ed25519Keygen(benchmark::State& state) {
  std::array<std::uint8_t, 32> seed{};
  std::uint8_t counter = 0;
  for (auto _ : state) {
    seed[0] = ++counter;
    benchmark::DoNotOptimize(ed25519_keypair_from_seed(seed));
  }
}
BENCHMARK(BM_Ed25519Keygen);

void BM_Ed25519Sign(benchmark::State& state) {
  std::array<std::uint8_t, 32> seed{};
  const auto keypair = ed25519_keypair_from_seed(seed);
  const Bytes message = make_input(32);  // blocks sign their 32-byte digest
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_sign(keypair.private_key, {message.data(), message.size()}));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  std::array<std::uint8_t, 32> seed{};
  const auto keypair = ed25519_keypair_from_seed(seed);
  const Bytes message = make_input(32);
  const auto signature =
      ed25519_sign(keypair.private_key, {message.data(), message.size()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_verify(keypair.public_key, {message.data(), message.size()}, signature));
  }
}
BENCHMARK(BM_Ed25519Verify);

// --- Batch verification ------------------------------------------------------
//
// The ingestion pipeline's headline win: verifying a worker batch of blocks
// as one random-linear-combination check. `authors` models the committee —
// a 64-block batch from 10 validators collapses to 10 public-key scalar
// multiplications plus one fixed-base term.

struct BatchFixture {
  std::vector<Ed25519Keypair> keypairs;
  std::vector<Bytes> messages;
  std::vector<Ed25519BatchItem> items;
};

BatchFixture make_batch(std::size_t count, std::size_t authors) {
  BatchFixture fixture;
  std::array<std::uint8_t, 32> seed{};
  for (std::size_t a = 0; a < authors; ++a) {
    seed[0] = static_cast<std::uint8_t>(a + 1);
    fixture.keypairs.push_back(ed25519_keypair_from_seed(seed));
  }
  for (std::size_t i = 0; i < count; ++i) {
    Bytes message = make_input(32);  // blocks sign their 32-byte digest
    message[0] = static_cast<std::uint8_t>(i);
    fixture.messages.push_back(std::move(message));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const auto& kp = fixture.keypairs[i % authors];
    const auto& message = fixture.messages[i];
    fixture.items.push_back({kp.public_key, {message.data(), message.size()},
                             ed25519_sign(kp.private_key, {message.data(), message.size()})});
  }
  return fixture;
}

// Baseline: the pre-pipeline ingestion cost — one ed25519_verify per block.
void BM_Ed25519VerifySingleLoop(benchmark::State& state) {
  const auto fixture = make_batch(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    bool all = true;
    for (const auto& item : fixture.items) {
      all &= ed25519_verify(item.key, item.message, item.signature);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Ed25519VerifySingleLoop)
    ->ArgsProduct({{16, 64}, {10}})
    ->ArgNames({"batch", "authors"});

void BM_Ed25519VerifyBatch(benchmark::State& state) {
  const auto fixture = make_batch(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify_batch(fixture.items));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Ed25519VerifyBatch)
    ->ArgsProduct({{16, 64}, {10}})      // committee-shaped: authors repeat
    ->ArgNames({"batch", "authors"});
BENCHMARK(BM_Ed25519VerifyBatch)
    ->Args({64, 64})                     // worst case: all keys distinct
    ->ArgNames({"batch", "authors"});

void BM_CoinVerifySharesBatch(benchmark::State& state) {
  const ThresholdCoin coin(50, 16, Blake2b::hash256(as_bytes_view("bench")));
  std::vector<ThresholdCoin::ShareQuery> queries;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const std::uint32_t author = i % 10;
    queries.push_back({author, i / 10 + 1, coin.share(author, i / 10 + 1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.verify_shares(queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CoinVerifySharesBatch);

void BM_CoinShare(benchmark::State& state) {
  const ThresholdCoin coin(50, 16, Blake2b::hash256(as_bytes_view("bench")));
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.share(3, ++round));
  }
}
BENCHMARK(BM_CoinShare);

void BM_CoinCombine(benchmark::State& state) {
  const std::uint32_t n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t f = (n - 1) / 3;
  const ThresholdCoin coin(n, f, Blake2b::hash256(as_bytes_view("bench")));
  std::vector<std::pair<std::uint32_t, CoinShare>> shares;
  for (std::uint32_t a = 0; a < 2 * f + 1; ++a) shares.emplace_back(a, coin.share(a, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.combine(9, shares));
  }
}
BENCHMARK(BM_CoinCombine)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
