// Block admission's one screening stage, which both drivers run.
//
// screen_blocks takes a batch of received blocks through in-batch dedup
// (first occurrence wins), structural validation (types/validation.h) and
// run_crypto_stage, and returns the survivors as a ScreenedBatch: the only
// input the core admits blocks from (ValidatorCore::on_screened). The
// simulator screens inline through ValidatorCore::on_blocks; the TCP runtime
// screens on a verify worker. No block pays structure or crypto twice, and
// no certificate is ever verified.
//
// run_crypto_stage, shared with checkpoint suffix verification: verifier-
// cache hits (a signature already proven for this digest, possibly by a
// co-located validator sharing the cache) pay the coin-share check only;
// misses batch-verify coin shares and signatures, and the newly proven
// digests enter the cache.
#pragma once

#include <span>
#include <vector>

#include "client/metrics.h"
#include "obs/trace.h"
#include "types/validation.h"
#include "validator/verifier_cache.h"

namespace mahimahi {

// One received block.
struct IngestBlock {
  BlockPtr block;
  ValidatorId from = 0;  // author or relayer (fetch-response sender)
  // The driver's receive stamp, for its lifecycle forensics; 0 = unstamped.
  TimeMicros received_at = 0;
};

// The blocks of one batch that passed the screen, in arrival order, and the
// batch's stage counts (accepted blocks count as verified or cache hits).
class ScreenedBatch {
 public:
  const std::vector<IngestBlock>& blocks() const { return blocks_; }
  const IngestStats& stats() const { return stats_; }

 private:
  friend ScreenedBatch screen_blocks(std::vector<IngestBlock> items, const Committee& committee,
                                     const ValidationOptions& options, VerifierCache* cache,
                                     obs::LifecycleTracer* tracer);
  ScreenedBatch() = default;

  std::vector<IngestBlock> blocks_;
  IngestStats stats_;
};

// `cache` may be null (no caching). A `tracer` gets the structural (per
// block) and crypto (per-block mean) spans on the wall clock; the simulator
// passes none. Thread-safe: the committee is immutable and VerifierCache
// internally locked, so a worker may screen while the core admits.
ScreenedBatch screen_blocks(std::vector<IngestBlock> items, const Committee& committee,
                            const ValidationOptions& options, VerifierCache* cache,
                            obs::LifecycleTracer* tracer = nullptr);

struct CryptoStageResult {
  // One verdict per block: kValid, kBadCoinShare or kBadSignature.
  std::vector<BlockValidity> verdicts;
  // cache_hit[i] != 0 iff block i's signature was vouched by the cache.
  std::vector<char> cache_hit;
};

// Thread-safe under the same terms as screen_blocks.
CryptoStageResult run_crypto_stage(std::span<const BlockPtr> blocks, const Committee& committee,
                                   const ValidationOptions& options, VerifierCache* cache);

}  // namespace mahimahi
