#include "validator/ingest.h"

#include <unordered_set>

#include "common/log.h"

namespace mahimahi {

ScreenedBatch screen_blocks(std::vector<IngestBlock> items, const Committee& committee,
                            const ValidationOptions& options, VerifierCache* cache,
                            obs::LifecycleTracer* tracer) {
  const auto now = [tracer] { return tracer ? steady_now_micros() : TimeMicros{0}; };
  ScreenedBatch batch;
  IngestStats& stats = batch.stats_;
  std::vector<IngestBlock>& kept = batch.blocks_;
  std::vector<BlockPtr> shaped;
  std::unordered_set<Digest, DigestHasher> in_batch;
  for (auto& item : items) {
    if (!in_batch.insert(item.block->digest()).second) continue;
    const TimeMicros start = now();
    const BlockValidity verdict = validate_block_structure(*item.block, committee);
    if (tracer) tracer->record_stage(obs::Stage::kStructural, now() - start);
    if (verdict != BlockValidity::kValid) {
      ++stats.structurally_rejected;
      MM_LOG(kDebug) << "rejected block from v" << item.from << ": " << to_string(verdict);
      continue;
    }
    shaped.push_back(item.block);
    kept.push_back(std::move(item));
  }

  const TimeMicros start = now();
  const CryptoStageResult stage = run_crypto_stage(shaped, committee, options, cache);
  if (tracer && !shaped.empty()) {
    // Batch-amortized: the per-block mean, weighted by the batch size.
    const auto count = static_cast<TimeMicros>(shaped.size());
    tracer->record_stage(obs::Stage::kCryptoVerify, (now() - start) / count, shaped.size());
  }
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (stage.verdicts[i] != BlockValidity::kValid) {
      ++stats.crypto_rejected;
      MM_LOG(kDebug) << "rejected block from v" << kept[i].from << ": "
                     << to_string(stage.verdicts[i]);
      continue;
    }
    if (stage.cache_hit[i]) {
      ++stats.cache_hits;
    } else if (options.verify_signature) {
      ++stats.verified;
    }
    kept[accepted++] = std::move(kept[i]);
  }
  kept.resize(accepted);
  return batch;
}

CryptoStageResult run_crypto_stage(std::span<const BlockPtr> blocks, const Committee& committee,
                                   const ValidationOptions& options, VerifierCache* cache) {
  CryptoStageResult result;
  result.verdicts.assign(blocks.size(), BlockValidity::kValid);
  result.cache_hit.assign(blocks.size(), 0);
  if (blocks.empty()) return result;

  const bool cacheable = cache != nullptr && options.verify_signature;
  std::vector<BlockPtr> hits, misses;
  std::vector<std::size_t> hit_index, miss_index;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (cacheable && cache->check_and_count(blocks[i]->digest())) {
      result.cache_hit[i] = 1;
      hits.push_back(blocks[i]);
      hit_index.push_back(i);
    } else {
      misses.push_back(blocks[i]);
      miss_index.push_back(i);
    }
  }

  // Cache hits: the signature is vouched for, the coin share is not.
  ValidationOptions hit_options = options;
  hit_options.verify_signature = false;
  const auto hit_verdicts = validate_blocks_crypto(hits, committee, hit_options);
  for (std::size_t j = 0; j < hit_index.size(); ++j) {
    result.verdicts[hit_index[j]] = hit_verdicts[j];
  }

  const auto miss_verdicts = validate_blocks_crypto(misses, committee, options);
  for (std::size_t j = 0; j < miss_index.size(); ++j) {
    result.verdicts[miss_index[j]] = miss_verdicts[j];
    if (cacheable && miss_verdicts[j] == BlockValidity::kValid) {
      cache->insert(misses[j]->digest());
    }
  }
  return result;
}

}  // namespace mahimahi
