// Differential tests for the structural block rules (types/validation.h):
// the allocation-free validate_block_structure against the set-based
// reference in support/validation_oracle.h. On seeded random parent lists —
// duplicate digests (under the same or other labels), future rounds, unknown
// authors, R-1 quorums at 2f and 2f+1, several failures in one list — the
// first failing rule must give the same BlockValidity code.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "common/rng.h"
#include "support/validation_oracle.h"

namespace mahimahi {
namespace {

Digest random_digest(Rng& rng) {
  Digest digest;
  for (std::size_t i = 0; i < digest.bytes.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(digest.bytes.data() + i, &word, 8);
  }
  return digest;
}

class ValidationDifferential : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  ValidationDifferential() : setup_(Committee::make_test(GetParam())) {}

  std::uint32_t n() const { return setup_.committee.size(); }

  BlockPtr make(ValidatorId author, Round round, std::vector<BlockRef> parents) const {
    const ValidatorId signer = author % n();
    return std::make_shared<const Block>(
        Block::make(author, round, std::move(parents), {},
                    setup_.committee.coin().share(signer, round),
                    setup_.keypairs[signer].private_key));
  }

  // `distinct` R-1 authors in shuffled order, each once, plus older parents.
  std::vector<BlockRef> quorum_parents(Round round, std::uint32_t distinct, Rng& rng) const {
    std::vector<ValidatorId> authors(n());
    std::iota(authors.begin(), authors.end(), 0);
    std::shuffle(authors.begin(), authors.end(), rng);
    std::vector<BlockRef> parents;
    for (std::uint32_t i = 0; i < distinct; ++i) {
      parents.push_back({round - 1, authors[i], random_digest(rng)});
    }
    if (round >= 2) parents.push_back({round - 2, authors.back(), random_digest(rng)});
    return parents;
  }

  // One random parent list that may break any rule, several at once (about
  // one broken ref per list, on average).
  std::vector<BlockRef> random_parents(Round round, Rng& rng) const {
    std::vector<BlockRef> parents;
    const auto count = rng.uniform(2 * n() + 4);
    for (std::uint64_t i = 0; i < count; ++i) {
      BlockRef ref{round - 1, static_cast<ValidatorId>(rng.uniform(n())), random_digest(rng)};
      switch (rng.uniform(4 * count + 8)) {
        case 0: ref.author = n() + static_cast<ValidatorId>(rng.uniform(3)); break;
        case 1: ref.round = round + rng.uniform(2); break;
        case 2: ref.round = round == 0 ? 0 : rng.uniform(round); break;
        case 3:
        case 4:
          if (!parents.empty()) {
            // A repeated digest, under the same labels or relabelled.
            const BlockRef& earlier = parents[rng.uniform(parents.size())];
            ref.digest = earlier.digest;
            if (rng.uniform(2) == 0) ref = earlier;
          }
          break;
        default: break;
      }
      parents.push_back(ref);
    }
    return parents;
  }

  void expect_same_verdict(const Block& block) {
    const BlockValidity expected = oracle::validate_block_structure(block, setup_.committee);
    EXPECT_EQ(validate_block_structure(block, setup_.committee), expected)
        << "n=" << n() << " " << block.ref().to_string() << " with "
        << block.parents().size() << " parents: oracle says " << to_string(expected);
    ++verdicts_[expected];
  }

  Committee::TestSetup setup_;
  std::map<BlockValidity, int> verdicts_;
};

TEST_P(ValidationDifferential, RandomParentListsMatchTheOracle) {
  Rng rng(GetParam());
  for (int i = 0; i < 600; ++i) {
    const auto author = static_cast<ValidatorId>(rng.uniform(n() + 1));  // n: unknown
    const Round round = rng.uniform(7);
    expect_same_verdict(*make(author, round, random_parents(round, rng)));
  }
  // The generator reached every structural rule.
  for (const BlockValidity verdict :
       {BlockValidity::kValid, BlockValidity::kUnknownAuthor,
        BlockValidity::kGenesisFromNetwork, BlockValidity::kDuplicateParents,
        BlockValidity::kParentFromFuture, BlockValidity::kParentUnknownAuthor,
        BlockValidity::kInsufficientParentQuorum}) {
    EXPECT_GT(verdicts_[verdict], 0) << "n=" << n() << ": never hit " << to_string(verdict);
  }
}

TEST_P(ValidationDifferential, QuorumBoundaryMatchesTheOracle) {
  Rng rng(GetParam() + 1000);
  const std::uint32_t quorum = setup_.committee.quorum_threshold();
  for (int i = 0; i < 20; ++i) {
    const Round round = 1 + rng.uniform(5);
    const BlockPtr short_of_quorum = make(0, round, quorum_parents(round, quorum - 1, rng));
    const BlockPtr at_quorum = make(0, round, quorum_parents(round, quorum, rng));
    expect_same_verdict(*short_of_quorum);
    expect_same_verdict(*at_quorum);
    EXPECT_EQ(validate_block_structure(*short_of_quorum, setup_.committee),
              BlockValidity::kInsufficientParentQuorum);
    EXPECT_EQ(validate_block_structure(*at_quorum, setup_.committee), BlockValidity::kValid);

    // An R-1 author counted twice (two digests, one label) adds nothing.
    std::vector<BlockRef> repeated = quorum_parents(round, quorum - 1, rng);
    repeated.push_back({round - 1, repeated.front().author, random_digest(rng)});
    expect_same_verdict(*make(0, round, repeated));
  }
}

INSTANTIATE_TEST_SUITE_P(Committees, ValidationDifferential, ::testing::Values(4u, 10u, 50u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

}  // namespace
}  // namespace mahimahi
