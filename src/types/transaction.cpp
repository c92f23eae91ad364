#include "types/transaction.h"

#include "crypto/blake2bp.h"

namespace mahimahi {

Digest TxBatch::hash_payload(BytesView payload) {
  static const Digest kEmpty = crypto::bulk_hash256({});
  return payload.empty() ? kEmpty : crypto::bulk_hash256(payload);
}

}  // namespace mahimahi
