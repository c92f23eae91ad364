#include "wal/wal.h"

#include <cstring>

#include "common/crc32.h"
#include "serde/serde.h"

namespace mahimahi {

namespace {

// Fills in the [u32 len][u32 crc] header of a record whose payload already
// follows it in `record`.
void seal_record(Bytes& record) {
  const BytesView payload{record.data() + 8, record.size() - 8};
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  std::memcpy(record.data(), &len, 4);
  std::memcpy(record.data() + 4, &crc, 4);
}

}  // namespace

Bytes wal_frame_record(BytesView payload) {
  Bytes framed(8 + payload.size());
  std::memcpy(framed.data() + 8, payload.data(), payload.size());
  seal_record(framed);
  return framed;
}

Bytes wal_encode_block_record(const Block& block, bool own) {
  // One exact-size pass: header space, record type, then the block encoded
  // straight into the record.
  const std::size_t block_size = block.encoded_size();
  serde::Writer w(8 + 1 + serde::varint_size(block_size) + block_size);
  w.u64(0);  // [u32 len][u32 crc], sealed below
  w.u8(static_cast<std::uint8_t>(own ? WalRecordType::kOwnBlock
                                     : WalRecordType::kReceivedBlock));
  w.varint(block_size);
  block.serialize_into(w);
  Bytes record = std::move(w).take();
  seal_record(record);
  return record;
}

}  // namespace mahimahi
