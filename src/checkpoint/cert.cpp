#include "checkpoint/cert.h"

#include <stdexcept>

#include "serde/serde.h"

namespace mahimahi {

namespace {

// Domain separation for everything this file hashes or signs.
constexpr std::string_view kDecidedDomain = "mm-ckpt-decided-v1";
constexpr std::string_view kCertDomain = "mm-ckpt-cert-v1";

void write_slot(serde::Writer& w, SlotId slot) {
  w.varint(slot.round);
  w.u32(slot.leader_offset);
}

SlotId read_slot(serde::Reader& r) {
  SlotId slot;
  slot.round = r.varint();
  slot.leader_offset = r.u32();
  return slot;
}

BytesView domain_view(std::string_view domain) {
  return {reinterpret_cast<const std::uint8_t*>(domain.data()), domain.size()};
}

}  // namespace

SlotId cut_boundary_slot(std::uint64_t cut_index, Round interval,
                         const CommitterOptions& options) {
  return options.first_slot_at_or_after(cut_index * interval);
}

DecidedLogHasher::DecidedLogHasher() : hasher_(32) {
  hasher_.update(domain_view(kDecidedDomain));
}

void DecidedLogHasher::fold(const DecidedSlot& entry) {
  serde::Writer w;
  write_slot(w, entry.slot);
  w.u32(entry.leader);
  w.u8(static_cast<std::uint8_t>(entry.kind));
  // `via` deliberately excluded (see header).
  if (entry.kind == SlotDecision::Kind::kCommit) {
    w.varint(entry.ref.round);
    w.u32(entry.ref.author);
    w.digest(entry.ref.digest);
  }
  hasher_.update({w.data().data(), w.data().size()});
  ++count_;
}

Digest DecidedLogHasher::digest() const {
  crypto::Blake2b copy = hasher_;  // streaming state is copy-cheap
  Digest out;
  copy.finish(out.bytes.data());
  return out;
}

Bytes encode_cut_payload(const CutPayload& payload) {
  serde::Writer w;
  w.raw(domain_view(kCertDomain));
  w.u64(payload.cut_index);
  write_slot(w, payload.head);
  w.digest(payload.decided_digest);
  w.digest(payload.app_digest);
  return std::move(w).take();
}

Digest cut_payload_digest(const CutPayload& payload) {
  const Bytes encoded = encode_cut_payload(payload);
  return crypto::Blake2b::hash256({encoded.data(), encoded.size()});
}

CutShare sign_cut(const CutPayload& payload, ValidatorId author,
                  const crypto::Ed25519PrivateKey& key) {
  const Bytes message = encode_cut_payload(payload);
  return CutShare{payload, author,
                  crypto::ed25519_sign(key, {message.data(), message.size()})};
}

bool verify_cut_share(const CutShare& share, const Committee& committee) {
  if (!committee.contains(share.author)) return false;
  const Bytes message = encode_cut_payload(share.payload);
  return crypto::ed25519_verify(committee.public_key(share.author),
                                {message.data(), message.size()}, share.signature);
}

Bytes encode_cut_share(const CutShare& share) {
  serde::Writer w;
  w.u64(share.payload.cut_index);
  write_slot(w, share.payload.head);
  w.digest(share.payload.decided_digest);
  w.digest(share.payload.app_digest);
  w.u32(share.author);
  w.raw({share.signature.bytes.data(), share.signature.bytes.size()});
  return std::move(w).take();
}

CutShare decode_cut_share(BytesView payload) {
  serde::Reader r(payload);
  CutShare share;
  share.payload.cut_index = r.u64();
  share.payload.head = read_slot(r);
  share.payload.decided_digest = r.digest();
  share.payload.app_digest = r.digest();
  share.author = r.u32();
  const BytesView sig = r.raw(share.signature.bytes.size());
  std::copy(sig.begin(), sig.end(), share.signature.bytes.begin());
  r.expect_done();
  return share;
}

Bytes encode_checkpoint_certificate(const CheckpointCertificate& cert) {
  serde::Writer w;
  w.u64(cert.payload.cut_index);
  write_slot(w, cert.payload.head);
  w.digest(cert.payload.decided_digest);
  w.digest(cert.payload.app_digest);
  w.varint(cert.multisig.shares.size());
  for (const auto& share : cert.multisig.shares) {
    w.u32(share.signer);
    w.raw({share.signature.bytes.data(), share.signature.bytes.size()});
  }
  return std::move(w).take();
}

CheckpointCertificate decode_checkpoint_certificate(BytesView encoded) {
  serde::Reader r(encoded);
  CheckpointCertificate cert;
  cert.payload.cut_index = r.u64();
  cert.payload.head = read_slot(r);
  cert.payload.decided_digest = r.digest();
  cert.payload.app_digest = r.digest();
  const std::uint64_t count = r.varint();
  constexpr std::size_t kShareBytes = 68;  // signer(4) + signature(64)
  if (count > r.remaining() / kShareBytes) {
    throw serde::SerdeError("certificate: share count exceeds payload");
  }
  cert.multisig.shares.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    crypto::MultisigShare share;
    share.signer = r.u32();
    const BytesView sig = r.raw(share.signature.bytes.size());
    std::copy(sig.begin(), sig.end(), share.signature.bytes.begin());
    cert.multisig.shares.push_back(share);
  }
  r.expect_done();
  return cert;
}

std::string verify_checkpoint_certificate(const CheckpointCertificate& cert,
                                          const Committee& committee) {
  std::vector<crypto::Ed25519PublicKey> keys;
  keys.reserve(committee.size());
  for (ValidatorId id = 0; id < committee.size(); ++id) {
    keys.push_back(committee.public_key(id));
  }
  const Bytes message = encode_cut_payload(cert.payload);
  if (!crypto::multisig_verify(cert.multisig, {message.data(), message.size()},
                               keys, committee.quorum_threshold())) {
    return "certificate: no valid 2f+1 quorum over the payload";
  }
  return {};
}

// --- Chain verification ------------------------------------------------------

namespace {

// Binds one link's certificate to the link's reconstructed content.
std::string check_cert_binding(const CheckpointCertificate& cert,
                               const CheckpointData& link,
                               const DecidedLogHasher& hasher, Round interval,
                               const CommitterOptions& options,
                               std::uint64_t& last_cut_index) {
  if (cert.payload.head != link.head) return "certificate head mismatch";
  if (cut_boundary_slot(cert.payload.cut_index, interval, options) != link.head) {
    return "certificate cut index does not map to the link head";
  }
  if (cert.payload.cut_index <= last_cut_index) {
    return "certificate cut indices not increasing";
  }
  last_cut_index = cert.payload.cut_index;
  if (cert.payload.decided_digest != hasher.digest()) {
    return "certificate decided-log digest mismatch";
  }
  if (cert.payload.app_digest != link.app_digest) {
    return "certificate app digest mismatch";
  }
  return {};
}

// The link's own content claim: app_state must hash to app_digest (or both
// be absent). This holds certified AND uncertified chains to their word.
std::string check_app_binding(const CheckpointData& link) {
  if (link.app_state.empty()) {
    if (link.app_digest != Digest{}) return "app digest without app state";
    return {};
  }
  if (crypto::Blake2b::hash256({link.app_state.data(), link.app_state.size()}) !=
      link.app_digest) {
    return "app state does not hash to its digest";
  }
  return {};
}

}  // namespace

ChainVerifyResult verify_checkpoint_chain(const CheckpointChainFrame& frame,
                                          const Committee& committee,
                                          const CommitterOptions& options,
                                          Round checkpoint_interval,
                                          const ValidationOptions& validation,
                                          VerifierCache* cache) {
  ChainVerifyResult result;
  result.links = frame.links.size();
  if (frame.links.empty()) {
    result.error = "empty chain";
    return result;
  }

  DecidedLogHasher hasher;
  std::uint64_t last_cut_index = 0;
  bool all_certified = checkpoint_interval > 0;

  try {
    for (std::size_t i = 0; i < frame.links.size(); ++i) {
      const auto& link = frame.links[i];
      if (i == 0) {
        result.data = decode_checkpoint({link.record.data(), link.record.size()});
        hasher.fold(result.data.decided.begin(), result.data.decided.end());
      } else {
        const CheckpointDelta delta =
            decode_checkpoint_delta({link.record.data(), link.record.size()});
        apply_checkpoint_delta(result.data, delta);
        hasher.fold(delta.decided_suffix.begin(), delta.decided_suffix.end());
      }

      if (std::string err = check_app_binding(result.data); !err.empty()) {
        result.error = "link " + std::to_string(i) + ": " + err;
        return result;
      }

      if (link.cert.empty()) {
        all_certified = false;
        continue;
      }
      // A present-but-bad certificate is an attack artifact: refuse the
      // whole chain rather than fall back to the legacy trust path.
      const CheckpointCertificate cert =
          decode_checkpoint_certificate({link.cert.data(), link.cert.size()});
      if (std::string err =
              check_cert_binding(cert, result.data, hasher, checkpoint_interval,
                                 options, last_cut_index);
          !err.empty()) {
        result.error = "link " + std::to_string(i) + ": " + err;
        return result;
      }
      if (std::string err = verify_checkpoint_certificate(cert, committee);
          !err.empty()) {
        result.error = "link " + std::to_string(i) + ": " + err;
        return result;
      }
    }
  } catch (const std::exception& error) {
    result.error = std::string("chain reconstruction failed: ") + error.what();
    return result;
  }

  result.error = verify_checkpoint(result.data, committee, options, validation, cache);
  if (!result.error.empty()) return result;

  result.certified = all_certified;
  return result;
}

}  // namespace mahimahi
