#include "app/kv_store.h"

#include "crypto/blake2b.h"
#include "serde/serde.h"

namespace mahimahi::app {

namespace {

std::string read_string(serde::Reader& r) {
  const Bytes bytes = r.bytes();
  return std::string(bytes.begin(), bytes.end());
}

// Snapshots and deltas list keys in map order; anything else (a repeated
// key, a descending pair) is not an encoding this store produces.
void expect_ascending(const std::string* previous, const std::string& key,
                      const char* what) {
  if (previous != nullptr && !(*previous < key)) {
    throw serde::SerdeError(std::string(what) + ": keys not strictly ascending");
  }
}

}  // namespace

KvStore::KvStore(const KvStore& other)
    : entries_(other.entries_), live_(other.live_), version_(other.version_) {
  // The copied nodes are new: index them, and collect the copied window.
  index_.reserve(entries_.size());
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    index_.emplace(it->first, it);
    if (it->second.touched) touched_.push_back(it);
  }
}

KvStore& KvStore::operator=(const KvStore& other) {
  if (this != &other) *this = KvStore(other);
  return *this;
}

KvStore::Map::iterator KvStore::find(std::string_view key) {
  const auto hit = index_.find(key);
  return hit == index_.end() ? entries_.end() : hit->second;
}

KvStore::Map::iterator KvStore::find_or_insert(std::string_view key) {
  if (const auto hit = index_.find(key); hit != index_.end()) return hit->second;
  const auto it = entries_.try_emplace(std::string(key)).first;
  index_.emplace(it->first, it);
  return it;
}

void KvStore::touch(Map::iterator it) {
  if (it->second.touched) return;
  it->second.touched = true;
  touched_.push_back(it);
}

bool KvStore::apply(const KvCommand& command) {
  switch (command.op) {
    case KvCommand::Op::kPut: {
      const auto it = find_or_insert(command.key);
      Slot& slot = it->second;
      slot.value = command.value;
      if (!slot.present) {
        slot.present = true;
        ++live_;
      }
      touch(it);
      ++version_;
      return true;
    }
    case KvCommand::Op::kDelete: {
      const auto it = find(command.key);
      if (it == entries_.end() || !it->second.present) return false;
      it->second.present = false;
      it->second.value.clear();
      --live_;
      touch(it);
      ++version_;
      return true;
    }
    case KvCommand::Op::kNoop:
      return false;
  }
  return false;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  const auto hit = index_.find(key);
  if (hit == index_.end() || !hit->second->second.present) return std::nullopt;
  return hit->second->second.value;
}

void KvStore::clear_delta_window() {
  for (const auto it : touched_) {
    if (it->second.present) {
      it->second.touched = false;
    } else {
      index_.erase(std::string_view(it->first));
      entries_.erase(it);
    }
  }
  touched_.clear();
}

Digest KvStore::state_digest() const {
  const Bytes encoded = snapshot_bytes();
  return crypto::Blake2b::hash256({encoded.data(), encoded.size()});
}

Bytes KvStore::snapshot_bytes() const {
  // std::map iterates in key order, so the encoding is deterministic.
  serde::Writer w;
  w.u64(version_);
  w.varint(live_);
  for (const auto& [key, slot] : entries_) {
    if (!slot.present) continue;
    w.bytes(as_bytes_view(key));
    w.bytes(as_bytes_view(slot.value));
  }
  return std::move(w).take();
}

KvStore KvStore::restore(BytesView snapshot) {
  serde::Reader r(snapshot);
  KvStore store;
  store.version_ = r.u64();
  const std::uint64_t count = r.varint();
  const std::string* previous = nullptr;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = read_string(r);
    expect_ascending(previous, key, "KvStore snapshot");
    std::string value = read_string(r);
    const auto it = store.entries_.emplace_hint(
        store.entries_.end(), std::move(key),
        Slot{.value = std::move(value), .present = true});
    store.index_.emplace(it->first, it);
    previous = &it->first;
  }
  r.expect_done();
  store.live_ = store.entries_.size();
  return store;
}

Bytes KvStore::delta_bytes() const {
  serde::Writer w;
  w.u64(version_);
  w.varint(touched_.size());
  for (const auto& [key, slot] : entries_) {
    if (!slot.touched) continue;
    w.bytes(as_bytes_view(key));
    w.u8(slot.present ? 1 : 0);
    if (slot.present) w.bytes(as_bytes_view(slot.value));
  }
  return std::move(w).take();
}

void KvStore::apply_delta(BytesView delta) {
  serde::Reader r(delta);
  const std::uint64_t version = r.u64();
  const std::uint64_t count = r.varint();
  std::string previous;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = read_string(r);
    expect_ascending(i == 0 ? nullptr : &previous, key, "KvStore delta");
    if (r.u8() != 0) {
      std::string value = read_string(r);
      const auto it = find_or_insert(key);
      it->second.value = std::move(value);
      if (!it->second.present) {
        it->second.present = true;
        ++live_;
      }
    } else if (const auto it = find(key);
               it != entries_.end() && it->second.present) {
      --live_;
      if (it->second.touched) {
        // Stays in this store's own window, which reports it absent.
        it->second.present = false;
        it->second.value.clear();
      } else {
        index_.erase(std::string_view(it->first));
        entries_.erase(it);
      }
    }
    previous = std::move(key);
  }
  r.expect_done();
  version_ = version;
}

}  // namespace mahimahi::app
