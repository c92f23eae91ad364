// Deterministic key-value state machine.
//
// Pure and replayable: the state after applying a command sequence is a
// function of that sequence alone. `state_digest()` folds the full contents
// into one hash, which is how the tests and examples check that validators
// executing the same committed sequence reach identical states (the whole
// point of Byzantine Atomic Broadcast, §2.1).
//
// Layout: an ordered map of key -> Slot, plus a hash index from each key
// (a string_view into its map node) to the node. A command on a key the
// store already holds costs one hash probe; only a key's first sighting
// descends the ordered map. The map keeps snapshot_bytes(), state_digest()
// and delta_bytes() in key order without a sort.
//
// Delta snapshots (checkpoint/delta.h): the delta window lives in the
// entries. A command that changes a key marks its Slot `touched`; a Delete
// leaves a tombstone (absent, touched) instead of erasing the node, so the
// window still reports the key as absent. delta_bytes() is one ordered scan
// that serializes only touched keys (present-with-value or absent), and
// clear_delta_window() unmarks them and erases the tombstones. apply_delta()
// on the previous full state reproduces the current one exactly — including
// `version`, so state_digest() equality is the cross-check.
//
// Copy and move: the index points into the store's own map. Moving keeps
// every map node (and so every index entry) valid, so the defaulted moves
// are correct; a copy rebuilds its index over its own nodes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "app/kv_command.h"
#include "crypto/digest.h"

namespace mahimahi::app {

class KvStore {
 public:
  KvStore() = default;
  KvStore(const KvStore& other);
  KvStore& operator=(const KvStore& other);
  KvStore(KvStore&&) noexcept = default;
  KvStore& operator=(KvStore&&) noexcept = default;

  // Applies one command; returns true if the state changed (a Put of the
  // same value still counts as a change to `version`).
  bool apply(const KvCommand& command);

  std::optional<std::string> get(const std::string& key) const;
  // Live keys (tombstones excluded).
  std::size_t size() const { return live_; }
  // Number of state-changing commands applied (Noop and no-op Deletes are
  // not counted).
  std::uint64_t version() const { return version_; }

  // Deterministic digest of (sorted) contents and version.
  Digest state_digest() const;

  // Full-state serialization for checkpoints (the same deterministic
  // encoding state_digest() hashes): restore() on the snapshot reproduces
  // state_digest() exactly. Throws serde::SerdeError on malformed input,
  // including keys that are not strictly ascending (the canonical order).
  Bytes snapshot_bytes() const;
  static KvStore restore(BytesView snapshot);

  // --- Delta snapshots (incremental checkpoints) ---------------------------

  // Keys whose state changed since the last clear_delta_window() (no-op
  // Deletes and Noops do not count — they changed nothing).
  std::size_t touched_count() const { return touched_.size(); }

  // Serializes `version` plus each touched key with its current outcome
  // (present + value, or absent), in key order. Does NOT clear the window —
  // pair with clear_delta_window() once the delta is safely handed off.
  Bytes delta_bytes() const;

  // Starts a fresh delta window (after a base or delta cut was taken):
  // unmarks the touched keys and erases the tombstones.
  void clear_delta_window();

  // Applies a delta_bytes() record produced on top of this exact state:
  // overwrites/erases the carried keys and adopts the carried version. A
  // restore-path operation — the receiving store's own delta window keeps
  // the same keys. Throws serde::SerdeError on malformed input, including
  // keys that are not strictly ascending.
  void apply_delta(BytesView delta);

 private:
  struct Slot {
    std::string value;
    bool present = false;  // false: a tombstone (always touched)
    bool touched = false;  // changed since the last clear_delta_window()
  };
  using Map = std::map<std::string, Slot, std::less<>>;

  // The entry for `key` (live or tombstone), or entries_.end(): one hash
  // probe.
  Map::iterator find(std::string_view key);
  // The entry for `key`; a new key is inserted absent and untouched, and the
  // caller makes it present.
  Map::iterator find_or_insert(std::string_view key);
  void touch(Map::iterator it);

  Map entries_;
  std::unordered_map<std::string_view, Map::iterator> index_;
  std::vector<Map::iterator> touched_;
  std::size_t live_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace mahimahi::app
