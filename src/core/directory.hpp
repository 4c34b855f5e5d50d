// Controller-side coherence directory.
//
// Tracks, per logical array, which cluster locations hold an up-to-date
// copy. The invariant "at least one holder" always holds; writers collapse
// the set to themselves; completed transfers add readers.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/location_set.hpp"

namespace grout::core {

using GlobalArrayId = std::uint32_t;

/// What one write did to the holder set — surfaced so the runtime can count
/// directory traffic and emit tenant-tagged trace spans for shared-state
/// contention (invalidation storms are invisible in aggregate bandwidth).
struct WriteEffect {
  std::size_t invalidations{0};   ///< worker replicas dropped by this write
  Bytes invalidated_bytes{0};
  bool ownership_transfer{false}; ///< exclusive ownership moved location
};

class CoherenceDirectory {
 public:
  explicit CoherenceDirectory(std::size_t workers) : workers_{workers} {}

  /// Register an array; initially owned by the controller (where the user
  /// program allocates and initializes it).
  GlobalArrayId register_array(Bytes bytes, std::string name);

  [[nodiscard]] std::size_t array_count() const { return entries_.size(); }
  [[nodiscard]] Bytes bytes_of(GlobalArrayId id) const { return entry(id).bytes; }
  [[nodiscard]] const std::string& name_of(GlobalArrayId id) const { return entry(id).name; }
  [[nodiscard]] const LocationSet& holders(GlobalArrayId id) const { return entry(id).holders; }

  [[nodiscard]] bool up_to_date_on_worker(GlobalArrayId id, std::size_t worker) const {
    return entry(id).holders.worker(worker);
  }
  [[nodiscard]] bool up_to_date_on_controller(GlobalArrayId id) const {
    return entry(id).holders.controller();
  }
  /// Paper Algorithm 1: "upToDateOnlyOnController(param)".
  [[nodiscard]] bool only_on_controller(GlobalArrayId id) const {
    const LocationSet& h = entry(id).holders;
    return h.controller() && h.holder_count() == 1;
  }

  /// A transfer landed on `worker`: it now also holds a valid copy. If the
  /// worker's previous copy was invalidated by a shared write, this re-add is
  /// coherence traffic (a refetch forced by invalidation, not by capacity)
  /// and is counted as such.
  void add_worker_copy(GlobalArrayId id, std::size_t worker) {
    Entry& e = entry_mut(id);
    if (e.invalidated.worker(worker)) {
      e.invalidated.remove_worker(worker);
      ++coherence_refetches_;
      refetched_bytes_ += e.bytes;
    }
    e.holders.add_worker(worker);
    check_invariant(id);
  }
  void add_controller_copy(GlobalArrayId id) {
    entry_mut(id).holders.add_controller();
    check_invariant(id);
  }

  /// Eviction: forget `worker`'s copy. The worker must currently hold one
  /// and must not be the sole holder — dropping the last up-to-date copy
  /// would lose the array (the memory governor spills it to the controller
  /// first).
  void remove_worker_copy(GlobalArrayId id, std::size_t worker) {
    GROUT_REQUIRE(worker < workers_, "worker index out of range");
    LocationSet& h = entry_mut(id).holders;
    GROUT_REQUIRE(h.worker(worker), "worker holds no up-to-date copy to remove");
    GROUT_REQUIRE(h.holder_count() > 1, "refusing to drop the sole up-to-date copy");
    h.remove_worker(worker);
    check_invariant(id);
  }

  /// A CE wrote the array on `worker`: exclusive ownership. Every other
  /// worker's replica is invalidated (it will refetch on next use); the
  /// returned effect reports how much the write cost the rest of the
  /// cluster.
  WriteEffect written_on_worker(GlobalArrayId id, std::size_t worker) {
    Entry& e = entry_mut(id);
    WriteEffect effect;
    e.holders.for_each_worker([&](std::size_t w) {
      if (w == worker) return;
      ++effect.invalidations;
      effect.invalidated_bytes += e.bytes;
      e.invalidated.add_worker(w);
    });
    // The write changed who exclusively owns the array unless the writer
    // was already the sole holder.
    effect.ownership_transfer = !(e.holders.worker(worker) && e.holders.holder_count() == 1);
    e.invalidated.remove_worker(worker);
    e.holders.reset_to_worker(worker);
    record_effect(effect);
    check_invariant(id);
    return effect;
  }
  /// The controller-side program wrote the array (e.g. initialization).
  WriteEffect written_on_controller(GlobalArrayId id) {
    Entry& e = entry_mut(id);
    WriteEffect effect;
    e.holders.for_each_worker([&](std::size_t w) {
      ++effect.invalidations;
      effect.invalidated_bytes += e.bytes;
      e.invalidated.add_worker(w);
    });
    effect.ownership_transfer = !(e.holders.controller() && e.holders.holder_count() == 1);
    e.holders.reset_to_controller();
    record_effect(effect);
    check_invariant(id);
    return effect;
  }

  // Directory-traffic counters: monotone totals since construction. A
  // "coherence refetch" is a worker re-acquiring a copy a write previously
  // invalidated — capacity-driven refetches (governor evictions) are counted
  // separately by the governor.
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  [[nodiscard]] std::uint64_t ownership_transfers() const { return ownership_transfers_; }
  [[nodiscard]] std::uint64_t coherence_refetches() const { return coherence_refetches_; }
  [[nodiscard]] Bytes invalidated_bytes() const { return invalidated_bytes_; }
  [[nodiscard]] Bytes refetched_bytes() const { return refetched_bytes_; }

  /// True while `worker`'s last copy of `id` stands invalidated by a write
  /// (i.e. the next fetch by that worker is coherence traffic).
  [[nodiscard]] bool invalidated_on_worker(GlobalArrayId id, std::size_t worker) const {
    return entry(id).invalidated.worker(worker);
  }

  [[nodiscard]] std::size_t worker_count() const { return workers_; }

 private:
  struct Entry {
    std::string name;
    Bytes bytes{0};
    LocationSet holders;
    /// Workers whose replica a write invalidated and that have not
    /// refetched since.
    LocationSet invalidated;
  };

  void record_effect(const WriteEffect& effect) {
    invalidations_ += effect.invalidations;
    invalidated_bytes_ += effect.invalidated_bytes;
    if (effect.ownership_transfer) ++ownership_transfers_;
  }

  const Entry& entry(GlobalArrayId id) const {
    GROUT_REQUIRE(id < entries_.size(), "unknown global array");
    return entries_[id];
  }
  Entry& entry_mut(GlobalArrayId id) {
    GROUT_REQUIRE(id < entries_.size(), "unknown global array");
    return entries_[id];
  }
  void check_invariant(GlobalArrayId id) const {
    GROUT_CHECK(entry(id).holders.any(), "array lost its last up-to-date copy");
  }

  std::size_t workers_;
  std::vector<Entry> entries_;
  std::uint64_t invalidations_{0};
  std::uint64_t ownership_transfers_{0};
  std::uint64_t coherence_refetches_{0};
  Bytes invalidated_bytes_{0};
  Bytes refetched_bytes_{0};
};

inline GlobalArrayId CoherenceDirectory::register_array(Bytes bytes, std::string name) {
  Entry e;
  e.name = std::move(name);
  e.bytes = bytes;
  e.holders = LocationSet(workers_);
  e.holders.add_controller();
  e.invalidated = LocationSet(workers_);
  entries_.push_back(std::move(e));
  return static_cast<GlobalArrayId>(entries_.size() - 1);
}

}  // namespace grout::core
