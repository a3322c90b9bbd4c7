// A set of job ids for the scheduler's duplicate-start check.
//
// Open addressing with linear probing over a power-of-two table kept at
// most half full, and backward-shift erase (no tombstones), so once the
// table has grown to the peak running count an insert or an erase touches
// one short run of adjacent slots and allocates nothing — where a node-based
// set allocates and frees a node for every job.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "workload/jobs.hpp"

namespace hpcem {

class JobIdSet {
 public:
  /// Add `id`; false (and no change) when it is already in the set.
  [[nodiscard]] bool insert(JobId id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(id);
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].id == id) return false;
    }
    slots_[i] = {id, true};
    ++size_;
    return true;
  }

  /// Remove `id`, which must be in the set.
  void erase(JobId id) {
    HPCEM_ASSERT(size_ > 0, "JobIdSet::erase: id not in the set");
    std::size_t hole = home(id);
    while (slots_[hole].used && slots_[hole].id != id) hole = next(hole);
    HPCEM_ASSERT(slots_[hole].used, "JobIdSet::erase: id not in the set");
    // Pull each later entry of the probe run back into the hole unless its
    // home lies after the hole (then it must stay where probing finds it).
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      if (((j - home(slots_[j].id)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    JobId id;
    bool used;
  };

  /// Fibonacci hashing: the top `bits_` bits of a multiplicative hash, so
  /// consecutive ids spread over the table.
  [[nodiscard]] std::size_t home(JobId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                    (64 - bits_));
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    bits_ = slots_.empty() ? 4 : bits_ + 1;
    std::vector<Slot> old(std::size_t{1} << bits_, Slot{0, false});
    old.swap(slots_);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.used) (void)insert(s.id);
    }
  }

  std::vector<Slot> slots_;
  unsigned bits_ = 0;  ///< log2 of the table size
  std::size_t size_ = 0;
};

}  // namespace hpcem
