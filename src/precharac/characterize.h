// Register characterization: error lifetime and error contamination number
// (paper Section 4, Observation 3 / step 3).
//
// For every sequential bit, bit errors are injected at a sweep of cycles of
// a synthetic workload (fast RTL-level simulation); for each injection we
// measure:
//  * error lifetime  — cycles until the register state re-converges to the
//    golden trajectory (capped at a horizon; the cap reads as "long/infinite"),
//  * contamination   — number of *other* architectural registers that ever
//    diverge from golden before re-convergence.
// Registers with long lifetime and ~zero contamination are classified as
// memory-type (their attack outcome is evaluated analytically); the rest are
// computation-type (sampled).
//
// The kernel compares masked field values against a per-cycle golden field
// table (no packing, no allocation per injection) and runs the bits on a
// worker pool. Each bit's injections accumulate in cycle order on one
// worker, so the result is bitwise-identical at every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtl/golden.h"
#include "rtl/machine.h"

namespace fav::precharac {

struct CharacterizationConfig {
  /// Forward-simulation horizon per injection; lifetimes cap here.
  std::uint64_t horizon = 200;
  /// Injection cycles: first_cycle, first_cycle + stride, ...
  std::uint64_t first_cycle = 2;
  std::uint64_t stride = 13;
  /// Classification thresholds (Observation 3: "long lifetime and
  /// close-to-0 contamination number").
  double lifetime_threshold = 100.0;
  double contamination_threshold = 0.5;
};

struct BitCharacterization {
  double avg_lifetime = 0.0;
  double max_lifetime = 0.0;
  double avg_contamination = 0.0;
  int samples = 0;
};

class RegisterCharacterization {
 public:
  /// Characterizes the given flat register-map bits (all bits if empty)
  /// against `golden` (the synthetic-workload golden run), on `threads`
  /// workers (0 = all hardware threads). The thread count never changes a
  /// bit of the result. Each bit may be listed at most once; a duplicate or
  /// out-of-range bit throws CheckError before any work starts.
  RegisterCharacterization(const rtl::GoldenRun& golden,
                           const CharacterizationConfig& config = {},
                           std::vector<int> bits = {},
                           std::size_t threads = 1);

  /// Rebuilds a characterization from previously measured per-bit results
  /// (the artifact-cache load path); both vectors are indexed by flat bit
  /// and must cover the full register map.
  RegisterCharacterization(const CharacterizationConfig& config,
                           std::vector<BitCharacterization> bits,
                           std::vector<char> done);

  const CharacterizationConfig& config() const { return config_; }

  bool characterized(int flat_bit) const;
  const BitCharacterization& bit(int flat_bit) const;

  /// Memory-type test per the thresholds; bits that were not characterized
  /// are conservatively computation-type.
  bool is_memory_type(int flat_bit) const;
  std::vector<int> memory_type_bits() const;

  /// Lifetime assigned to a bit for the sampling weights' L(g): average
  /// lifetime, or 0 for uncharacterized bits.
  double lifetime(int flat_bit) const;

  /// Raw per-bit storage, indexed by flat bit (artifact serialization).
  const std::vector<BitCharacterization>& raw_bits() const { return bits_; }
  const std::vector<char>& raw_done() const { return done_; }

 private:
  CharacterizationConfig config_;
  std::vector<BitCharacterization> bits_;  // indexed by flat bit
  std::vector<char> done_;
};

}  // namespace fav::precharac
