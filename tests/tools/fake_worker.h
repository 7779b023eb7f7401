// The synthetic campaign shared by the supervisor protocol test and its
// scripted worker (fake_worker.cpp): sample i and the record a worker
// returns for it are pure functions of i.
#pragma once

#include <cstdint>

#include "mc/evaluator.h"

namespace fav::mc::fake {

inline faultsim::FaultSample sample(std::uint64_t i) {
  faultsim::FaultSample s;
  s.t = static_cast<int>(i % 7);
  s.center = static_cast<netlist::NodeId>(i + 1);
  s.radius = 1.5;
  s.weight = 1.0 + static_cast<double>(i % 3);
  return s;
}

inline SampleRecord record(std::uint64_t i) {
  SampleRecord rec;
  rec.sample = sample(i);
  rec.path = OutcomePath::kMasked;
  return rec;
}

}  // namespace fav::mc::fake
