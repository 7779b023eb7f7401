#include "precharac/signatures.h"

namespace fav::precharac {

using netlist::NodeId;

SignatureTrace::SignatureTrace(const soc::SocNetlist& soc,
                               const rtl::Program& workload,
                               std::uint64_t max_cycles) {
  const netlist::Netlist& nl = soc.netlist();
  soc::GateLevelMachine gate(soc, workload);

  std::vector<char> prev(nl.node_count(), 0);
  std::vector<BitVector> sigs(nl.node_count());
  // One bit lands per node per cycle; reserving up-front removes every
  // intermediate word reallocation from the recording loop.
  for (BitVector& sig : sigs) sig.reserve(max_cycles);

  std::uint64_t c = 0;
  for (; c < max_cycles && !gate.halted(); ++c) {
    // Settle the cycle's combinational values, sample every node, then
    // finish the cycle on those same settled values.
    gate.settle_inputs();
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      const char v = gate.sim().value(id) ? 1 : 0;
      // Cycle 0 has no predecessor: by convention ss_0 = 0 (no switch).
      sigs[id].push_back(c > 0 && v != prev[id]);
      prev[id] = v;
    }
    gate.clock_edge();
  }
  cycles_ = c;
  signatures_ = std::move(sigs);
}

const BitVector& SignatureTrace::signature(NodeId node) const {
  FAV_ENSURE_MSG(node < signatures_.size(), "node out of range");
  return signatures_[node];
}

double SignatureTrace::correlation(NodeId node, NodeId rs, int frame) const {
  const BitVector& sg = signature(node);
  const BitVector& sr = signature(rs);
  const std::size_t norm = sg.count();
  if (norm == 0) return 0.0;
  const BitVector shifted =
      frame >= 0 ? sr.shifted_down(static_cast<std::size_t>(frame))
                 : sr.shifted_up(static_cast<std::size_t>(-frame));
  return static_cast<double>(sg.and_count(shifted)) /
         static_cast<double>(norm);
}

}  // namespace fav::precharac
