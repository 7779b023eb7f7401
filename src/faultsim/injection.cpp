#include "faultsim/injection.h"

#include <algorithm>
#include <bit>

namespace fav::faultsim {

using netlist::CellType;
using netlist::Netlist;
using netlist::NodeId;

void BatchInjectionScratch::prepare(std::size_t node_count,
                                    std::size_t gate_count) {
  for (NodeId id : touched_) pulses_[id].clear();
  touched_.clear();
  pulses_.resize(node_count);
  frontier_.assign((gate_count + 63) / 64, 0);
}

InjectionSimulator::InjectionSimulator(const Netlist& nl,
                                       const TimingModel& timing_model,
                                       const TransientParams& params)
    : nl_(&nl), timing_(nl, timing_model), params_(params) {
  FAV_ENSURE(params.initial_width > 0);
  FAV_ENSURE(params.max_pulses_per_node >= 1);
  const std::vector<NodeId>& topo = nl.topo_order();
  std::vector<std::uint32_t> pos(nl.node_count(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    pos[topo[i]] = static_cast<std::uint32_t>(i);
  }
  // Every consumer is either a DFF or a combinational gate of topo_order().
  const auto& fanouts = nl.fanouts();
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    gate_fanout_begin_.push_back(
        static_cast<std::uint32_t>(gate_fanout_pos_.size()));
    dff_fanout_begin_.push_back(static_cast<std::uint32_t>(dff_fanout_.size()));
    for (const Netlist::FanoutEdge& e : fanouts[id]) {
      if (nl.is_dff(e.consumer)) {
        dff_fanout_.push_back(e.consumer);
      } else {
        gate_fanout_pos_.push_back(pos[e.consumer]);
      }
    }
  }
  gate_fanout_begin_.push_back(
      static_cast<std::uint32_t>(gate_fanout_pos_.size()));
  dff_fanout_begin_.push_back(static_cast<std::uint32_t>(dff_fanout_.size()));
}

bool InjectionSimulator::sensitized(const netlist::LogicSimulator& sim,
                                    NodeId node, int pin) const {
  const auto& n = nl_->node(node);
  if (n.type == CellType::kMux) {
    // Pin 0 = select, 1 = a (sel=0), 2 = b (sel=1).
    const bool sel = sim.value(n.fanins[0]);
    if (pin == 0) {
      // A glitching select only matters if the two data inputs differ.
      return sim.value(n.fanins[1]) != sim.value(n.fanins[2]);
    }
    return (pin == 2) == sel;  // the unselected data pin is masked
  }
  for (int j = 0; j < static_cast<int>(n.fanins.size()); ++j) {
    if (j == pin) continue;
    if (netlist::is_controlling_value(n.type, j, sim.value(n.fanins[j]))) {
      return false;  // a controlling side input absorbs the glitch
    }
  }
  return true;
}

std::uint64_t InjectionSimulator::sensitized_mask(
    const netlist::WordSimulator& sim, NodeId node, int pin) const {
  const auto& n = nl_->node(node);
  if (n.type == CellType::kMux) {
    const std::uint64_t sel = sim.word(n.fanins[0]);
    if (pin == 0) {
      // A glitching select only matters where the two data inputs differ.
      return sim.word(n.fanins[1]) ^ sim.word(n.fanins[2]);
    }
    return pin == 2 ? sel : ~sel;  // the unselected data pin is masked
  }
  std::uint64_t mask = ~std::uint64_t{0};
  for (int j = 0; j < static_cast<int>(n.fanins.size()); ++j) {
    if (j == pin) continue;
    const std::uint64_t w = sim.word(n.fanins[j]);
    // A controlling side input absorbs the glitch in that lane.
    if (netlist::is_controlling_value(n.type, j, false)) mask &= w;
    if (netlist::is_controlling_value(n.type, j, true)) mask &= ~w;
  }
  return mask;
}

void InjectionSimulator::add_pulse(std::vector<Pulse>& list, Pulse p) const {
  // Union-merge transitively: absorbing one neighbour can widen p into the
  // next, so rescan from the top until no entry overlaps.
  bool merged = true;
  while (merged) {
    merged = false;
    for (auto it = list.begin(); it != list.end(); ++it) {
      const double q_end = it->start + it->width;
      const double p_end = p.start + p.width;
      if (p.start <= q_end && it->start <= p_end) {
        const double lo = std::min(it->start, p.start);
        const double hi = std::max(q_end, p_end);
        p.start = lo;
        p.width = hi - lo;
        list.erase(it);
        merged = true;
        break;
      }
    }
  }
  if (static_cast<int>(list.size()) < params_.max_pulses_per_node) {
    list.push_back(p);
    return;
  }
  // Keep the widest pulses (widest are hardest to mask downstream).
  auto narrowest = std::min_element(
      list.begin(), list.end(),
      [](const Pulse& a, const Pulse& b) { return a.width < b.width; });
  if (narrowest->width < p.width) *narrowest = p;
}

void InjectionSimulator::add_pulse_lane(
    std::vector<BatchInjectionScratch::LanePulse>& list, Pulse p,
    int lane) const {
  // Same transitive merge as add_pulse, restricted to this lane's entries.
  // Same-lane entries keep the relative order a private per-lane list would
  // have (append + erase preserve it), so merge order, the cap check, and
  // which entry min_element picks all match the reference inject() exactly.
  bool merged = true;
  while (merged) {
    merged = false;
    for (auto it = list.begin(); it != list.end(); ++it) {
      if (it->lane != lane) continue;
      const double q_end = it->pulse.start + it->pulse.width;
      const double p_end = p.start + p.width;
      if (p.start <= q_end && it->pulse.start <= p_end) {
        const double lo = std::min(it->pulse.start, p.start);
        const double hi = std::max(q_end, p_end);
        p.start = lo;
        p.width = hi - lo;
        list.erase(it);
        merged = true;
        break;
      }
    }
  }
  int lane_count = 0;
  for (const auto& e : list) {
    if (e.lane == lane) ++lane_count;
  }
  if (lane_count < params_.max_pulses_per_node) {
    list.push_back({p, lane});
    return;
  }
  auto narrowest = list.end();
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (it->lane != lane) continue;
    if (narrowest == list.end() || it->pulse.width < narrowest->pulse.width) {
      narrowest = it;
    }
  }
  if (narrowest->pulse.width < p.width) narrowest->pulse = p;
}

InjectionResult InjectionSimulator::inject(const netlist::LogicSimulator& sim,
                                           std::span<const NodeId> struck,
                                           double strike_time) const {
  FAV_ENSURE_MSG(strike_time >= 0.0, "strike time must be non-negative");
  InjectionResult result;

  std::vector<std::vector<Pulse>> pulses(nl_->node_count());
  std::vector<NodeId> flips;

  for (NodeId g : struck) {
    const auto& n = nl_->node(g);
    if (n.type == CellType::kDff) {
      ++result.struck_dffs;
      if (std::find(flips.begin(), flips.end(), g) == flips.end()) {
        flips.push_back(g);
        ++result.direct_flips;
      }
    } else if (netlist::is_combinational_gate(n.type)) {
      ++result.struck_gates;
      add_pulse(pulses[g], {std::max(strike_time, timing_.arrival(g)),
                            params_.initial_width});
    }
  }

  // Topological sweep: every gate is visited after all producers, so pulse
  // lists are final when consumed.
  const TimingModel& tm = timing_.model();
  for (NodeId id : nl_->topo_order()) {
    const auto& n = nl_->node(id);
    for (int pin = 0; pin < static_cast<int>(n.fanins.size()); ++pin) {
      const auto& in_pulses = pulses[n.fanins[pin]];
      if (in_pulses.empty()) continue;
      if (!sensitized(sim, id, pin)) continue;
      for (const Pulse& p : in_pulses) {
        const double width = p.width - tm.attenuation;
        if (width < tm.min_pulse_width) continue;  // electrically masked
        add_pulse(pulses[id], {p.start + tm.delay(n.type), width});
      }
    }
  }

  // Latching-window check at every DFF D input.
  const double window_lo = timing_.clock_period() - tm.setup_time;
  const double window_hi = timing_.clock_period() + tm.hold_time;
  for (NodeId dff : nl_->dffs()) {
    const NodeId d = nl_->node(dff).fanins[0];
    for (const Pulse& p : pulses[d]) {
      if (p.start <= window_hi && window_lo <= p.start + p.width) {
        if (std::find(flips.begin(), flips.end(), dff) == flips.end()) {
          flips.push_back(dff);
          ++result.latched_flips;
        }
        break;
      }
    }
  }

  std::sort(flips.begin(), flips.end());
  result.flipped_dffs = std::move(flips);
  return result;
}

void InjectionSimulator::inject_batch(
    const netlist::WordSimulator& sim,
    std::span<const std::vector<NodeId>> struck,
    std::span<const double> strike_times, BatchInjectionScratch& scratch,
    std::vector<std::vector<NodeId>>& flipped) const {
  const int lanes = static_cast<int>(struck.size());
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  FAV_ENSURE_MSG(strike_times.size() == struck.size(),
                 "one strike time per lane required");

  const std::vector<NodeId>& topo = nl_->topo_order();
  scratch.prepare(nl_->node_count(), topo.size());
  auto& pulses = scratch.pulses_;
  auto& frontier = scratch.frontier_;
  const auto add = [&](NodeId id, Pulse p, int lane) {
    if (pulses[id].empty()) {
      // A net's first pulse puts its consumers on the frontier; a list never
      // empties again within the call.
      scratch.touched_.push_back(id);
      for (std::uint32_t k = gate_fanout_begin_[id];
           k < gate_fanout_begin_[id + 1]; ++k) {
        const std::uint32_t pos = gate_fanout_pos_[k];
        frontier[pos / 64] |= std::uint64_t{1} << (pos % 64);
      }
    }
    add_pulse_lane(pulses[id], p, lane);
  };

  flipped.resize(struck.size());
  for (auto& f : flipped) f.clear();

  for (int lane = 0; lane < lanes; ++lane) {
    FAV_ENSURE_MSG(strike_times[lane] >= 0.0,
                   "strike time must be non-negative");
    for (NodeId g : struck[lane]) {
      const auto& n = nl_->node(g);
      if (n.type == CellType::kDff) {
        flipped[lane].push_back(g);  // duplicates collapse in the final sort
      } else if (netlist::is_combinational_gate(n.type)) {
        add(g, {std::max(strike_times[lane], timing_.arrival(g)),
                params_.initial_width},
            lane);
      }
    }
  }

  // One topological sweep serves every lane: sensitization becomes a word
  // mask, and each lane-tagged pulse propagates only where its lane's side
  // inputs let it through. The sweep visits only frontier gates, in
  // increasing topological position: a visit marks only later positions
  // (consumers follow their producers), so re-reading the current word
  // picks them up, and the bitmap ends the call all zero.
  const TimingModel& tm = timing_.model();
  for (std::size_t w = 0; w < frontier.size(); ++w) {
    while (frontier[w] != 0) {
      const int bit = std::countr_zero(frontier[w]);
      frontier[w] &= frontier[w] - 1;
      const NodeId id = topo[w * 64 + static_cast<std::size_t>(bit)];
      const auto& n = nl_->node(id);
      for (int pin = 0; pin < static_cast<int>(n.fanins.size()); ++pin) {
        const auto& in_pulses = pulses[n.fanins[pin]];
        if (in_pulses.empty()) continue;
        const std::uint64_t sens = sensitized_mask(sim, id, pin);
        if (sens == 0) continue;
        for (const auto& e : in_pulses) {
          if (((sens >> e.lane) & 1u) == 0) continue;  // logically masked
          const double width = e.pulse.width - tm.attenuation;
          if (width < tm.min_pulse_width) continue;  // electrically masked
          add(id, {e.pulse.start + tm.delay(n.type), width}, e.lane);
        }
      }
    }
  }

  // Latching-window check at every DFF whose D net carries a pulse; the
  // per-DFF mask mirrors the reference's "first latching pulse wins, insert
  // once" set semantics.
  const double window_lo = timing_.clock_period() - tm.setup_time;
  const double window_hi = timing_.clock_period() + tm.hold_time;
  for (const NodeId d : scratch.touched_) {
    const std::uint32_t first = dff_fanout_begin_[d];
    const std::uint32_t last = dff_fanout_begin_[d + 1];
    if (first == last) continue;  // drives no register
    std::uint64_t latched = 0;
    for (const auto& e : pulses[d]) {
      if (e.pulse.start <= window_hi &&
          window_lo <= e.pulse.start + e.pulse.width) {
        latched |= std::uint64_t{1} << e.lane;
      }
    }
    for (; latched != 0; latched &= latched - 1) {
      auto& lane_flips = flipped[std::countr_zero(latched)];
      for (std::uint32_t k = first; k < last; ++k) {
        lane_flips.push_back(dff_fanout_[k]);
      }
    }
  }

  for (auto& f : flipped) {
    std::sort(f.begin(), f.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
  }
}

}  // namespace fav::faultsim
