#include "netlist/logicsim.h"

#include <algorithm>

namespace fav::netlist {

LogicSimulator::LogicSimulator(const Netlist& nl)
    : nl_(&nl), values_(nl.node_count(), 0) {
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == CellType::kConst1) values_[id] = 1;
  }
  nl.topo_order();  // force cycle check up-front
}

bool LogicSimulator::value(NodeId id) const {
  FAV_ENSURE(id < values_.size());
  return values_[id] != 0;
}

void LogicSimulator::set_register(NodeId dff, bool value) {
  FAV_ENSURE_MSG(nl_->is_dff(dff), "node is not a DFF");
  values_[dff] = value ? 1 : 0;
}

void LogicSimulator::set_input(NodeId input, bool value) {
  FAV_ENSURE_MSG(nl_->node(input).type == CellType::kInput,
                "node is not a primary input");
  values_[input] = value ? 1 : 0;
}

void LogicSimulator::set_input(const std::string& name, bool value) {
  set_input(nl_->find_or_throw(name), value);
}

void LogicSimulator::evaluate_comb() {
  for (NodeId id : nl_->topo_order()) {
    const Node& n = nl_->node(id);
    bool ins[3];
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      ins[i] = values_[n.fanins[i]] != 0;
    }
    values_[id] = eval_cell(n.type, {ins, n.fanins.size()}) ? 1 : 0;
  }
}

void LogicSimulator::clock_edge() {
  // Two passes so that DFF-to-DFF chains latch the pre-edge values.
  latch_scratch_.clear();
  for (NodeId dff : nl_->dffs()) {
    const Node& n = nl_->node(dff);
    FAV_ENSURE_MSG(!n.fanins.empty(), "DFF '" << n.name << "' has no D input");
    latch_scratch_.push_back(values_[n.fanins[0]]);
  }
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = latch_scratch_[k++];
}

void LogicSimulator::step() {
  evaluate_comb();
  clock_edge();
}

bool LogicSimulator::output(const std::string& name) const {
  return value(nl_->find_or_throw(name));
}

std::vector<bool> LogicSimulator::register_state() const {
  std::vector<bool> out;
  out.reserve(nl_->dffs().size());
  for (NodeId dff : nl_->dffs()) out.push_back(values_[dff] != 0);
  return out;
}

void LogicSimulator::load_register_state(const std::vector<bool>& state) {
  FAV_ENSURE_MSG(state.size() == nl_->dffs().size(),
                "register state size mismatch");
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = state[k++] ? 1 : 0;
}

void LogicSimulator::pack_values(std::vector<std::uint64_t>& bits) const {
  bits.assign((values_.size() + 63) / 64, 0);
  for (std::size_t w = 0; w < bits.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t n = std::min<std::size_t>(64, values_.size() - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < n; ++b) {
      word |= static_cast<std::uint64_t>(values_[base + b] & 1) << b;
    }
    bits[w] = word;
  }
}

WordSimulator::WordSimulator(const Netlist& nl)
    : nl_(&nl), values_(nl.node_count(), 0) {
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == CellType::kConst1) values_[id] = ~std::uint64_t{0};
  }
  nl.topo_order();  // force cycle check up-front
}

std::uint64_t WordSimulator::word(NodeId id) const {
  FAV_ENSURE(id < values_.size());
  return values_[id];
}

bool WordSimulator::value(NodeId id, int lane) const {
  FAV_ENSURE(id < values_.size());
  FAV_ENSURE(lane >= 0 && lane < 64);
  return (values_[id] >> lane) & 1u;
}

void WordSimulator::set_register_word(NodeId dff, std::uint64_t word) {
  FAV_ENSURE_MSG(nl_->is_dff(dff), "node is not a DFF");
  values_[dff] = word;
}

void WordSimulator::set_input_word(NodeId input, std::uint64_t word) {
  FAV_ENSURE_MSG(nl_->node(input).type == CellType::kInput,
                "node is not a primary input");
  values_[input] = word;
}

void WordSimulator::set_register_lane(NodeId dff, int lane, bool value) {
  FAV_ENSURE_MSG(nl_->is_dff(dff), "node is not a DFF");
  FAV_ENSURE(lane >= 0 && lane < 64);
  const std::uint64_t mask = std::uint64_t{1} << lane;
  if (value) {
    values_[dff] |= mask;
  } else {
    values_[dff] &= ~mask;
  }
}

void WordSimulator::set_input_lane(NodeId input, int lane, bool value) {
  FAV_ENSURE_MSG(nl_->node(input).type == CellType::kInput,
                "node is not a primary input");
  FAV_ENSURE(lane >= 0 && lane < 64);
  const std::uint64_t mask = std::uint64_t{1} << lane;
  if (value) {
    values_[input] |= mask;
  } else {
    values_[input] &= ~mask;
  }
}

void WordSimulator::broadcast_from(const LogicSimulator& scalar) {
  FAV_ENSURE_MSG(nl_ == &scalar.netlist(), "netlist mismatch in broadcast");
  for (NodeId id = 0; id < nl_->node_count(); ++id) {
    values_[id] = scalar.value(id) ? ~std::uint64_t{0} : 0;
  }
}

void WordSimulator::broadcast_packed(std::span<const std::uint64_t> bits) {
  FAV_ENSURE_MSG(bits.size() == (values_.size() + 63) / 64,
                 "packed snapshot size mismatch in broadcast");
  for (std::size_t w = 0; w < bits.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t n = std::min<std::size_t>(64, values_.size() - base);
    for (std::size_t b = 0; b < n; ++b) {
      values_[base + b] = std::uint64_t{0} - ((bits[w] >> b) & 1u);
    }
  }
}

void WordSimulator::evaluate_comb() {
  for (NodeId id : nl_->topo_order()) {
    const Node& n = nl_->node(id);
    std::uint64_t ins[3];
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      ins[i] = values_[n.fanins[i]];
    }
    values_[id] = eval_cell_words(n.type, {ins, n.fanins.size()});
  }
}

void WordSimulator::clock_edge() {
  // Two passes so that DFF-to-DFF chains latch the pre-edge values.
  latch_scratch_.clear();
  for (NodeId dff : nl_->dffs()) {
    const Node& n = nl_->node(dff);
    FAV_ENSURE_MSG(!n.fanins.empty(), "DFF '" << n.name << "' has no D input");
    latch_scratch_.push_back(values_[n.fanins[0]]);
  }
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = latch_scratch_[k++];
}

void WordSimulator::step() {
  evaluate_comb();
  clock_edge();
}

}  // namespace fav::netlist
