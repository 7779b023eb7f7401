#include "netlist/verilog.h"

#include <cctype>

#include "util/check.h"

namespace fav::netlist {

std::string verilog_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

namespace {

// Appended rather than `"n" + std::to_string(id)`, on which GCC 12 warns
// (-Wrestrict) at -O3.
std::string net(NodeId id) {
  return std::string("n").append(std::to_string(id));
}

const char* binary_op(CellType t) {
  switch (t) {
    case CellType::kAnd:
    case CellType::kNand:
      return "&";
    case CellType::kOr:
    case CellType::kNor:
      return "|";
    case CellType::kXor:
    case CellType::kXnor:
      return "^";
    default:
      return nullptr;
  }
}

bool inverted_output(CellType t) {
  return t == CellType::kNand || t == CellType::kNor || t == CellType::kXnor;
}

}  // namespace

void write_verilog(const Netlist& nl, std::ostream& os,
                   const std::string& module_name) {
  os << "// Generated by fav::netlist::write_verilog\n";
  os << "module " << verilog_identifier(module_name) << " (\n";
  os << "  input wire clk";
  for (const NodeId in : nl.inputs()) {
    os << ",\n  input wire " << verilog_identifier(nl.node(in).name);
  }
  for (const auto& [name, id] : nl.outputs()) {
    (void)id;
    os << ",\n  output wire " << verilog_identifier(name);
  }
  os << "\n);\n\n";

  // Net declarations.
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    if (n.type == CellType::kDff) {
      os << "  reg " << net(id) << ";  // " << n.name << "\n";
    } else if (n.type == CellType::kInput) {
      os << "  wire " << net(id) << " = "
         << verilog_identifier(n.name) << ";\n";
    } else {
      os << "  wire " << net(id) << ";";
      if (!n.name.empty()) os << "  // " << n.name;
      os << "\n";
    }
  }
  os << "\n";

  // Combinational cells.
  for (const NodeId id : nl.topo_order()) {
    const Node& n = nl.node(id);
    os << "  assign " << net(id) << " = ";
    switch (n.type) {
      case CellType::kBuf:
        os << net(n.fanins[0]);
        break;
      case CellType::kNot:
        os << "~" << net(n.fanins[0]);
        break;
      case CellType::kMux:
        os << net(n.fanins[0]) << " ? " << net(n.fanins[2]) << " : "
           << net(n.fanins[1]);
        break;
      default: {
        const char* op = binary_op(n.type);
        FAV_ENSURE_MSG(op != nullptr,
                      "unhandled cell type " << cell_name(n.type));
        if (inverted_output(n.type)) os << "~(";
        os << net(n.fanins[0]) << " " << op << " " << net(n.fanins[1]);
        if (inverted_output(n.type)) os << ")";
        break;
      }
    }
    os << ";\n";
  }
  // Constants.
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const CellType t = nl.node(id).type;
    if (t == CellType::kConst0) os << "  assign " << net(id) << " = 1'b0;\n";
    if (t == CellType::kConst1) os << "  assign " << net(id) << " = 1'b1;\n";
  }
  os << "\n";

  // Sequential cells.
  if (!nl.dffs().empty()) {
    os << "  always @(posedge clk) begin\n";
    for (const NodeId dff : nl.dffs()) {
      os << "    " << net(dff) << " <= " << net(nl.node(dff).fanins[0])
         << ";  // " << nl.node(dff).name << "\n";
    }
    os << "  end\n\n";
  }

  for (const auto& [name, id] : nl.outputs()) {
    os << "  assign " << verilog_identifier(name) << " = " << net(id) << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace fav::netlist
