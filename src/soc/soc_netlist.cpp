#include "soc/soc_netlist.h"

#include "rtl/isa.h"

namespace fav::soc {

using gen::Builder;
using gen::Word;
using netlist::CellType;
using netlist::NodeId;
using rtl::kMpuRegionCount;

SocNetlist::SocNetlist() {
  elaborate();
  nl_.validate();

  // Bind DFFs to register-map bits. dff_word() creation order in elaborate()
  // follows RegisterMap field order bit-for-bit, so the netlist's DFF list is
  // the flat bit order; the name check below enforces this invariant.
  const rtl::RegisterMap& map = reg_map();
  const auto& dffs = nl_.dffs();
  FAV_ENSURE_MSG(static_cast<int>(dffs.size()) == map.total_bits(),
                "DFF count " << dffs.size() << " != register map bits "
                             << map.total_bits());
  bit_to_dff_.assign(static_cast<std::size_t>(map.total_bits()),
                     netlist::kInvalidNode);
  dff_to_bit_.assign(nl_.node_count(), -1);
  for (int bit = 0; bit < map.total_bits(); ++bit) {
    const auto [fi, b] = map.locate(bit);
    const std::string expected =
        map.field(fi).name + "[" + std::to_string(b) + "]";
    const NodeId dff = dffs[static_cast<std::size_t>(bit)];
    FAV_ENSURE_MSG(nl_.node(dff).name == expected,
                  "DFF order mismatch: bit " << bit << " is '"
                                             << nl_.node(dff).name
                                             << "', expected '" << expected
                                             << "'");
    bit_to_dff_[static_cast<std::size_t>(bit)] = dff;
    dff_to_bit_[dff] = bit;
  }
}

NodeId SocNetlist::dff_for_bit(int flat_bit) const {
  FAV_ENSURE_MSG(
      flat_bit >= 0 && flat_bit < static_cast<int>(bit_to_dff_.size()),
      "flat bit out of range");
  return bit_to_dff_[static_cast<std::size_t>(flat_bit)];
}

int SocNetlist::flat_bit_for_dff(netlist::NodeId node) const {
  if (node >= dff_to_bit_.size()) return -1;
  return dff_to_bit_[node];
}

void SocNetlist::elaborate() {
  Builder b(nl_);

  // --- sequential state, in RegisterMap order --------------------------
  const Word pc = b.dff_word("pc", 16);
  std::vector<Word> regs;
  for (int r = 0; r < 8; ++r) {
    // Appended: GCC 12 warns (-Wrestrict) on `"r" + std::to_string(r)`.
    regs.push_back(b.dff_word(std::string("r").append(std::to_string(r)), 16));
  }
  struct RegionRegs {
    Word base, limit, perm;
  };
  std::vector<RegionRegs> mpu;
  for (int k = 0; k < kMpuRegionCount; ++k) {
    const std::string p = "mpu" + std::to_string(k) + "_";
    RegionRegs rr;
    rr.base = b.dff_word(p + "base", 16);
    rr.limit = b.dff_word(p + "limit", 16);
    rr.perm = b.dff_word(p + "perm", rtl::kPermBits);
    mpu.push_back(rr);
  }
  const Word mpu_enable = b.dff_word("mpu_enable", 1);
  const Word instr_check = b.dff_word("instr_check", 1);
  const Word viol_sticky = b.dff_word("viol_sticky", 1);
  const Word viol_addr = b.dff_word("viol_addr", 16);
  const Word halted = b.dff_word("halted", 1);
  const Word dma_src = b.dff_word("dma_src", 16);
  const Word dma_dst = b.dff_word("dma_dst", 16);
  const Word dma_len = b.dff_word("dma_len", 16);
  const Word dma_active = b.dff_word("dma_active", 1);

  const NodeId halted_bit = halted[0];
  const NodeId running = b.bnot(halted_bit);

  // --- fetch / decode ----------------------------------------------------
  ports_.instr = b.input_word("instr", 16);
  ports_.mem_rdata = b.input_word("mem_rdata", 16);
  const Word& instr = ports_.instr;

  // Instruction access check (paper Fig. 1): when both the MPU and the
  // instruction check are enabled, the fetch at `pc` must be granted execute
  // permission by some region; otherwise the instruction is squashed to a
  // NOP (every opcode strobe below is gated by fetch_ok).
  std::vector<NodeId> exec_grants;
  for (int k = 0; k < kMpuRegionCount; ++k) {
    const auto& rr = mpu[static_cast<std::size_t>(k)];
    const NodeId enabled = rr.perm[2];
    const NodeId in_lo = b.uge(pc, rr.base);
    const NodeId in_hi = b.ule(pc, rr.limit);
    exec_grants.push_back(
        b.band(b.band(enabled, b.band(in_lo, in_hi)), rr.perm[3]));
  }
  const NodeId any_exec = b.or_all(exec_grants);
  const NodeId fetch_denied =
      nl_.add_gate(CellType::kAnd,
                   {b.band(mpu_enable[0], instr_check[0]), b.bnot(any_exec)},
                   "fetch_denied");
  const NodeId fetch_ok = b.bnot(fetch_denied);

  const Word op = b.slice(instr, 12, 4);
  const Word op_oh = b.decoder(op);  // one-hot over 16 opcodes
  const NodeId is_alu = b.band(op_oh[0x0], fetch_ok);
  const NodeId is_addi = b.band(op_oh[0x1], fetch_ok);
  const NodeId is_lui = b.band(op_oh[0x2], fetch_ok);
  const NodeId is_ori = b.band(op_oh[0x3], fetch_ok);
  const NodeId is_lw = b.band(op_oh[0x4], fetch_ok);
  const NodeId is_sw = b.band(op_oh[0x5], fetch_ok);
  const NodeId is_beq = b.band(op_oh[0x6], fetch_ok);
  const NodeId is_bne = b.band(op_oh[0x7], fetch_ok);
  const NodeId is_jmp = b.band(op_oh[0x8], fetch_ok);
  const NodeId is_halt = b.band(op_oh[0x9], fetch_ok);

  const Word rd_sel = b.slice(instr, 9, 3);
  const Word ra_sel = b.slice(instr, 6, 3);
  const Word rb_sel = b.slice(instr, 3, 3);
  const Word funct = b.slice(instr, 0, 3);

  // imm6 sign-extended to 16 bits.
  Word imm6 = b.slice(instr, 0, 6);
  const NodeId imm6_sign = instr[5];
  while (imm6.size() < 16) imm6.push_back(b.bbuf(imm6_sign));
  // imm8 zero-extended / shifted for LUI.
  const Word imm8 = b.slice(instr, 0, 8);
  const Word imm8_z = b.zext(imm8, 16);
  const Word lui_val = b.concat(b.constant_word(0, 8), imm8);
  const Word imm12_z = b.zext(b.slice(instr, 0, 12), 16);

  // --- register file read ------------------------------------------------
  const Word rd_val = b.mux_tree(rd_sel, regs);
  const Word ra_val = b.mux_tree(ra_sel, regs);
  const Word rb_val = b.mux_tree(rb_sel, regs);

  // --- ALU ------------------------------------------------------------
  const Word alu_add = b.add_word(ra_val, rb_val);
  const Word alu_sub = b.sub_word(ra_val, rb_val);
  const Word alu_and = b.and_word(ra_val, rb_val);
  const Word alu_or = b.or_word(ra_val, rb_val);
  const Word alu_xor = b.xor_word(ra_val, rb_val);
  const Word shamt = b.slice(rb_val, 0, 4);
  const Word alu_shl = b.shl_word(ra_val, shamt);
  const Word alu_shr = b.shr_word(ra_val, shamt);
  const std::vector<Word> alu_choices = {alu_add, alu_sub, alu_and, alu_or,
                                         alu_xor, alu_shl, alu_shr, ra_val};
  const Word alu_y = b.mux_tree(funct, alu_choices);

  const Word addi_y = b.add_word(ra_val, imm6);
  const Word ori_y = b.or_word(rd_val, imm8_z);

  // --- memory address & MPU check ------------------------------------
  const Word addr = b.add_word(ra_val, imm6);
  const NodeId is_mem = b.bor(is_lw, is_sw);
  // Device page: addr[15:8] == 0xFF.
  const Word addr_hi = b.slice(addr, 8, 8);
  const NodeId is_device = b.reduce_and(addr_hi);

  std::vector<NodeId> region_allows;
  for (int k = 0; k < kMpuRegionCount; ++k) {
    const NodeId enabled = mpu[static_cast<std::size_t>(k)].perm[2];
    const NodeId in_lo = b.uge(addr, mpu[static_cast<std::size_t>(k)].base);
    const NodeId in_hi = b.ule(addr, mpu[static_cast<std::size_t>(k)].limit);
    const NodeId perm_ok =
        b.bmux(is_sw, mpu[static_cast<std::size_t>(k)].perm[0],
               mpu[static_cast<std::size_t>(k)].perm[1]);
    region_allows.push_back(
        b.band(b.band(enabled, b.band(in_lo, in_hi)), perm_ok));
  }
  const NodeId any_region = b.or_all(region_allows);
  const NodeId allowed = b.bor(b.bnot(mpu_enable[0]), any_region);
  const NodeId checked = b.band(is_mem, b.bnot(is_device));
  const NodeId data_viol =
      nl_.add_gate(CellType::kAnd, {checked, b.bnot(allowed)}, "mpu_viol_raw");

  // --- DMA (peripheral) access checks ----------------------------------
  // The engine moves one word per active cycle; both its read and its write
  // go through the same MPU region checks as core accesses (paper Fig. 1),
  // and the device page is off-limits.
  auto dma_bank = [&](const Word& a, int perm_bit) {
    std::vector<NodeId> allows;
    for (int k = 0; k < kMpuRegionCount; ++k) {
      const auto& rr = mpu[static_cast<std::size_t>(k)];
      allows.push_back(b.band(
          b.band(rr.perm[2], b.band(b.uge(a, rr.base), b.ule(a, rr.limit))),
          rr.perm[static_cast<std::size_t>(perm_bit)]));
    }
    return b.bor(b.bnot(mpu_enable[0]), b.or_all(allows));
  };
  const NodeId dma_len_nz = b.reduce_or(dma_len);
  const NodeId dma_pending = b.band(dma_active[0], dma_len_nz);
  const NodeId dma_transfer = b.band(dma_pending, running);
  const NodeId src_dev = b.reduce_and(b.slice(dma_src, 8, 8));
  const NodeId dst_dev = b.reduce_and(b.slice(dma_dst, 8, 8));
  const NodeId dma_src_ok = b.band(b.bnot(src_dev), dma_bank(dma_src, 0));
  const NodeId dma_dst_ok = b.band(b.bnot(dst_dev), dma_bank(dma_dst, 1));
  const NodeId dma_ok = b.band(dma_src_ok, dma_dst_ok);
  const NodeId dma_viol = b.band(dma_pending, b.bnot(dma_ok));
  const NodeId dma_commit =
      nl_.add_gate(CellType::kAnd, {dma_transfer, dma_ok}, "dma_write");

  const NodeId viol =
      b.bor(b.bor(data_viol, fetch_denied), dma_viol);
  // The responding signal proper: gated by `running` so a halted core cannot
  // raise violations (matches rtl::Machine, which early-outs when halted).
  const NodeId viol_live = nl_.add_gate(CellType::kAnd, {viol, running},
                                        "mpu_viol");

  // --- device page ----------------------------------------------------
  // Region register area: offsets 0x00..0x1F (addr[7:5] == 0).
  const Word dev_off = b.slice(addr, 0, 8);
  const NodeId in_region_area =
      b.bnor(b.bor(dev_off[5], dev_off[6]), dev_off[7]);
  const Word reg_word_sel = b.slice(addr, 0, 3);   // base/limit/perm/...
  const Word region_sel = b.slice(addr, 3, 2);     // region index
  const Word reg_word_oh = b.decoder(reg_word_sel);
  const Word region_oh = b.decoder(region_sel);

  // Device read mux.
  const Word zero16 = b.constant_word(0, 16);
  std::vector<Word> region_read_words;
  for (int k = 0; k < kMpuRegionCount; ++k) {
    const auto& rr = mpu[static_cast<std::size_t>(k)];
    const std::vector<Word> words = {rr.base, rr.limit, b.zext(rr.perm, 16),
                                     zero16, zero16, zero16, zero16, zero16};
    region_read_words.push_back(b.mux_tree(reg_word_sel, words));
  }
  const Word region_rdata = b.mux_tree(region_sel, region_read_words);

  const NodeId is_dma_src = b.eq_word(addr, b.constant_word(rtl::kDmaSrcAddr, 16));
  const NodeId is_dma_dst = b.eq_word(addr, b.constant_word(rtl::kDmaDstAddr, 16));
  const NodeId is_dma_len = b.eq_word(addr, b.constant_word(rtl::kDmaLenAddr, 16));
  const NodeId is_dma_ctrl = b.eq_word(addr, b.constant_word(rtl::kDmaCtrlAddr, 16));
  const NodeId is_ff20 = b.eq_word(addr, b.constant_word(rtl::kMpuViolFlagAddr, 16));
  const NodeId is_ff21 = b.eq_word(addr, b.constant_word(rtl::kMpuViolAddrAddr, 16));
  const NodeId is_ff22 = b.eq_word(addr, b.constant_word(rtl::kMpuEnableAddr, 16));
  Word status_rdata = zero16;
  const Word ctrl_bits = b.concat(mpu_enable, instr_check);
  status_rdata = b.mux_word(is_dma_src, status_rdata, dma_src);
  status_rdata = b.mux_word(is_dma_dst, status_rdata, dma_dst);
  status_rdata = b.mux_word(is_dma_len, status_rdata, dma_len);
  status_rdata = b.mux_word(is_dma_ctrl, status_rdata, b.zext(dma_active, 16));
  status_rdata = b.mux_word(is_ff22, status_rdata, b.zext(ctrl_bits, 16));
  status_rdata = b.mux_word(is_ff21, status_rdata, viol_addr);
  status_rdata = b.mux_word(is_ff20, status_rdata, b.zext(viol_sticky, 16));
  const Word device_rdata =
      b.mux_word(in_region_area, status_rdata, region_rdata);

  // Load result: device value, RAM data, or 0 when squashed.
  const Word checked_rdata = b.mux_word(allowed, zero16, ports_.mem_rdata);
  const Word lw_val = b.mux_word(is_device, checked_rdata, device_rdata);

  // --- register file write-back ----------------------------------------
  Word wb = alu_y;
  wb = b.mux_word(is_addi, wb, addi_y);
  wb = b.mux_word(is_lui, wb, lui_val);
  wb = b.mux_word(is_ori, wb, ori_y);
  wb = b.mux_word(is_lw, wb, lw_val);
  const NodeId reg_we = b.or_all(std::vector<NodeId>{
      is_alu, is_addi, is_lui, is_ori, is_lw});
  const Word rd_oh = b.decoder(rd_sel);
  for (int r = 0; r < 8; ++r) {
    const NodeId we =
        b.band(b.band(reg_we, rd_oh[static_cast<std::size_t>(r)]), running);
    const Word next = b.mux_word(we, regs[static_cast<std::size_t>(r)], wb);
    b.connect_word(regs[static_cast<std::size_t>(r)], next);
  }

  // --- PC update --------------------------------------------------------
  const NodeId eq_ab = b.eq_word(rd_val, ra_val);
  const NodeId take_branch = b.bor(b.band(is_beq, eq_ab),
                                   b.band(is_bne, b.bnot(eq_ab)));
  const Word br_target = b.add_word(pc, imm6);
  Word next_pc = b.increment(pc);
  next_pc = b.mux_word(take_branch, next_pc, br_target);
  next_pc = b.mux_word(is_jmp, next_pc, imm12_z);
  next_pc = b.mux_word(is_halt, next_pc, pc);
  next_pc = b.mux_word(running, pc, next_pc);  // hold PC once halted
  b.connect_word(pc, next_pc);

  // --- device writes (MPU configuration) -------------------------------
  const NodeId dev_write = b.band(b.band(is_sw, is_device), running);
  const NodeId region_write = b.band(dev_write, in_region_area);
  for (int k = 0; k < kMpuRegionCount; ++k) {
    auto& rr = mpu[static_cast<std::size_t>(k)];
    const NodeId this_region =
        b.band(region_write, region_oh[static_cast<std::size_t>(k)]);
    const NodeId we_base = b.band(this_region, reg_word_oh[0]);
    const NodeId we_limit = b.band(this_region, reg_word_oh[1]);
    const NodeId we_perm = b.band(this_region, reg_word_oh[2]);
    b.connect_word(rr.base, b.mux_word(we_base, rr.base, rd_val));
    b.connect_word(rr.limit, b.mux_word(we_limit, rr.limit, rd_val));
    b.connect_word(rr.perm,
                   b.mux_word(we_perm, rr.perm, b.slice(rd_val, 0, rtl::kPermBits)));
  }
  const NodeId we_flag = b.band(dev_write, is_ff20);
  const NodeId we_enable = b.band(dev_write, is_ff22);
  // Sticky flag: set on violation, cleared by any write to 0xFF20. A device
  // write and a checked violation are mutually exclusive by construction.
  const NodeId sticky_next =
      b.band(b.bor(viol_sticky[0], viol_live), b.bnot(we_flag));
  b.connect_word(viol_sticky, {sticky_next});
  const NodeId enable_next = b.bmux(we_enable, mpu_enable[0], rd_val[0]);
  b.connect_word(mpu_enable, {enable_next});
  const NodeId icheck_next = b.bmux(we_enable, instr_check[0], rd_val[1]);
  b.connect_word(instr_check, {icheck_next});
  // viol_addr latches the first violation only; priority fetch > core data
  // > DMA (a squashed fetch issues no data access, and the behavioural model
  // applies the same ordering).
  const NodeId latch_addr = b.band(viol_live, b.bnot(viol_sticky[0]));
  const Word dma_bad_addr = b.mux_word(dma_src_ok, dma_src, dma_dst);
  Word viol_source = b.mux_word(data_viol, dma_bad_addr, addr);
  viol_source = b.mux_word(fetch_denied, viol_source, pc);
  b.connect_word(viol_addr, b.mux_word(latch_addr, viol_addr, viol_source));

  // --- DMA register updates ---------------------------------------------
  const NodeId dma_idle = b.bnot(dma_active[0]);
  const NodeId we_dsrc = b.band(b.band(dev_write, is_dma_src), dma_idle);
  const NodeId we_ddst = b.band(b.band(dev_write, is_dma_dst), dma_idle);
  const NodeId we_dlen = b.band(b.band(dev_write, is_dma_len), dma_idle);
  const NodeId we_dctrl = b.band(b.band(dev_write, is_dma_ctrl), dma_idle);
  Word src_next = b.mux_word(we_dsrc, dma_src, rd_val);
  src_next = b.mux_word(dma_commit, src_next, b.increment(dma_src));
  b.connect_word(dma_src, src_next);
  Word dst_next = b.mux_word(we_ddst, dma_dst, rd_val);
  dst_next = b.mux_word(dma_commit, dst_next, b.increment(dma_dst));
  b.connect_word(dma_dst, dst_next);
  Word len_next = b.mux_word(we_dlen, dma_len, rd_val);
  len_next = b.mux_word(dma_commit, len_next,
                        b.add_word(dma_len, b.constant_word(0xFFFF, 16)));
  b.connect_word(dma_len, len_next);
  // active: set by a start write (idle, bit 0, len != 0); cleared when the
  // transfer completes (last word) or aborts on a violation.
  const NodeId dma_start = b.band(b.band(we_dctrl, rd_val[0]), dma_len_nz);
  const NodeId len_gt1 = b.reduce_or(b.slice(dma_len, 1, 15));
  const NodeId keep_active =
      b.band(dma_active[0],
             b.bor(b.bnot(dma_transfer), b.band(dma_ok, len_gt1)));
  b.connect_word(dma_active, {b.bor(keep_active, dma_start)});

  // halted is set by HALT and never cleared.
  const NodeId halted_next = b.bor(halted_bit, b.band(is_halt, running));
  b.connect_word(halted, {halted_next});

  // --- external memory ports ------------------------------------------
  ports_.pc = pc;
  ports_.mem_addr = addr;
  ports_.mem_wdata = rd_val;
  ports_.mem_read = nl_.add_gate(
      CellType::kAnd, {b.band(is_lw, b.bnot(is_device)),
                       b.band(allowed, running)},
      "mem_read");
  ports_.mem_write = nl_.add_gate(
      CellType::kAnd, {b.band(is_sw, b.bnot(is_device)),
                       b.band(allowed, running)},
      "mem_write");
  ports_.mpu_viol = viol_live;
  ports_.halted = halted_bit;
  ports_.dma_transfer = dma_transfer;
  ports_.dma_write = dma_commit;
  ports_.dma_src = dma_src;
  ports_.dma_dst = dma_dst;

  for (int i = 0; i < 16; ++i) {
    nl_.set_output("pc_out[" + std::to_string(i) + "]", pc[static_cast<std::size_t>(i)]);
    nl_.set_output("mem_addr[" + std::to_string(i) + "]", addr[static_cast<std::size_t>(i)]);
    nl_.set_output("mem_wdata[" + std::to_string(i) + "]", rd_val[static_cast<std::size_t>(i)]);
  }
  nl_.set_output("mem_read", ports_.mem_read);
  nl_.set_output("mem_write", ports_.mem_write);
  nl_.set_output("mpu_viol_out", ports_.mpu_viol);
  nl_.set_output("halted_out", halted_bit);
  nl_.set_output("dma_write_out", dma_commit);
}

}  // namespace fav::soc
