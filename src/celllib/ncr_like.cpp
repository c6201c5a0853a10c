#include "celllib/ncr_like.h"

namespace mframe::celllib {

namespace {

using dfg::FuType;

Module mk(std::string name, std::set<FuType> caps, double area, double delay,
          int stages = 1) {
  Module m;
  m.name = std::move(name);
  m.caps = std::move(caps);
  m.areaUm2 = area;
  m.delayNs = delay;
  m.stages = stages;
  return m;
}

}  // namespace

CellLibrary ncrLike(const NcrLikeOptions& opt) {
  CellLibrary lib;
  lib.setName("ncr_like");

  lib.setRegCost(1900.0);
  // Nonlinear mux area: the increment shrinks as inputs are added, which is
  // exactly the property f^MUX exploits when weighing input sharing.
  lib.setMuxCosts({0.0, 0.0, 640.0, 980.0, 1290.0, 1580.0, 1850.0, 2100.0,
                   2330.0, 2540.0});

  // Single-function units (MFS world).
  lib.addModule(mk("add16", {FuType::Adder}, 2900, 40));
  lib.addModule(mk("sub16", {FuType::Subtractor}, 3000, 40));
  lib.addModule(mk("inc16", {FuType::Incrementer}, 1500, 25));
  lib.addModule(mk("dec16", {FuType::Decrementer}, 1500, 25));
  lib.addModule(mk("and16", {FuType::AndGate}, 900, 10));
  lib.addModule(mk("or16", {FuType::OrGate}, 900, 10));
  lib.addModule(mk("xor16", {FuType::XorGate}, 1100, 12));
  lib.addModule(mk("not16", {FuType::NotGate}, 600, 5));
  lib.addModule(mk("shift16", {FuType::Shifter}, 2400, 20));
  lib.addModule(mk("cmp16", {FuType::Comparator}, 1700, 30));
  lib.addModule(mk("mul16", {FuType::Multiplier}, 16800, 160));
  lib.addModule(mk("div16", {FuType::Divider}, 21000, 200));

  if (opt.pipelinedMultiplier)
    lib.addModule(mk("mul16p2", {FuType::Multiplier}, 17500, 90, 2));

  // Multifunction ALUs: area = largest member + ~55% of the rest, modeling
  // shared operand registers/carry chains in a merged datapath cell.
  lib.addModule(
      mk("alu_addsub", {FuType::Adder, FuType::Subtractor}, 4550, 42));
  lib.addModule(
      mk("alu_addcmp", {FuType::Adder, FuType::Comparator}, 3840, 42));
  lib.addModule(
      mk("alu_subcmp", {FuType::Subtractor, FuType::Comparator}, 3940, 42));
  lib.addModule(mk("alu_addsubcmp",
                   {FuType::Adder, FuType::Subtractor, FuType::Comparator},
                   5490, 44));
  lib.addModule(mk("alu_logic",
                   {FuType::AndGate, FuType::OrGate, FuType::XorGate,
                    FuType::NotGate},
                   2530, 14));
  lib.addModule(mk("alu_logiccmp",
                   {FuType::AndGate, FuType::OrGate, FuType::Comparator},
                   2690, 32));
  lib.addModule(
      mk("alu_andcmp", {FuType::AndGate, FuType::Comparator}, 2200, 32));
  lib.addModule(mk("alu_arithlogic",
                   {FuType::Adder, FuType::Subtractor, FuType::AndGate,
                    FuType::OrGate},
                   5540, 44));
  lib.addModule(mk("alu_full",
                   {FuType::Adder, FuType::Subtractor, FuType::Comparator,
                    FuType::AndGate, FuType::OrGate, FuType::XorGate,
                    FuType::NotGate},
                   7480, 46));
  lib.addModule(
      mk("alu_incadd", {FuType::Adder, FuType::Incrementer}, 3730, 42));
  lib.addModule(
      mk("alu_inccmp", {FuType::Incrementer, FuType::Comparator}, 2440, 32));
  // Multiplier-centric combos (the paper's Table 2 shows ALUs such as
  // "(*+|)"): the array dwarfs the extra function, so the increment is
  // modest.
  lib.addModule(
      mk("alu_muladd", {FuType::Multiplier, FuType::Adder}, 18400, 162));
  lib.addModule(mk("alu_muladdor",
                   {FuType::Multiplier, FuType::Adder, FuType::OrGate}, 18900,
                   162));
  lib.addModule(
      mk("alu_mulsub", {FuType::Multiplier, FuType::Subtractor}, 18450, 162));
  return lib;
}

}  // namespace mframe::celllib
