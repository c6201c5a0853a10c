#include "celllib/cell_library.h"

#include <algorithm>
#include <cassert>

namespace mframe::celllib {

std::string Module::signature() const {
  std::string s = "(";
  for (dfg::FuType t : caps) s += std::string(dfg::fuTypeSymbol(t));
  return s + ")";
}

ModuleId CellLibrary::addModule(Module m) {
  for (std::size_t i = 0; i < modules_.size(); ++i)
    if (modules_[i].name == m.name) {
      duplicateNames_.push_back(m.name);
      return static_cast<ModuleId>(i);
    }
  modules_.push_back(std::move(m));
  return static_cast<ModuleId>(modules_.size() - 1);
}

std::vector<ModuleId> CellLibrary::capableModules(dfg::FuType t) const {
  std::vector<ModuleId> out;
  for (std::size_t i = 0; i < modules_.size(); ++i)
    if (modules_[i].supports(t)) out.push_back(static_cast<ModuleId>(i));
  std::sort(out.begin(), out.end(), [&](ModuleId a, ModuleId b) {
    return module(a).areaUm2 < module(b).areaUm2;
  });
  return out;
}

std::optional<ModuleId> CellLibrary::cheapestFor(dfg::FuType t,
                                                 bool pipelined) const {
  for (ModuleId m : capableModules(t))
    if (!pipelined || module(m).stages > 1) return m;
  return std::nullopt;
}

void CellLibrary::setMuxCosts(std::vector<double> costByInputs) {
  assert(costByInputs.size() >= 2 && costByInputs[0] == 0.0 && costByInputs[1] == 0.0);
  muxCost_ = std::move(costByInputs);
}

double CellLibrary::muxCost(int dataInputs) const {
  if (dataInputs <= 1) return 0.0;
  const auto r = static_cast<std::size_t>(dataInputs);
  if (r < muxCost_.size()) return muxCost_[r];
  // Extrapolate with the table's last increment.
  const std::size_t last = muxCost_.size() - 1;
  const double inc = last >= 2 ? muxCost_[last] - muxCost_[last - 1] : 0.0;
  return muxCost_[last] + inc * static_cast<double>(r - last);
}

double CellLibrary::maxMuxIncrement() const {
  double mx = 0.0;
  for (int r = 1; r + 1 < static_cast<int>(muxCost_.size()) + 4; ++r)
    mx = std::max(mx, muxCost(r + 1) - muxCost(r));
  return 2.0 * mx;
}

double CellLibrary::maxModuleArea() const {
  double mx = 0.0;
  for (const Module& m : modules_) mx = std::max(mx, m.areaUm2);
  return mx;
}

std::optional<std::string> CellLibrary::checkCoverage(
    const std::set<dfg::FuType>& needed) const {
  for (dfg::FuType t : needed)
    if (capableModules(t).empty())
      return "cell library has no module for FU type '" +
             std::string(dfg::fuTypeName(t)) + "'";
  return std::nullopt;
}

}  // namespace mframe::celllib
