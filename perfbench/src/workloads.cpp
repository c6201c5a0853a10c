#include "workloads.h"

#include "celllib/ncr_like.h"
#include "dfg/parser.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace perfbench {

namespace mf = mframe;

std::optional<Workload> parseWorkload(std::string_view name) {
  for (Workload w : {Workload::PaperFlow, Workload::GraphFlow, Workload::PaperTune})
    if (workloadName(w) == name) return w;
  return std::nullopt;
}

std::string_view workloadName(Workload w) {
  switch (w) {
    case Workload::PaperFlow: return "paper_flow";
    case Workload::GraphFlow: return "graph_flow";
    case Workload::PaperTune: return "paper_tune";
  }
  return "?";
}

namespace {

/// The eight golden designs. paper_tune leaves fdct out: tuning it is one
/// ~4 s call, so a run holds too few of them for its fastest to be steady
/// (see README.md); the other seven still cover tune's MFS restarts.
std::vector<mf::dfg::Dfg> paperDesigns(bool withFdct) {
  namespace wl = mf::workloads;
  std::vector<mf::dfg::Dfg> out;
  out.push_back(wl::tseng());
  out.push_back(wl::chained());
  out.push_back(wl::diffeq());
  out.push_back(wl::fir8());
  out.push_back(wl::arLattice());
  out.push_back(wl::ewfLike());
  if (withFdct) out.push_back(wl::fdctLike());
  out.push_back(wl::iirBiquads());
  return out;
}

/// Three NN-shaped 10^4-op designs, above MFSA's frontier threshold. Each topology
/// gets its own generator seed, derived from the benchmark seed.
std::vector<mf::dfg::Dfg> graphDesigns(std::uint32_t seed) {
  using mf::workloads::DfgTopology;
  std::vector<mf::dfg::Dfg> out;
  std::uint32_t k = 0;
  for (DfgTopology t :
       {DfgTopology::Conv, DfgTopology::Lstm, DfgTopology::Transformer}) {
    mf::workloads::RandomDfgOptions o;
    o.topology = t;
    o.seed = seed * 3u + ++k;
    o.numOps = 10000;
    o.layerWidth = 64;
    o.numInputs = 8;
    out.push_back(mf::workloads::randomDfg(o));
  }
  return out;
}

}  // namespace

Inputs makeInputs(Workload w, std::uint32_t seed) {
  Inputs in{mf::celllib::ncrLike(), {}};
  for (mf::dfg::Dfg& g : w == Workload::GraphFlow
                             ? graphDesigns(seed)
                             : paperDesigns(w == Workload::PaperFlow)) {
    std::string text = mf::dfg::serialize(g);
    in.designs.push_back({std::move(text), std::move(g)});
  }
  return in;
}

}  // namespace perfbench
