// mframe — command-line driver for the libmframe synthesis flow.
//
//   mframe schedule <file> --steps N [options]      MFS scheduling
//   mframe synth    <file> --steps N [options]      MFSA scheduling-allocation
//   mframe analyze  <file> [options]                dataflow + timing analysis
//   mframe tune     <file> --clock NS [options]     feedback-guided re-scheduling
//   mframe lint     <file> [options]                structural diagnostics
//   mframe prove    <file> [options]                translation validation
//   mframe audit    <file> [options]                reference-free RTL audit
//   mframe range    <file> [options]                interval width/overflow proofs
//
// <file> is either the behavioral language (.mfb, 'design ...') or the
// textual DFG format (.dfg, 'dfg ...'); the format is sniffed from the first
// keyword. Passing "-" (or omitting the file) reads the design from stdin,
// so designs can be piped straight in: `echo "..." | mframe lint`.
// A `random:<topology>[,key=value...]` pseudo-path generates a synthetic
// workload instead (topologies layered|conv|lstm|transformer; keys ops,
// seed, width, inputs, mul, twocycle), e.g.
// `mframe analyze random:conv,ops=100000,width=64`.
// Every command runs the DFG lint rules up front; `lint` runs them
// alone (plus schedule rules with --schedule) and reports structured
// diagnostics as text or JSON (see docs/LINT.md). Common options:
//   --steps N            time constraint (control steps)
//   --resource T=K,...   per-FU-type limits (add, sub, mul, div, cmp, ...)
//   --mode time|resource MFS objective (default time)
//   --chaining [--clock NS]
//   --latency L          functional pipelining (folded)
//   --pipelined-mults    structurally pipelined multipliers
//   --priority mobility|noreverse|insertion
// synth-only:
//   --style 1|2          RTL design style (2 = no self-loop, self-testable)
//   --weights T,A,M,R    Liapunov weights
//   --verilog            print structural Verilog
//   --controller         print the FSM micro-program
//   --sim a=1,b=2,...    simulate the RTL and print outputs (checked
//                        against the behavioral reference)
//   --prove              run the translation validator on the result
// lint-only:
//   --json               emit diagnostics as JSON instead of text
//   --fail-on WHAT       exit nonzero at a severity (error|warning|note,
//                        default error), or when a specific rule id
//                        (TIM001) or rule family (TIM, AUD) fires
//   --schedule FILE      also lint a saved schedule against the design
//   --library FILE       also lint a cell library against the design
// analyze-only:
//   --fix                print the design with constants folded and dead
//                        operations removed (diagnostics go to stderr)
//   --no-timing          run only the dataflow passes (no synthesis)
// prove, audit and range:
//   --scheduler NAME     mfsa|mfs|asap|list|fds (default mfsa)
//   --bind FILE          validate an explicit .bind design instead of
//                        synthesizing one (see docs/FORMATS.md); every
//                        other command refuses it
// common output options:
//   --dot                print Graphviz DOT of the scheduled DFG
//   --trace FILE         write a Chrome trace-event JSON of the run
//   --metrics[=json]     print pipeline counters after the run
//
// schedule, synth, prove, audit and range default --steps to the design's
// critical path when it is omitted in time-constrained mode (a note goes to
// stderr); asap/list pace themselves and a .bind file carries its own steps.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/audit/audit.h"
#include "analysis/criticality/tune.h"
#include "analysis/range/range.h"
#include "analysis/lint.h"
#include "analysis/rules.h"
#include "analysis/validate/bind_io.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "celllib/library_io.h"
#include "celllib/ncr_like.h"
#include "rtl/microcode.h"
#include "rtl/rtl_dot.h"
#include "rtl/testability.h"
#include "rtl/testbench.h"
#include "sched/slack.h"
#include "sched/timeframes.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/dot.h"
#include "dfg/parser.h"
#include "dfg/stats.h"
#include "explore/explore.h"
#include "lang/lower.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "rtl/verilog.h"
#include "sched/report.h"
#include "sched/schedule_io.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/random_dfg.h"

namespace {

using namespace mframe;

constexpr const char* kUsage =
    "usage: mframe <schedule|synth|analyze|tune|explore|lint|prove|audit|range> <file> [options]\n"
    "  schedule <file> --steps N    MFS scheduling\n"
    "  synth    <file> --steps N    MFSA scheduling-allocation\n"
    "  analyze  <file>              dataflow analysis + static timing (OPT/TIM)\n"
    "  tune     <file> --clock NS   feedback-guided iterative re-scheduling\n"
    "  explore  <file> [--jobs N]   sweep MFSA configurations in parallel\n"
    "  lint     <file>              structural diagnostics (no scheduling)\n"
    "  prove    <file>              synthesize and validate the translation\n"
    "  audit    <file>              reference-free RTL safety audit (AUD)\n"
    "  range    <file>              interval width/overflow proofs (WID)\n"
    "common options: --resource T=K,... --mode time|resource --chaining\n"
    "  --clock NS --latency L --pipelined-mults --priority RULE --report --dot\n"
    "synth options:  --style 1|2 --weights T,A,M,R --library FILE --verilog\n"
    "  --controller --microcode --testability --testbench --rtl-dot --timing\n"
    "  --sim a=1,b=2 [--vcd FILE] --prove --audit --range\n"
    "analyze options: --json --fail-on SEV --fix --no-timing --steps N\n"
    "  --chaining --clock NS --library FILE\n"
    "explore options: --jobs N (worker threads, default: hardware) --json\n"
    "  --steps N (single step budget; default sweeps critical..critical+3)\n"
    "tune options:   --clock NS (required) --budget N --hops K --jobs N\n"
    "  --json (chaining is implied; --steps caps the initial schedule)\n"
    "lint options:   --json --fail-on error|warning|note --schedule FILE\n"
    "  --library FILE\n"
    "prove options:  --scheduler mfsa|mfs|asap|list|fds --bind FILE --json\n"
    "  --fail-on WHAT --library FILE\n"
    "audit options:  --scheduler mfsa|mfs|asap|list|fds --bind FILE --json\n"
    "  --fail-on WHAT --jobs N --library FILE --ranges (refine reachability\n"
    "  with the interval analysis before auditing; adds WID findings)\n"
    "range options:  --scheduler mfsa|mfs|asap|list|fds --bind FILE --json\n"
    "  --fail-on WHAT --jobs N --library FILE (.bind assert statements\n"
    "  become WID005 obligations; see docs/RANGE.md)\n"
    "--fail-on WHAT: a severity (error|warning|note), an exact rule id\n"
    "  (e.g. AUD002), or a rule family prefix (e.g. TIM, AUD); repeatable\n"
    "tracing/metrics: --trace FILE (Chrome trace-event JSON)\n"
    "  --metrics[=json] (pipeline counters after the run)\n"
    "<file> may be '-' (or omitted) to read the design from stdin\n";

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "mframe: %s\n", msg.c_str());
  std::exit(2);
}

/// Argument errors additionally print the usage string.
[[noreturn]] void dieUsage(const std::string& msg) {
  std::fprintf(stderr, "mframe: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

/// `token` as an int no smaller than `lo` (0 or 1); a malformed, negative
/// or overflowing value is a usage error naming `what` and the token.
int intArg(const std::string& what, const std::string& token, int lo) {
  const long v = util::parseLong(token);
  if (v < lo || v > std::numeric_limits<int>::max())
    dieUsage(util::format("%s needs a %s integer, got '%s'", what.c_str(),
                          lo > 0 ? "positive" : "non-negative", token.c_str()));
  return static_cast<int>(v);
}

/// `token` as a finite double; anything else is a usage error.
double doubleArg(const std::string& what, const std::string& token) {
  double v = 0.0;
  if (!util::parseDouble(token, v))
    dieUsage(util::format("%s needs a number, got '%s'", what.c_str(),
                          token.c_str()));
  return v;
}

struct Cli {
  std::string command;
  std::string file;
  int steps = 0;
  core::MfsLiapunov::Mode mode = core::MfsLiapunov::Mode::TimeConstrained;
  sched::Constraints constraints;
  sched::PriorityRule priority = sched::PriorityRule::Mobility;
  rtl::DesignStyle style = rtl::DesignStyle::Unrestricted;
  core::MfsaWeights weights;
  bool emitVerilog = false;
  bool emitController = false;
  bool emitDot = false;
  bool emitReport = false;
  bool emitMicrocode = false;
  bool emitTestability = false;
  bool emitTestbench = false;
  bool emitRtlDot = false;
  bool emitSlack = false;
  bool emitStats = false;
  std::string vcdPath;
  std::string libraryPath;
  std::map<std::string, sim::Word> simInputs;
  bool doSim = false;
  // lint-only options
  bool jsonOut = false;
  analysis::Severity failOn = analysis::Severity::Error;
  std::vector<std::string> failOnRules;     ///< exact ids, e.g. "AUD002"
  std::vector<std::string> failOnFamilies;  ///< prefixes, e.g. "TIM", "AUD"
  std::string schedulePath;
  // analyze options
  bool clockSet = false;  ///< the user passed --clock (vs the 100 ns default)
  bool doFix = false;
  bool noTiming = false;
  bool emitTiming = false;  ///< synth --timing
  // prove options
  bool doProve = false;
  std::string bindPath;
  std::string schedulerName = "mfsa";
  // audit options
  bool doAudit = false;  ///< synth --audit
  // range options
  bool doRange = false;     ///< synth --range
  bool withRanges = false;  ///< audit --ranges
  // explore options
  int jobs = 0;  ///< 0 = hardware concurrency
  // tune options
  int budget = 8;  ///< --budget: maximum tune iterations
  int hops = 2;    ///< --hops: cone radius around violating endpoints
  // tracing / metrics
  std::string tracePath;        ///< --trace FILE; empty = no tracing
  bool metrics = false;         ///< --metrics[=...]
  bool metricsJsonOut = false;  ///< --metrics=json
};

Cli parseArgs(int argc, char** argv) {
  Cli c;
  if (argc < 2) dieUsage("expected a command and an input file");
  c.command = argv[1];
  if (c.command != "schedule" && c.command != "synth" && c.command != "lint" &&
      c.command != "prove" && c.command != "explore" &&
      c.command != "analyze" && c.command != "tune" && c.command != "audit" &&
      c.command != "range")
    dieUsage("unknown command '" + c.command + "'");

  // A missing file argument (or an explicit "-") reads the design from
  // stdin, so `echo "op add ..." | mframe lint` just works.
  int firstOpt = 3;
  if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
    c.file = "-";
    firstOpt = 2;
  } else {
    c.file = argv[2];
  }

  for (int i = firstOpt; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--opt value" and "--opt=value".
    std::string inlineValue;
    bool hasInline = false;
    if (a.rfind("--", 0) == 0) {
      const auto eq = a.find('=');
      if (eq != std::string::npos) {
        inlineValue = a.substr(eq + 1);
        a.erase(eq);
        hasInline = true;
      }
    }
    auto next = [&]() -> std::string {
      if (hasInline) {
        hasInline = false;
        return inlineValue;
      }
      if (++i >= argc) dieUsage("missing value after " + a);
      return argv[i];
    };
    if (a == "--steps") {
      c.steps = intArg(a, next(), 0);
    } else if (a == "--resource") {
      for (const auto& part : util::split(next(), ',')) {
        const auto kv = util::split(part, '=');
        dfg::FuType t;
        if (kv.size() != 2 || !dfg::parseFuType(kv[0], t))
          die("bad --resource entry '" + part + "'");
        c.constraints.fuLimit[t] = intArg("--resource " + kv[0], kv[1], 0);
      }
    } else if (a == "--mode") {
      const std::string m = next();
      if (m == "time") c.mode = core::MfsLiapunov::Mode::TimeConstrained;
      else if (m == "resource") c.mode = core::MfsLiapunov::Mode::ResourceConstrained;
      else die("bad --mode '" + m + "'");
    } else if (a == "--chaining") {
      c.constraints.allowChaining = true;
    } else if (a == "--clock") {
      const std::string token = next();
      c.constraints.clockNs = doubleArg(a, token);
      if (c.constraints.clockNs <= 0.0)
        dieUsage("--clock needs a positive period in ns, got '" + token + "'");
      c.clockSet = true;
    } else if (a == "--latency") {
      c.constraints.latency = intArg(a, next(), 0);
    } else if (a == "--pipelined-mults") {
      c.constraints.pipelinedFus.insert(dfg::FuType::Multiplier);
    } else if (a == "--priority") {
      const std::string p = next();
      if (p == "mobility") c.priority = sched::PriorityRule::Mobility;
      else if (p == "noreverse") c.priority = sched::PriorityRule::MobilityNoReverse;
      else if (p == "insertion") c.priority = sched::PriorityRule::InsertionOrder;
      else die("bad --priority '" + p + "'");
    } else if (a == "--style") {
      const std::string s = next();
      if (s == "1") c.style = rtl::DesignStyle::Unrestricted;
      else if (s == "2") c.style = rtl::DesignStyle::NoSelfLoop;
      else die("bad --style '" + s + "'");
    } else if (a == "--weights") {
      const auto w = util::split(next(), ',');
      if (w.size() != 4) die("--weights needs T,A,M,R");
      c.weights.time = doubleArg(a, w[0]);
      c.weights.alu = doubleArg(a, w[1]);
      c.weights.mux = doubleArg(a, w[2]);
      c.weights.reg = doubleArg(a, w[3]);
    } else if (a == "--verilog") {
      c.emitVerilog = true;
    } else if (a == "--controller") {
      c.emitController = true;
    } else if (a == "--dot") {
      c.emitDot = true;
    } else if (a == "--report") {
      c.emitReport = true;
    } else if (a == "--microcode") {
      c.emitMicrocode = true;
    } else if (a == "--testability") {
      c.emitTestability = true;
    } else if (a == "--vcd") {
      c.vcdPath = next();
    } else if (a == "--testbench") {
      c.emitTestbench = true;
    } else if (a == "--rtl-dot") {
      c.emitRtlDot = true;
    } else if (a == "--slack") {
      c.emitSlack = true;
    } else if (a == "--stats") {
      c.emitStats = true;
    } else if (a == "--library") {
      c.libraryPath = next();
    } else if (a == "--json") {
      c.jsonOut = true;
    } else if (a == "--fail-on") {
      // A severity threshold, an exact rule id, or a rule family prefix;
      // rule/family forms are repeatable and combine.
      const std::string s = next();
      if (analysis::parseSeverity(s, c.failOn)) {
        // threshold updated in place
      } else if (analysis::findRule(s) != nullptr) {
        c.failOnRules.push_back(s);
      } else if (analysis::isRuleFamilyPrefix(s)) {
        c.failOnFamilies.push_back(s);
      } else {
        dieUsage("bad --fail-on '" + s +
                 "' (use error|warning|note, a rule id like AUD002, or a "
                 "rule family like TIM or AUD)");
      }
    } else if (a == "--schedule") {
      c.schedulePath = next();
    } else if (a == "--jobs") {
      c.jobs = intArg(a, next(), 1);
    } else if (a == "--budget") {
      c.budget = intArg(a, next(), 1);
    } else if (a == "--hops") {
      c.hops = intArg(a, next(), 1);
    } else if (a == "--prove") {
      c.doProve = true;
    } else if (a == "--audit") {
      c.doAudit = true;
    } else if (a == "--range") {
      c.doRange = true;
    } else if (a == "--ranges") {
      c.withRanges = true;
    } else if (a == "--fix") {
      c.doFix = true;
    } else if (a == "--no-timing") {
      c.noTiming = true;
    } else if (a == "--timing") {
      c.emitTiming = true;
    } else if (a == "--bind") {
      c.bindPath = next();
    } else if (a == "--scheduler") {
      c.schedulerName = next();
      if (c.schedulerName != "mfsa" && c.schedulerName != "mfs" &&
          c.schedulerName != "asap" && c.schedulerName != "list" &&
          c.schedulerName != "fds")
        dieUsage("bad --scheduler '" + c.schedulerName +
                 "' (use mfsa|mfs|asap|list|fds)");
    } else if (a == "--trace") {
      c.tracePath = next();
    } else if (a == "--metrics") {
      c.metrics = true;
      if (hasInline) {
        const std::string m = next();
        if (m == "json") c.metricsJsonOut = true;
        else if (m != "text") dieUsage("bad --metrics '" + m + "' (use text|json)");
      }
    } else if (a == "--sim") {
      c.doSim = true;
      for (const auto& part : util::split(next(), ',')) {
        const auto kv = util::split(part, '=');
        if (kv.size() != 2) die("bad --sim entry '" + part + "'");
        const long v = util::parseLong(kv[1]);
        if (v < 0)
          dieUsage("--sim " + kv[0] + " needs a non-negative integer, got '" +
                   kv[1] + "'");
        c.simInputs[kv[0]] = static_cast<sim::Word>(v);
      }
    } else {
      dieUsage("unknown option '" + a + "'");
    }
    if (hasInline) dieUsage("option " + a + " does not take a value");
  }
  if (!c.bindPath.empty() && c.command != "prove" && c.command != "audit" &&
      c.command != "range")
    dieUsage("--bind is read only by prove, audit and range, not by " +
             c.command);
  return c;
}

/// Exit-status policy for diagnostic-emitting commands: with --fail-on rule
/// ids or family prefixes, fail iff a matching diagnostic fired (any
/// severity); otherwise fail at or above the severity threshold.
bool failsPolicy(const Cli& cli, const analysis::LintReport& r) {
  if (cli.failOnRules.empty() && cli.failOnFamilies.empty())
    return r.hasAtOrAbove(cli.failOn);
  for (const analysis::Diagnostic& d : r.diagnostics()) {
    for (const std::string& id : cli.failOnRules)
      if (d.rule == id) return true;
    for (const std::string& fam : cli.failOnFamilies)
      if (util::startsWith(d.rule, fam)) return true;
  }
  return false;
}

std::string readFileOrDie(const std::string& path) {
  if (path == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) die("cannot open '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The first keyword on the first non-comment line decides the format.
std::string sniffFirstWord(const std::string& text) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = util::splitWs(line);
    if (tokens.empty()) continue;
    return tokens[0];
  }
  return "";
}

dfg::Dfg compileBehavioral(const std::string& text) {
  lang::Compiled c = lang::compile(text);
  if (c.hasLoops()) {
    // Fold loops with MFS as the body scheduler.
    return dfg::foldLoopNest(c.nest, [](const dfg::Dfg& body, int cs) {
      core::MfsOptions o;
      o.constraints.timeSteps = cs;
      const auto r = core::runMfs(body, o);
      if (!r.feasible) throw std::runtime_error("loop body: " + r.error);
      return r.steps;
    });
  }
  return std::move(c.nest.body);
}

/// `random:<topology>[,key=value...]` pseudo-paths synthesize a generated
/// workload instead of reading a file — the scale smoke tests drive the
/// full CLI on 10^5-op graphs without shipping megabyte design files.
/// Topologies: layered, conv, lstm, transformer. Keys: ops, seed, width,
/// inputs, mul, twocycle (percent of two-cycle muls).
dfg::Dfg makeRandomDesign(const std::string& spec) {
  workloads::RandomDfgOptions o;
  const auto parts = util::split(spec.substr(7), ',');
  if (parts.empty() || parts[0].empty())
    die("random: spec needs a topology (layered|conv|lstm|transformer)");
  if (parts[0] == "layered") o.topology = workloads::DfgTopology::Layered;
  else if (parts[0] == "conv") o.topology = workloads::DfgTopology::Conv;
  else if (parts[0] == "lstm") o.topology = workloads::DfgTopology::Lstm;
  else if (parts[0] == "transformer")
    o.topology = workloads::DfgTopology::Transformer;
  else
    die("unknown random topology '" + parts[0] + "'");
  o.numOps = 1000;
  o.layerWidth = 32;
  o.numInputs = 8;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto eq = parts[i].find('=');
    if (eq == std::string::npos)
      die("random: option '" + parts[i] + "' is not key=value");
    const std::string key = parts[i].substr(0, eq);
    const int val = intArg("random: option " + key, parts[i].substr(eq + 1),
                           key == "mul" || key == "twocycle" ? 0 : 1);
    if (key == "ops") o.numOps = val;
    else if (key == "seed") o.seed = static_cast<std::uint32_t>(val);
    else if (key == "width") o.layerWidth = val;
    else if (key == "inputs") o.numInputs = val;
    else if (key == "mul") o.mulPercent = val;
    else if (key == "twocycle") o.twoCyclePercent = val;
    else die("unknown random: option '" + key + "'");
  }
  return workloads::randomDfg(o);
}

dfg::Dfg loadDesign(const std::string& path) {
  const trace::Span span("parse");
  if (path.rfind("random:", 0) == 0) return makeRandomDesign(path);
  const std::string text = readFileOrDie(path);
  if (sniffFirstWord(text) == "design") return compileBehavioral(text);
  return dfg::parse(text);
}

/// Front-line check every command runs after loading a design: lint the DFG
/// and refuse to schedule/synthesize on errors. Warnings go to stderr.
void preflightLint(const dfg::Dfg& g) {
  const trace::Span span("preflight-lint");
  const analysis::LintReport r = analysis::lintDfg(g);
  if (r.empty()) return;
  std::fprintf(stderr, "%s", r.renderText().c_str());
  if (r.hasErrors())
    die(util::format("design '%s' fails lint with %zu error(s)",
                     g.name().c_str(), r.count(analysis::Severity::Error)));
}

std::string fuSummary(const std::map<dfg::FuType, int>& fus) {
  std::vector<std::string> parts;
  for (const auto& [t, n] : fus)
    parts.push_back(util::format("%d %s", n, std::string(dfg::fuTypeName(t)).c_str()));
  return util::join(parts, ", ");
}

int runSchedule(const Cli& cli, const dfg::Dfg& g) {
  core::MfsOptions o;
  o.constraints = cli.constraints;
  o.constraints.timeSteps = cli.steps;
  o.mode = cli.mode;
  o.priorityRule = cli.priority;
  const auto r = core::runMfs(g, o);
  if (!r.feasible) die("MFS failed: " + r.error);
  const analysis::LintReport bad =
      analysis::lintSchedule(r.schedule, o.constraints);
  std::printf("%s", r.schedule.toString().c_str());
  std::printf("FU allocation: %s\n", fuSummary(r.fuCount).c_str());
  std::printf("verification: %s\n",
              bad.empty() ? "clean"
                          : bad.diagnostics().front().message.c_str());
  if (cli.emitReport)
    std::printf("\n%s", sched::analyzeSchedule(r.schedule).toString().c_str());
  if (cli.emitSlack) {
    std::string err;
    const auto slack = sched::analyzeSlack(r.schedule, o.constraints, &err);
    if (!slack) die("slack analysis failed: " + err);
    std::printf("\n%s", slack->toString(g).c_str());
  }
  if (cli.emitDot) std::printf("\n%s", dfg::toDot(g, r.schedule.stepMap()).c_str());
  return bad.empty() ? 0 : 1;
}

celllib::CellLibrary loadLibrary(const Cli& cli) {
  if (cli.libraryPath.empty())
    return celllib::ncrLike(
        {.pipelinedMultiplier =
             cli.constraints.pipelinedFus.count(dfg::FuType::Multiplier) > 0});
  std::ifstream in(cli.libraryPath);
  if (!in) die("cannot open library '" + cli.libraryPath + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return celllib::parseLibrary(ss.str());
}

/// Worker count for the audit and range scans: --jobs, else 1.
int checkerJobs(const Cli& cli) { return cli.jobs > 0 ? cli.jobs : 1; }

int runSynth(const Cli& cli, const dfg::Dfg& g) {
  const celllib::CellLibrary lib = loadLibrary(cli);
  core::MfsaOptions o;
  o.constraints = cli.constraints;
  o.constraints.timeSteps = cli.steps;
  o.style = cli.style;
  o.weights = cli.weights;
  o.priorityRule = cli.priority;
  const auto r = core::runMfsa(g, lib, o);
  if (!r.feasible) die("MFSA failed: " + r.error);
  const auto bad = rtl::verifyDatapath(r.datapath, o.constraints, cli.style);

  std::printf("%s", r.datapath.schedule.toString().c_str());
  std::printf("ALUs: %s\n%s\nverification: %s\n",
              r.datapath.aluSummary().c_str(), r.cost.toString().c_str(),
              bad.empty() ? "clean" : bad.front().c_str());

  const auto fsm = rtl::buildController(r.datapath);
  // The microcode ROM is built on first use and shared by every check.
  std::optional<rtl::MicrocodeRom> romCache;
  auto rom = [&]() -> const rtl::MicrocodeRom& {
    if (!romCache) romCache = rtl::buildMicrocode(r.datapath, fsm);
    return *romCache;
  };
  bool auditFailed = false;
  if (cli.doAudit) {
    const analysis::audit::AuditResult audit = analysis::audit::auditDesign(
        r.datapath, fsm, rom(),
        {.jobs = checkerJobs(cli), .provenDead = {}});
    std::printf("%s\n", analysis::audit::renderAuditSummary(audit).c_str());
    if (!audit.clean()) {
      std::printf("%s", audit.report.renderText().c_str());
      auditFailed = failsPolicy(cli, audit.report);
    }
  }
  bool rangeFailed = false;
  if (cli.doRange) {
    analysis::range::RangeOptions ro;
    ro.jobs = checkerJobs(cli);
    const analysis::range::RangeResult ranges =
        analysis::range::analyzeDesignRanges(r.datapath, fsm, rom(), ro);
    std::printf("%s\n", analysis::range::renderRangeSummary(ranges).c_str());
    if (!ranges.clean()) {
      std::printf("%s", ranges.report.renderText().c_str());
      rangeFailed = failsPolicy(cli, ranges.report);
    }
  }
  bool proveFailed = false;
  if (cli.doProve) {
    const analysis::LintReport proof =
        analysis::proveDatapath(r.datapath, fsm, rom());
    if (proof.empty()) {
      std::printf("translation validation: PROVED\n");
    } else {
      std::printf("translation validation: REFUTED\n%s",
                  proof.renderText().c_str());
      proveFailed = failsPolicy(cli, proof);
    }
  }
  bool timingFailed = false;
  if (cli.emitTiming) {
    analysis::timing::TimingOptions to;
    to.clockNs = cli.constraints.clockNs;
    to.clockSet = cli.clockSet;
    const auto sta = analysis::timing::analyzeTiming(r.datapath, to);
    std::printf("\n%s", sta.toString(g).c_str());
    if (!sta.diagnostics.empty()) {
      std::printf("%s", sta.diagnostics.renderText().c_str());
      timingFailed = failsPolicy(cli, sta.diagnostics);
    }
  }
  if (cli.emitReport)
    std::printf("\n%s", sched::analyzeSchedule(r.datapath.schedule).toString().c_str());
  if (cli.emitController) std::printf("\n%s", fsm.toString(g).c_str());
  if (cli.emitMicrocode) std::printf("\n%s", rom().toString().c_str());
  if (cli.emitTestability)
    std::printf("\ntestability: %s\n",
                rtl::analyzeTestability(r.datapath).toString().c_str());
  if (cli.emitVerilog) std::printf("\n%s", rtl::toVerilog(r.datapath, fsm).c_str());
  if (cli.emitTestbench)
    std::printf("\n%s", rtl::toTestbench(r.datapath, fsm, cli.simInputs).c_str());
  if (cli.emitRtlDot) std::printf("\n%s", rtl::toDot(r.datapath).c_str());
  if (cli.emitDot)
    std::printf("\n%s", dfg::toDot(g, r.datapath.schedule.stepMap()).c_str());

  if (cli.doSim) {
    sim::SimTrace trace;
    const auto rtlOut = sim::simulateRtl(r.datapath, fsm, cli.simInputs, 16,
                                         cli.vcdPath.empty() ? nullptr : &trace);
    if (!rtlOut.ok) die("RTL simulation failed: " + rtlOut.error);
    if (!cli.vcdPath.empty()) {
      std::ofstream vcd(cli.vcdPath);
      if (!vcd) die("cannot write '" + cli.vcdPath + "'");
      vcd << sim::toVcd(trace, 16, g.name());
      std::printf("\nwrote waveform to %s\n", cli.vcdPath.c_str());
    }
    const auto ref = sim::evalDfg(g, cli.simInputs);
    if (!ref.ok) die("reference evaluation failed: " + ref.error);
    std::printf("\nsimulation (RTL vs behavioral reference):\n");
    bool allMatch = true;
    for (const auto& [name, value] : ref.outputs) {
      const sim::Word got = rtlOut.outputs.at(name);
      const bool match = got == value;
      allMatch = allMatch && match;
      std::printf("  %-12s = %llu (%s)\n", name.c_str(),
                  static_cast<unsigned long long>(got),
                  match ? "matches reference" : "MISMATCH");
    }
    if (!allMatch) return 1;
  }
  return bad.empty() && !auditFailed && !rangeFailed && !proveFailed &&
                 !timingFailed
             ? 0
             : 1;
}

/// Run the dataflow passes and (unless --no-timing) a schedule + datapath +
/// STA round, reporting OPT/TIM diagnostics. With --fix the rewritten design
/// goes to stdout and the diagnostics to stderr, so the fixed .dfg can be
/// piped straight back into the flow.
int runAnalyze(const Cli& cli, const dfg::Dfg& g) {
  analysis::AnalyzeOptions opts;
  opts.runTiming = !cli.noTiming;
  opts.steps = cli.steps;
  opts.constraints = cli.constraints;
  opts.clockSet = cli.clockSet;
  const celllib::CellLibrary lib = loadLibrary(cli);
  const analysis::AnalyzeResult r = analysis::analyzeDesign(g, lib, opts);

  if (cli.doFix) {
    const dfg::Dfg fixed = analysis::dataflow::applyFixes(g, r.dataflow);
    if (const auto err = fixed.validate())
      die("analyze --fix produced an invalid graph: " + *err);
    std::fprintf(stderr, "%s", r.report.renderText().c_str());
    std::printf("%s", dfg::serialize(fixed).c_str());
    return 0;
  }
  if (cli.jsonOut) {
    // Wrapper document: the schema-2 lint report plus the slack witness the
    // tune loop consumes; "slack" is null when the backing schedule failed.
    std::string lint = r.report.renderJson(g.name());
    while (!lint.empty() && lint.back() == '\n') lint.pop_back();
    std::printf("{\"schema\": 1,\n\"lint\": %s,\n\"slack\": %s\n}\n",
                lint.c_str(),
                r.slackRan ? r.slack.renderJson(g).c_str() : "null");
  } else
    std::printf("design '%s': %zu nodes, %zu operations\n%s",
                g.name().c_str(), g.size(), g.operations().size(),
                r.renderText(g).c_str());
  return failsPolicy(cli, r.report) ? 1 : 0;
}

/// Feedback-guided iterative re-scheduling: criticality analysis over the
/// STA findings seeds a cone extraction, the cone is re-scheduled under
/// tightened constraints, stitched back under the translation validator's
/// gate, and the loop repeats until the clock is met or the budget is spent.
/// Exit status 0 iff the final schedule meets the clock.
int runTune(const Cli& cli, const dfg::Dfg& g) {
  if (!cli.clockSet) die("tune needs --clock (the period to converge to)");
  const celllib::CellLibrary lib = loadLibrary(cli);

  analysis::criticality::TuneOptions opt;
  opt.constraints = cli.constraints;
  // Chaining is the gap tune exists to close (claimed chain delays vs the
  // physical route); the command implies it.
  opt.constraints.allowChaining = true;
  opt.constraints.timeSteps = cli.steps;
  opt.budget = cli.budget;
  opt.hops = cli.hops;
  opt.jobs = cli.jobs > 0
                 ? cli.jobs
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));

  const analysis::criticality::TuneResult r =
      analysis::criticality::tuneDesign(g, lib, opt);
  if (cli.jsonOut)
    std::printf("%s", r.renderJson(g).c_str());
  else
    std::printf("%s", r.renderText(g).c_str());
  if (cli.emitDot)
    std::printf("\n%s", dfg::toDot(g, r.schedule.stepMap()).c_str());
  return r.converged ? 0 : 1;
}

/// Sweep MFSA configurations across worker threads and report the Pareto
/// frontier of (control steps, total area). The frontier — and the JSON
/// rendering — is identical for every --jobs value; only wall time changes.
int runExplore(const Cli& cli, const dfg::Dfg& g) {
  const celllib::CellLibrary lib = loadLibrary(cli);
  explore::SweepSpec spec = explore::SweepSpec::defaults();
  spec.base = cli.constraints;
  if (cli.steps > 0) spec.steps = {cli.steps};
  const int jobs =
      cli.jobs > 0
          ? cli.jobs
          : std::max(1u, std::thread::hardware_concurrency());

  const explore::ExploreResult r = explore::explore(g, lib, spec, jobs);
  if (cli.jsonOut) {
    std::printf("%s", explore::toJson(r).c_str());
    return r.feasibleCount > 0 ? 0 : 1;
  }

  std::printf("design '%s': %d configurations, %d feasible (critical path %d"
              " steps, %d jobs)\n\n",
              r.design.c_str(), static_cast<int>(r.candidates.size()),
              r.feasibleCount, r.criticalSteps, jobs);
  std::printf("Pareto frontier (steps vs total area):\n");
  std::printf("  %5s  %10s  %8s  %8s  %8s  %s\n", "steps", "total", "alu",
              "reg", "mux", "configuration");
  for (int idx : r.frontier) {
    const explore::Candidate& c =
        r.candidates[static_cast<std::size_t>(idx)];
    std::printf("  %5d  %10.1f  %8.1f  %8.1f  %8.1f  w=[%g,%g,%g,%g] %s %s %s\n",
                c.steps, c.cost.total, c.cost.aluArea, c.cost.regArea,
                c.cost.muxArea, c.weights.time, c.weights.alu, c.weights.mux,
                c.weights.reg,
                std::string(explore::priorityRuleName(c.priorityRule)).c_str(),
                std::string(explore::interconnectName(c.interconnect)).c_str(),
                std::string(explore::designStyleName(c.style)).c_str());
  }
  if (r.frontier.empty())
    std::printf("  (no feasible configuration)\n");
  return r.feasibleCount > 0 ? 0 : 1;
}

/// Synthesize the design with the CLI's scheduler and assemble the full
/// datapath + controller + ROM triple the validator and the audit consume.
analysis::BoundDesign synthesizeBound(const Cli& cli, const dfg::Dfg& g,
                                      const celllib::CellLibrary& lib) {
  sched::Constraints constraints = cli.constraints;
  constraints.timeSteps = cli.steps;
  auto fromDatapath = [](rtl::Datapath d) {
    analysis::BoundDesign b;
    b.datapath = std::move(d);
    b.fsm = rtl::buildController(b.datapath);
    b.rom = rtl::buildMicrocode(b.datapath, b.fsm);
    return b;
  };
  auto fromSchedule = [&](const sched::Schedule& s) {
    return fromDatapath(rtl::buildDatapath(
        g, lib, s, rtl::bindByColumns(g, lib, s, constraints)));
  };
  if (cli.schedulerName == "mfsa") {
    core::MfsaOptions o;
    o.constraints = constraints;
    o.style = cli.style;
    o.weights = cli.weights;
    o.priorityRule = cli.priority;
    const auto r = core::runMfsa(g, lib, o);
    if (!r.feasible) die("MFSA failed: " + r.error);
    return fromDatapath(r.datapath);
  }
  if (cli.schedulerName == "mfs") {
    core::MfsOptions o;
    o.constraints = constraints;
    o.mode = cli.mode;
    o.priorityRule = cli.priority;
    const auto r = core::runMfs(g, o);
    if (!r.feasible) die("MFS failed: " + r.error);
    return fromSchedule(r.schedule);
  }
  if (cli.schedulerName == "asap") {
    const auto r = baseline::runAsap(g, constraints);
    if (!r.feasible) die("ASAP failed: " + r.error);
    return fromSchedule(r.schedule);
  }
  if (cli.schedulerName == "list") {
    const auto r = baseline::runListScheduling(g, constraints);
    if (!r.feasible) die("list scheduling failed: " + r.error);
    return fromSchedule(r.schedule);
  }
  const auto r = baseline::runForceDirected(g, constraints);  // fds
  if (!r.feasible) die("FDS failed: " + r.error);
  return fromSchedule(r.schedule);
}

/// The design prove, audit and range check: the --bind file when one is
/// given, else a synthesis with --scheduler. `how` names which one. A .bind
/// file that does not parse yields nullopt with the reason in `err`.
std::optional<analysis::BoundDesign> bindOrSynthesize(
    const Cli& cli, const dfg::Dfg& g, const celllib::CellLibrary& lib,
    std::string& how, std::string& err) {
  if (cli.bindPath.empty()) {
    how = "scheduler " + cli.schedulerName;
    return synthesizeBound(cli, g, lib);
  }
  how = "bind file " + cli.bindPath;
  return analysis::parseBindDesign(g, lib, readFileOrDie(cli.bindPath), &err);
}

/// The rule prove, audit and range share: after a check whose `report` has
/// no error, the datapath lint runs, and when it finds an error its report
/// joins `report`. A structural defect the check does not model (two ops
/// on one ALU in one step, a register shared by overlapping lifetimes) is
/// still a finding. Returns true when the lint's report joined.
bool addDatapathLintErrors(const Cli& cli, const rtl::Datapath& d,
                           analysis::LintReport& report) {
  if (report.hasErrors()) return false;
  analysis::LintReport lint =
      analysis::lintDatapath(d, cli.constraints, cli.style);
  if (!lint.hasErrors()) return false;
  report.merge(std::move(lint));
  return true;
}

/// Synthesize (or load a .bind design) and run the translation validator.
/// The reference-free audit and then the datapath lint run first as fast
/// paths: their errors are structural defects symbolic execution would only
/// rediscover more slowly (or miss entirely, like two ops overlapping on one
/// ALU), so they short-circuit the prover.
int runProve(const Cli& cli, const dfg::Dfg& g) {
  const celllib::CellLibrary lib = loadLibrary(cli);
  analysis::LintReport report;
  std::string how, err;
  const auto bound = bindOrSynthesize(cli, g, lib, how, err);
  if (!bound) {
    analysis::Diagnostic d;
    d.rule = std::string(analysis::kEqvParseFailure);
    d.severity = analysis::Severity::Error;
    d.entity = analysis::EntityKind::Design;
    d.message = err;
    report.add(std::move(d));
  } else {
    const analysis::audit::AuditResult audit = analysis::audit::auditDesign(
        bound->datapath, bound->fsm, bound->rom,
        {.jobs = checkerJobs(cli), .provenDead = {}});
    if (audit.report.hasErrors()) {
      how += " (audit fast path)";
      report = audit.report;
    } else if (addDatapathLintErrors(cli, bound->datapath, report)) {
      how += " (lint fast path)";
    } else {
      report =
          analysis::proveDatapath(bound->datapath, bound->fsm, bound->rom);
    }
  }

  if (cli.jsonOut) {
    std::printf("%s", report.renderJson(g.name()).c_str());
  } else {
    std::printf("translation validation of '%s' via %s: %s\n",
                g.name().c_str(), how.c_str(),
                report.empty() ? "PROVED" : "REFUTED");
    if (!report.empty()) std::printf("%s", report.renderText().c_str());
  }
  return failsPolicy(cli, report) ? 1 : 0;
}

/// Reference-free RTL audit of a synthesized (or .bind-loaded) design:
/// symbolic FSM reachability plus the AUD safety analyses, then the
/// datapath lint when the audit finds no error (addDatapathLintErrors).
int runAudit(const Cli& cli, const dfg::Dfg& g) {
  const celllib::CellLibrary lib = loadLibrary(cli);
  std::string how, err;
  const auto bound = bindOrSynthesize(cli, g, lib, how, err);
  if (!bound) die("cannot parse '" + cli.bindPath + "': " + err);

  const int jobs = checkerJobs(cli);
  analysis::audit::AuditResult r;
  std::string rangeSummary;
  if (cli.withRanges) {
    // Refine reachability with the interval analysis first: AUD findings
    // that only live on value-dead paths disappear, and the WID width
    // proofs ride along in the combined report.
    analysis::range::RangeOptions ro;
    ro.jobs = jobs;
    ro.asserts = bound->asserts;
    const analysis::range::RangeResult rr = analysis::range::analyzeDesignRanges(
        bound->datapath, bound->fsm, bound->rom, ro);
    analysis::audit::AuditOptions ao;
    ao.jobs = jobs;
    r = analysis::range::auditRefined(rr, bound->datapath, bound->rom, ao);
    r.report.merge(rr.report);
    rangeSummary = analysis::range::renderRangeSummary(rr);
    how += " (range-refined)";
  } else {
    analysis::audit::AuditOptions ao;
    ao.jobs = jobs;
    r = analysis::audit::auditDesign(bound->datapath, bound->fsm, bound->rom,
                                     ao);
  }
  addDatapathLintErrors(cli, bound->datapath, r.report);

  if (cli.jsonOut) {
    std::printf("%s", analysis::audit::renderAuditJson(r, g).c_str());
  } else {
    std::printf("audit of '%s' via %s: %s\n", g.name().c_str(), how.c_str(),
                r.clean() ? "CLEAN" : "FINDINGS");
    std::printf("%s\n", analysis::audit::renderAuditSummary(r).c_str());
    if (!rangeSummary.empty()) std::printf("%s\n", rangeSummary.c_str());
    if (!r.clean()) std::printf("%s", r.report.renderText().c_str());
  }
  return failsPolicy(cli, r.report) ? 1 : 0;
}

/// Interval range analysis of a synthesized (or .bind-loaded) design:
/// per-state width/overflow proofs (WID) over the refined step graph, with
/// `.bind` assert statements checked as WID005 obligations, then the
/// datapath lint when no WID error fired (addDatapathLintErrors).
int runRange(const Cli& cli, const dfg::Dfg& g) {
  const celllib::CellLibrary lib = loadLibrary(cli);
  std::string how, err;
  const auto bound = bindOrSynthesize(cli, g, lib, how, err);
  if (!bound) die("cannot parse '" + cli.bindPath + "': " + err);

  analysis::range::RangeOptions ro;
  ro.jobs = checkerJobs(cli);
  ro.asserts = bound->asserts;
  analysis::range::RangeResult r = analysis::range::analyzeDesignRanges(
      bound->datapath, bound->fsm, bound->rom, ro);
  addDatapathLintErrors(cli, bound->datapath, r.report);

  if (cli.jsonOut) {
    std::printf("%s", analysis::range::renderRangeJson(r, g).c_str());
  } else {
    std::printf("range analysis of '%s' via %s: %s\n", g.name().c_str(),
                how.c_str(), r.clean() ? "CLEAN" : "FINDINGS");
    std::printf("%s\n", analysis::range::renderRangeSummary(r).c_str());
    if (!r.clean()) std::printf("%s", r.report.renderText().c_str());
  }
  return failsPolicy(cli, r.report) ? 1 : 0;
}

int runLint(const Cli& cli) {
  const std::string text = readFileOrDie(cli.file);
  analysis::LintReport report;
  dfg::Dfg g;
  bool haveGraph = false;

  auto parseFailure = [&](std::string_view rule, const std::string& msg,
                          int line) {
    analysis::Diagnostic d;
    d.rule = std::string(rule);
    d.severity = analysis::Severity::Error;
    d.entity = analysis::EntityKind::Design;
    d.loc.line = line;
    d.message = msg;
    report.add(std::move(d));
  };

  if (sniffFirstWord(text) == "design") {
    // The behavioral front-end has no lenient mode; a compile failure
    // becomes a single parse-failure diagnostic.
    try {
      g = compileBehavioral(text);
      haveGraph = true;
    } catch (const std::exception& e) {
      parseFailure(analysis::kDfgParseFailure, e.what(), -1);
    }
  } else {
    std::vector<dfg::ParseIssue> issues;
    g = dfg::parseLenient(text, issues);
    haveGraph = true;
    for (const dfg::ParseIssue& issue : issues)
      parseFailure(issue.unknownSignal ? analysis::kDfgDanglingInput
                                       : analysis::kDfgParseFailure,
                   issue.message, issue.line > 0 ? issue.line : -1);
  }

  if (haveGraph) {
    report.merge(analysis::lintDfg(g));
    // The OPT family rides along: optimization opportunities are lint-grade
    // findings (Notes) once the graph is structurally sound.
    if (!report.hasErrors())
      report.merge(analysis::dataflow::lintDataflow(g).report);
  }

  if (!cli.schedulePath.empty()) {
    if (!haveGraph) {
      die("cannot lint schedule '" + cli.schedulePath + "': design failed to parse");
    } else {
      std::string err;
      const auto sched =
          sched::parseSchedule(g, readFileOrDie(cli.schedulePath), &err);
      if (!sched)
        parseFailure(analysis::kSchedParseFailure, err, -1);
      else
        report.merge(analysis::lintSchedule(*sched, cli.constraints));
    }
  }

  if (!cli.libraryPath.empty()) {
    try {
      const celllib::CellLibrary lib =
          celllib::parseLibrary(readFileOrDie(cli.libraryPath));
      std::set<dfg::FuType> needed;
      if (haveGraph)
        for (const dfg::Node& n : g.nodes())
          if (dfg::isSchedulable(n.kind)) needed.insert(dfg::fuTypeOf(n.kind));
      report.merge(analysis::lintLibrary(lib, needed));
    } catch (const celllib::LibraryError& e) {
      parseFailure(analysis::kLibParseFailure, e.what(), -1);
    }
  }

  if (cli.jsonOut)
    std::printf("%s", report.renderJson(g.name()).c_str());
  else
    std::printf("%s", report.renderText().c_str());
  return failsPolicy(cli, report) ? 1 : 0;
}

/// A time-constrained run without --steps: default the time constraint to
/// the design's critical path (probed with the user's chaining and clock
/// settings) instead of refusing to run.
void defaultStepsToCriticalPath(Cli& cli, const dfg::Dfg& g) {
  sched::Constraints probe;
  probe.allowChaining = cli.constraints.allowChaining;
  probe.clockNs = cli.constraints.clockNs;
  std::string err;
  const auto tf = sched::computeTimeFrames(g, probe, &err);
  if (!tf) die("cannot default --steps: " + err);
  cli.steps = tf->criticalSteps();
  std::fprintf(stderr,
               "mframe: no --steps given; using the critical path (%d)\n",
               cli.steps);
}

int runCommand(Cli& cli) {
  if (cli.command == "lint") return runLint(cli);
  const dfg::Dfg g = loadDesign(cli.file);
  preflightLint(g);
  if (cli.command == "explore") return runExplore(cli, g);
  if (cli.command == "analyze") return runAnalyze(cli, g);
  if (cli.command == "tune") return runTune(cli, g);
  const bool checker = cli.command == "prove" || cli.command == "audit" ||
                       cli.command == "range";
  // ASAP and list scheduling pace themselves; a .bind file carries its own
  // step count.
  const bool pacesItself =
      checker && (!cli.bindPath.empty() || cli.schedulerName == "asap" ||
                  cli.schedulerName == "list");
  if (cli.steps <= 0 && cli.mode == core::MfsLiapunov::Mode::TimeConstrained &&
      !pacesItself)
    defaultStepsToCriticalPath(cli, g);
  if (checker)
    return cli.command == "prove"   ? runProve(cli, g)
           : cli.command == "audit" ? runAudit(cli, g)
                                    : runRange(cli, g);
  std::printf("design '%s': %zu nodes, %zu operations\n\n",
              g.name().c_str(), g.size(), g.operations().size());
  if (cli.emitStats)
    std::printf("%s\n", dfg::computeStats(g).toString().c_str());
  return cli.command == "schedule" ? runSchedule(cli, g) : runSynth(cli, g);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli = parseArgs(argc, argv);
  const bool wantTrace = !cli.tracePath.empty();
  if (wantTrace || cli.metrics) trace::enableCounters(true);
  if (wantTrace) trace::beginTracing();

  int rc = 2;
  try {
    rc = runCommand(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mframe: %s\n", e.what());
  }

  // Flush instrumentation even when the command failed: a trace of the run
  // that died is exactly what the investigation needs. (die() exits directly
  // and skips this — argument and I/O errors have nothing worth tracing.)
  if (wantTrace) {
    trace::endTracing();
    if (!trace::writeTrace(cli.tracePath)) {
      std::fprintf(stderr, "mframe: cannot write trace '%s'\n",
                   cli.tracePath.c_str());
      if (rc == 0) rc = 2;
    }
  }
  if (cli.metrics) {
    if (cli.metricsJsonOut)
      std::printf("%s\n", trace::metricsJson().c_str());
    else
      std::printf("%s", trace::metricsText().c_str());
  }
  return rc;
}
