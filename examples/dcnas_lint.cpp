/// dcnas_lint: static analysis of a model graph from the command line.
///
/// Graph modes:
///   ./examples/dcnas_lint model.dcnx            lint a serialized artifact
///   ./examples/dcnas_lint --config <key>        lint a search-space point,
///                                               e.g. --config ch5_k3_s1_p1
///                                               fields: chN kN sN pN poolN
///                                               pkN psN wN (any order,
///                                               missing fields keep the
///                                               Table-4 anchor defaults)
/// Plan modes (compile + statically verify the *compiled plan*):
///   ./examples/dcnas_lint --plan model.dcnx     verify the plan compiled
///                                               from a .dcnx artifact
///   ./examples/dcnas_lint --plan --config <key> same, for a lattice point
///   ./examples/dcnas_lint --plan --sweep        compile + verify every
///                                               unique model in the full
///                                               1,728-point lattice
///
/// Prints every diagnostic of the standard verifier pipeline (errors and
/// warnings) and exits 1 when the subject has errors, 0 when clean — so CI
/// can lint .dcnx artifacts (and their compiled plans) the way clang-tidy
/// lints the sources. Unlike parse_model (which rejects at the first failed
/// verification), the lint path parses the file verbatim and reports *all*
/// findings.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "dcnas/analysis/plan_verifier.hpp"
#include "dcnas/analysis/verifier.hpp"
#include "dcnas/common/cli.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/plan/compiler.hpp"

using namespace dcnas;

namespace {

/// Parses "ch5_k3_s1_p1_pool0_pk2_ps2_w64"-style keys (the lattice_key()
/// vocabulary) into a TrialConfig; unknown fields are rejected.
nas::TrialConfig parse_config_key(const std::string& key) {
  nas::TrialConfig cfg;
  std::size_t pos = 0;
  while (pos < key.size()) {
    std::size_t end = key.find('_', pos);
    if (end == std::string::npos) end = key.size();
    const std::string field = key.substr(pos, end - pos);
    pos = end + 1;
    auto value_after = [&](std::size_t prefix_len) {
      return std::stoi(field.substr(prefix_len));
    };
    if (field.rfind("ch", 0) == 0) {
      cfg.channels = value_after(2);
    } else if (field.rfind("pool", 0) == 0) {
      cfg.pool_choice = value_after(4);
    } else if (field.rfind("pk", 0) == 0) {
      cfg.kernel_size_pool = value_after(2);
    } else if (field.rfind("ps", 0) == 0) {
      cfg.stride_pool = value_after(2);
    } else if (field.rfind('b', 0) == 0) {
      cfg.batch = value_after(1);
    } else if (field.rfind('k', 0) == 0) {
      cfg.kernel_size = value_after(1);
    } else if (field.rfind('s', 0) == 0) {
      cfg.stride = value_after(1);
    } else if (field.rfind('p', 0) == 0) {
      cfg.padding = value_after(1);
    } else if (field.rfind('w', 0) == 0) {
      cfg.initial_output_feature = value_after(1);
    } else {
      throw InvalidArgument("unknown config field '" + field + "' in --config");
    }
  }
  return cfg;
}

graph::ModelGraph load_graph(const CliArgs& args, std::string& subject) {
  if (args.has("config")) {
    const nas::TrialConfig cfg = parse_config_key(args.get("config", ""));
    subject = "search-space config " + cfg.lattice_key();
    return graph::build_resnet_graph(cfg.to_resnet_config());
  }
  DCNAS_CHECK(!args.positional().empty(),
              "usage: dcnas_lint <model.dcnx> | --config <lattice key>");
  const std::string& path = args.positional().front();
  subject = path;
  std::ifstream in(path, std::ios::binary);
  DCNAS_CHECK(in.good(), "cannot open model file: " + path);
  const std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return graph::parse_model_graph(bytes);
}

/// Builds a weight-bearing executor for a lattice point: fresh weights from
/// a fixed seed (lint verifies structure and folding consistency, not
/// accuracy, so any concrete weights do).
graph::GraphExecutor executor_for_config(const nas::TrialConfig& cfg) {
  const nn::ResNetConfig rc = cfg.to_resnet_config();
  Rng rng(17);
  nn::ConfigurableResNet model(rc, rng);
  model.set_training(false);
  return graph::GraphExecutor(graph::build_resnet_graph(rc), model);
}

/// Compiles \p exec's plan and prints the PlanVerifier's report. Returns the
/// error count.
std::size_t lint_plan(const graph::GraphExecutor& exec,
                      const std::string& subject, bool verbose) {
  const plan::CompiledPlan plan = plan::compile_plan(exec);
  const analysis::PlanVerifier verifier = analysis::PlanVerifier::standard();
  const analysis::VerifyResult result = verifier.verify(plan, exec);
  if (verbose) {
    std::printf("dcnas_lint: compiled plan of %s\n", subject.c_str());
    std::printf("  %zu steps, %zu slots, %lld arena floats/sample\n",
                plan.steps.size(), plan.slots.size(),
                static_cast<long long>(plan.arena_size));
    for (const auto& name : verifier.pass_names()) {
      std::printf("  pass: %s\n", name.c_str());
    }
  }
  if (result.diagnostics.empty()) {
    if (verbose) std::printf("clean: no diagnostics\n");
    return 0;
  }
  if (!verbose) std::printf("dcnas_lint: compiled plan of %s\n",
                            subject.c_str());
  std::printf("%s", result.to_string().c_str());
  std::printf("%zu error(s), %zu warning(s)\n", result.error_count(),
              result.warning_count());
  return result.error_count();
}

/// --plan --sweep: every lattice point, deduplicated to unique models (batch
/// never affects the plan; pool_choice=0 collapses the pool geometry axes).
int sweep_plans() {
  const auto all = nas::SearchSpaceSpec::paper().enumerate();
  std::set<std::string> seen;
  std::size_t errors = 0;
  std::size_t unique = 0;
  for (const auto& cfg : all) {
    const std::string key =
        "ch" + std::to_string(cfg.channels) + "_" + cfg.canonical_arch_key();
    if (!seen.insert(key).second) continue;
    ++unique;
    errors += lint_plan(executor_for_config(cfg), cfg.lattice_key(),
                        /*verbose=*/false);
  }
  std::printf(
      "dcnas_lint: plan sweep over %zu lattice configs "
      "(%zu unique models): %zu error(s)\n",
      all.size(), unique, errors);
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    if (args.has("plan")) {
      if (args.get_flag("sweep", false)) return sweep_plans();
      // `--plan model.dcnx` parses as --plan with value "model.dcnx".
      const std::string plan_value = args.get("plan", "true");
      std::string subject;
      graph::GraphExecutor exec = [&] {
        if (args.has("config")) {
          const nas::TrialConfig cfg = parse_config_key(args.get("config", ""));
          subject = "search-space config " + cfg.lattice_key();
          return executor_for_config(cfg);
        }
        std::string path = plan_value;
        if (plan_value == "true" || plan_value == "1") {
          DCNAS_CHECK(!args.positional().empty(),
                      "usage: dcnas_lint --plan <model.dcnx> | --plan "
                      "--config <lattice key> | --plan --sweep");
          path = args.positional().front();
        }
        subject = path;
        return graph::load_model(path);
      }();
      return lint_plan(exec, subject, /*verbose=*/true) == 0 ? 0 : 1;
    }

    std::string subject;
    const graph::ModelGraph g = load_graph(args, subject);
    const analysis::GraphVerifier verifier =
        analysis::GraphVerifier::standard();
    const analysis::VerifyResult result = verifier.verify(g);

    std::printf("dcnas_lint: %s\n", subject.c_str());
    std::printf("  %zu nodes, %lld params, %lld FLOPs\n", g.size(),
                static_cast<long long>(g.total_params()),
                static_cast<long long>(g.total_flops()));
    for (const auto& name : verifier.pass_names()) {
      std::printf("  pass: %s\n", name.c_str());
    }
    if (result.diagnostics.empty()) {
      std::printf("clean: no diagnostics\n");
      return 0;
    }
    std::printf("%s", result.to_string().c_str());
    std::printf("%zu error(s), %zu warning(s)\n", result.error_count(),
                result.warning_count());
    return result.ok() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "dcnas_lint: %s\n", e.what());
    return 2;
  }
}
