// sdcm_fuzz: deterministic fault-plan fuzzer for the consistency
// oracle. Sweeps seeds x randomized fault plans (multi-episode
// interface outages, per-message loss, both combined) across the five
// system models, runs every invariant of src/check on each run, and on
// a violation shrinks to a minimal (model, seed, plan) repro.
//
//   $ sdcm_fuzz                               # default sweep, all models
//   $ sdcm_fuzz --models=UPnP --seeds=1:100   # hammer one model
//   $ sdcm_fuzz --require-convergence --dump=out  # hunt stranded users
//
// Exit status: 0 clean, 1 when any invariant was violated, 2 on usage
// errors.

#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/check/fuzz.hpp"
#include "sdcm/experiment/cli.hpp"

using namespace sdcm;
using experiment::cli::parse_double;
using experiment::cli::parse_u64;

namespace {

std::string usage() {
  return "sdcm_fuzz - fault-plan fuzzer for the consistency oracle\n"
         "\n"
         "usage: sdcm_fuzz [flags]\n"
         "  --models=A,B,...   systems to fuzz (default: all five)\n"
         "                     names: UPnP Jini-1R Jini-2R FRODO-3party "
         "FRODO-2party\n"
         "  --seeds=A:B        seed range [A, B) per model (default 1:9)\n"
         "  --lambdas=a,b,...  failure-rate choices (default "
         "0.15,0.3,0.6,0.9)\n"
         "  --episodes=a,b,... episode-count choices (default 1,2,3)\n"
         "  --loss=a,b,...     loss-rate choices (default 0,0.05,0.2)\n"
         "  --workloads[=a,b,...]\n"
         "                     also draw a synthetic workload per plan;\n"
         "                     choices from static,churn,storm,saturation\n"
         "                     (bare flag = all four, default: none)\n"
         "  --users=N          Users per run (default 5)\n"
         "  --require-convergence\n"
         "                     flag stranded users on converge-shaped\n"
         "                     plans (hunts delivery-abandonment cases;\n"
         "                     the models do not guarantee this)\n"
         "  --no-shrink        report the original failing case as-is\n"
         "  --dump=DIR         write each finding's trace JSONL,\n"
         "                     propagation tree and repro.txt under DIR\n"
         "  --quiet            suppress the per-case progress log\n"
         "  --help\n";
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const auto end = text.find(separator, begin);
    if (end == std::string_view::npos) {
      parts.emplace_back(text.substr(begin));
      break;
    }
    parts.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzConfig config;
  config.log = &std::cerr;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);

    if (key == "--help") {
      std::cout << usage();
      return 0;
    } else if (key == "--models") {
      config.models.clear();
      for (const auto& name : split(value, ',')) {
        const auto model = experiment::cli::model_from_name(name);
        if (!model) {
          std::cerr << "error: unknown model '" << name << "'\n\n" << usage();
          return 2;
        }
        config.models.push_back(*model);
      }
    } else if (key == "--seeds") {
      const auto colon = value.find(':');
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      if (colon == std::string_view::npos ||
          !parse_u64(value.substr(0, colon), begin) ||
          !parse_u64(value.substr(colon + 1), end) || begin >= end) {
        std::cerr << "error: --seeds must be A:B with A < B\n\n" << usage();
        return 2;
      }
      config.seed_begin = begin;
      config.seed_end = end;
    } else if (key == "--lambdas" || key == "--loss") {
      std::vector<double>& grid =
          key == "--lambdas" ? config.lambdas : config.loss_rates;
      grid.clear();
      for (const auto& part : split(value, ',')) {
        double parsed = 0.0;
        if (!parse_double(part, parsed) || parsed < 0.0 || parsed > 1.0) {
          std::cerr << "error: bad " << key << " value '" << part << "'\n\n"
                    << usage();
          return 2;
        }
        grid.push_back(parsed);
      }
    } else if (key == "--episodes") {
      config.episode_choices.clear();
      for (const auto& part : split(value, ',')) {
        std::uint64_t parsed = 0;
        if (!parse_u64(part, parsed) || parsed == 0 || parsed > 1000) {
          std::cerr << "error: bad --episodes value '" << part << "'\n\n"
                    << usage();
          return 2;
        }
        config.episode_choices.push_back(static_cast<int>(parsed));
      }
    } else if (key == "--workloads") {
      config.workload_choices.clear();
      if (value.empty()) {
        config.workload_choices = {
            experiment::WorkloadKind::kStatic, experiment::WorkloadKind::kChurn,
            experiment::WorkloadKind::kStorm,
            experiment::WorkloadKind::kSaturation};
      } else {
        for (const auto& name : split(value, ',')) {
          const auto kind = experiment::workload_from_name(name);
          if (!kind) {
            std::cerr << "error: unknown workload '" << name << "'\n\n"
                      << usage();
            return 2;
          }
          config.workload_choices.push_back(*kind);
        }
      }
    } else if (key == "--users") {
      std::uint64_t parsed = 0;
      if (!parse_u64(value, parsed) || parsed == 0 || parsed > 1000) {
        std::cerr << "error: --users needs a positive integer\n\n" << usage();
        return 2;
      }
      config.users = static_cast<int>(parsed);
    } else if (key == "--require-convergence") {
      config.require_convergence = true;
    } else if (key == "--no-shrink") {
      config.shrink = false;
    } else if (key == "--dump") {
      if (value.empty()) {
        std::cerr << "error: --dump needs a directory path\n\n" << usage();
        return 2;
      }
      config.dump_dir = std::string(value);
    } else if (key == "--quiet") {
      config.log = nullptr;
    } else {
      std::cerr << "error: unknown flag '" << key << "'\n\n" << usage();
      return 2;
    }
  }

  if (config.models.empty()) {
    std::cerr << "error: --models needs at least one name\n\n" << usage();
    return 2;
  }

  const check::FuzzResult result = check::run_fuzz(config);
  std::cerr << "sdcm_fuzz: " << result.cases_run << " runs, "
            << result.findings.size() << " finding(s)\n";
  return result.ok() ? 0 : 1;
}
