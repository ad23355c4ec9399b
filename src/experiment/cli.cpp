#include "sdcm/experiment/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "sdcm/experiment/protocol_registry.hpp"

namespace sdcm::experiment::cli {

namespace {

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

template <typename Integer>
bool parse_integer(std::string_view text, Integer& out) {
  const auto* last = text.data() + text.size();
  const auto result = std::from_chars(text.data(), last, out);
  return result.ec == std::errc{} && result.ptr == last;
}

}  // namespace

bool parse_double(std::string_view text, double& out) {
  // std::from_chars for double is not universally available; use strtod
  // through a bounded copy.
  const std::string copy(text);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && !copy.empty();
}

bool parse_int(std::string_view text, long& out) {
  return parse_integer(text, out);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  return parse_integer(text, out);
}

std::optional<SystemModel> model_from_name(std::string_view name) {
  // Single source of truth: the protocol registry's name map.
  return experiment::model_from_name(name);
}

std::string usage() {
  std::ostringstream oss;
  oss << "sdcm_sweep - run the paper's consistency-maintenance experiment\n"
         "\n"
         "usage: sdcm_sweep [flags]\n"
         "  --models=A,B,...   systems to simulate (default: all)\n"
         "                     names: "
      << model_name_list() << "\n"
      << 
         "  --lambdas=lo:hi:step  failure-rate grid (default 0.0:0.9:0.05)\n"
         "  --lambdas=a,b,c    explicit rates\n"
         "  --runs=N           simulation runs per point (default 30)\n"
         "  --users=N          Users per run (default 5)\n"
         "  --managers=N       Managers per run (default 1; extras\n"
         "                     publish background services)\n"
         "  --registries=N     registry nodes per run (default: the\n"
         "                     model's paper count, e.g. Jini-2R has 2)\n"
         "  --threads=N        worker threads (default: hardware)\n"
         "  --seed=N           master seed (default 20060425)\n"
         "  --output=FILE      also write the CSV to FILE ('-' = stdout)\n"
         "  --jsonl=FILE       per-run campaign log, one JSON object per\n"
         "                     run ('-' = stdout); the shardable artifact\n"
         "  --shard=i/N        run only shard i of an N-way campaign\n"
         "  --merge=A,B,...    merge shard JSONL logs (no simulation);\n"
         "                     reports exactly the unsharded result\n"
         "  --summary=FILE     write the campaign summary JSON to FILE\n"
         "  --traces=DIR       stream every run's trace to DIR as per-run\n"
         "                     JSONL files plus a manifest.jsonl\n"
         "  --workload=KIND    synthetic workload on every run: churn\n"
         "                     (nodes leave and rejoin mid-run), storm\n"
         "                     (synchronized announce bursts), saturation\n"
         "                     (token-bucket link capacity + bursts);\n"
         "                     default: static paper scenario\n"
         "  --placement=fit|truncated   failure episode placement\n"
         "  --episodes=N       outage episodes per node (default 1)\n"
         "  --loss=P           per-message loss probability (default 0)\n"
         "  --no-frodo-pr1 --no-frodo-srn2 --no-frodo-pr3 --no-frodo-pr4\n"
         "  --no-frodo-pr5 --no-upnp-pr4 --no-upnp-pr5   ablations\n"
         "  --check            run the consistency oracle on every run;\n"
         "                     exit 1 on any invariant violation\n"
         "  --profile[=FILE]   attach a wall-clock profiler to every run\n"
         "                     and write the per-model campaign profile as\n"
         "                     JSONL (default FILE: '<jsonl>.profile.jsonl'\n"
         "                     next to the campaign log, else\n"
         "                     'profile.jsonl'); per-event attribution\n"
         "                     needs a -DSDCM_PROFILE=ON build, phase\n"
         "                     timers work in every build; render with\n"
         "                     sdcm_logs --profile-table\n"
         "  --no-progress      disable the live stderr progress line\n"
         "  --help\n";
  return oss.str();
}

std::optional<ShardSpec> parse_shard(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  long index = 0;
  long count = 0;
  if (!parse_int(text.substr(0, slash), index) ||
      !parse_int(text.substr(slash + 1), count)) {
    return std::nullopt;
  }
  if (count < 1 || index < 0 || index >= count) return std::nullopt;
  ShardSpec shard;
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return shard;
}

std::optional<Options> parse(int argc, const char* const* argv,
                             std::string& error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);

    if (key == "--help") {
      options.help = true;
      return options;
    } else if (key == "--models") {
      options.sweep.models.clear();
      for (const auto& name : split(value, ',')) {
        const auto model = model_from_name(name);
        if (!model) {
          error = "unknown model '" + name + "'";
          return std::nullopt;
        }
        options.sweep.models.push_back(*model);
      }
      if (options.sweep.models.empty()) {
        error = "--models needs at least one name";
        return std::nullopt;
      }
    } else if (key == "--lambdas") {
      options.sweep.lambdas.clear();
      if (value.find(':') != std::string_view::npos) {
        const auto parts = split(value, ':');
        double lo = 0, hi = 0, step = 0;
        if (parts.size() != 3 || !parse_double(parts[0], lo) ||
            !parse_double(parts[1], hi) || !parse_double(parts[2], step) ||
            step <= 0 || lo > hi || lo < 0 || hi > 1.0) {
          error = "--lambdas=lo:hi:step malformed";
          return std::nullopt;
        }
        for (double l = lo; l <= hi + 1e-9; l += step) {
          options.sweep.lambdas.push_back(l);
        }
      } else {
        for (const auto& part : split(value, ',')) {
          double l = 0;
          if (!parse_double(part, l) || l < 0 || l > 1.0) {
            error = "bad lambda '" + part + "'";
            return std::nullopt;
          }
          options.sweep.lambdas.push_back(l);
        }
      }
    } else if (key == "--runs" || key == "--users" || key == "--managers" ||
               key == "--registries" || key == "--threads" ||
               key == "--seed" || key == "--episodes") {
      long parsed = 0;
      if (!parse_int(value, parsed) || parsed < 0) {
        error = std::string(key) + " needs a non-negative integer";
        return std::nullopt;
      }
      if (key == "--runs") {
        if (parsed == 0) {
          error = "--runs must be positive";
          return std::nullopt;
        }
        options.sweep.runs = static_cast<int>(parsed);
      } else if (key == "--users") {
        if (parsed == 0) {
          error = "--users must be positive";
          return std::nullopt;
        }
        options.sweep.topology.users = static_cast<int>(parsed);
      } else if (key == "--managers") {
        if (parsed == 0) {
          error = "--managers must be positive";
          return std::nullopt;
        }
        options.sweep.topology.managers = static_cast<int>(parsed);
      } else if (key == "--registries") {
        if (parsed == 0) {
          error = "--registries must be positive (omit the flag to keep "
                  "the model default)";
          return std::nullopt;
        }
        options.sweep.topology.registries = static_cast<int>(parsed);
      } else if (key == "--threads") {
        options.sweep.threads = static_cast<std::size_t>(parsed);
      } else if (key == "--seed") {
        options.sweep.master_seed = static_cast<std::uint64_t>(parsed);
      } else {
        if (parsed == 0) {
          error = "--episodes must be positive";
          return std::nullopt;
        }
        options.sweep.ablation.episodes = static_cast<int>(parsed);
      }
    } else if (key == "--output") {
      options.output = std::string(value);
    } else if (key == "--jsonl") {
      if (value.empty()) {
        error = "--jsonl needs a file path ('-' = stdout)";
        return std::nullopt;
      }
      options.jsonl = std::string(value);
    } else if (key == "--summary") {
      if (value.empty()) {
        error = "--summary needs a file path";
        return std::nullopt;
      }
      options.summary = std::string(value);
    } else if (key == "--traces") {
      if (value.empty()) {
        error = "--traces needs a directory path";
        return std::nullopt;
      }
      options.traces = std::string(value);
    } else if (key == "--shard") {
      const auto shard = parse_shard(value);
      if (!shard) {
        error = "--shard must be i/N with 0 <= i < N";
        return std::nullopt;
      }
      options.sweep.shard = *shard;
    } else if (key == "--merge") {
      for (const auto& path : split(value, ',')) {
        if (!path.empty()) options.merge_inputs.push_back(path);
      }
      if (options.merge_inputs.empty()) {
        error = "--merge needs at least one JSONL path";
        return std::nullopt;
      }
    } else if (key == "--workload") {
      const auto kind = workload_from_name(value);
      if (!kind) {
        error = "--workload must be churn, storm, saturation or static";
        return std::nullopt;
      }
      options.sweep.workload.kind = *kind;
    } else if (key == "--loss") {
      double loss = 0.0;
      if (!parse_double(value, loss) || loss < 0.0 || loss > 1.0) {
        error = "--loss must lie in [0, 1]";
        return std::nullopt;
      }
      options.sweep.ablation.message_loss_rate = loss;
    } else if (key == "--placement") {
      if (value == "fit") {
        options.sweep.ablation.placement = net::FailurePlacement::kFitInside;
      } else if (value == "truncated") {
        options.sweep.ablation.placement = net::FailurePlacement::kTruncated;
      } else {
        error = "--placement must be 'fit' or 'truncated'";
        return std::nullopt;
      }
    } else if (key == "--no-frodo-pr1") {
      options.sweep.ablation.frodo_pr1 = false;
    } else if (key == "--no-frodo-srn2") {
      options.sweep.ablation.frodo_srn2 = false;
    } else if (key == "--no-frodo-pr3") {
      options.sweep.ablation.frodo_pr3 = false;
    } else if (key == "--no-frodo-pr4") {
      options.sweep.ablation.frodo_pr4 = false;
    } else if (key == "--no-frodo-pr5") {
      options.sweep.ablation.frodo_pr5 = false;
    } else if (key == "--no-upnp-pr4") {
      options.sweep.ablation.upnp_pr4 = false;
    } else if (key == "--no-upnp-pr5") {
      options.sweep.ablation.upnp_pr5 = false;
    } else if (key == "--check") {
      options.check = true;
    } else if (key == "--profile") {
      options.profile = true;
      options.profile_path = std::string(value);
    } else if (key == "--no-progress") {
      options.progress = false;
    } else {
      error = "unknown flag '" + std::string(key) + "'";
      return std::nullopt;
    }
  }
  return options;
}

}  // namespace sdcm::experiment::cli
