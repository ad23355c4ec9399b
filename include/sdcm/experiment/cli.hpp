#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/experiment/sweep.hpp"

namespace sdcm::experiment::cli {

/// Parsed command line of the `sdcm_sweep` tool. The ablation toggles
/// live in `sweep.ablation` (the typed AblationSpec the engine applies);
/// there is no untyped hook on this path anymore.
struct Options {
  SweepConfig sweep;
  /// Where to write the CSV ("-" = stdout only).
  std::string output = "-";
  /// Machine-readable campaign log, one JSON object per run (JsonlSink);
  /// empty = off, "-" = stdout.
  std::string jsonl;
  /// Where to write the campaign summary JSON; empty = stderr only.
  std::string summary;
  /// Directory for per-run trace JSONL files + manifest (TraceSink);
  /// empty = off.
  std::string traces;
  /// Shard logs to merge instead of running a sweep (--merge=a,b,...).
  std::vector<std::string> merge_inputs;
  /// Run the consistency oracle on every run (CheckSink); the process
  /// exits 1 when any invariant is violated.
  bool check = false;
  /// Profile every run's wall clock (ProfileSink) and write the
  /// campaign profile JSONL. Default path (when `profile_path` is
  /// empty): "<jsonl>.profile.jsonl" next to the campaign log, or
  /// "profile.jsonl" when no --jsonl was given.
  bool profile = false;
  std::string profile_path;
  /// Live progress on stderr (--no-progress disables).
  bool progress = true;
  bool help = false;
};

/// Parses argv. Returns std::nullopt (with a message on `error`) when the
/// arguments are malformed. Accepted flags:
///   --models=UPnP,Jini-1R,Jini-2R,FRODO-3party,FRODO-2party
///   --lambdas=0.0:0.9:0.05  (min:max:step)  or  --lambdas=0.1,0.5
///   --runs=N  --users=N  --managers=N  --registries=N
///   --threads=N  --seed=N
///   --output=FILE  --jsonl=FILE  --summary=FILE  --traces=DIR
///   --shard=i/N    deterministic 1-of-N campaign slice
///   --merge=A,B    merge shard JSONL logs instead of sweeping
///   --no-frodo-pr1 --no-frodo-srn2 --no-frodo-pr3 --no-frodo-pr4
///   --no-frodo-pr5 --no-upnp-pr4 --no-upnp-pr5
///   --placement=fit|truncated  --episodes=N  --loss=P
///   --check        run the consistency oracle on every run
///   --profile[=FILE]  profile every run; write the campaign profile JSONL
///   --no-progress
///   --help
std::optional<Options> parse(int argc, const char* const* argv,
                             std::string& error);

/// Usage text for --help / errors.
std::string usage();

/// Resolves a model name ("UPnP", "Jini-1R", ...) case-sensitively.
std::optional<SystemModel> model_from_name(std::string_view name);

/// Parses "i/N" into a ShardSpec (i in [0, N), N >= 1).
std::optional<ShardSpec> parse_shard(std::string_view text);

/// Number parsers shared by the command-line tools. Each fails unless
/// the whole text is one number, and leaves range checks to the caller.
/// parse_double takes strtod's syntax, "nan" and "inf" included;
/// parse_int and parse_u64 take decimal digits only (parse_int with an
/// optional '-') and fail on overflow.
bool parse_double(std::string_view text, double& out);
bool parse_int(std::string_view text, long& out);
bool parse_u64(std::string_view text, std::uint64_t& out);

}  // namespace sdcm::experiment::cli
