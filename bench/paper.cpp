// sdcm_paper: the paper's evaluation in one driver. Every table and
// figure the reproduction regenerates, and the extension studies, are
// printed next to the published values and checked against the claims
// the paper (or DESIGN.md) makes about them.
//
// Each experiment is one row of the table in main(): the sweeps it runs
// besides the shared paper grid, and a report that prints its tables
// and returns its claims. The paper grid (every model x 19 lambdas) runs
// once. Run seeds depend only on (model, lambda index, run), so a report
// whose variant is the paper default reads the grid instead of running
// that variant again.
//
// A claim may name a known deviation from the paper; that claim is
// expected to fail. The exit status is 0 only when every other claim
// holds and every known deviation still fails, so a change that flips a
// verdict either way fails the run and names the claim. CTest runs this
// driver as the `sdcm_paper` test.
//
// SDCM_RUNS sets the runs per (model, lambda) point (default 30, the
// paper's 30 event logs); SDCM_THREADS the worker threads.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/recovery.hpp"
#include "sdcm/experiment/env.hpp"
#include "sdcm/experiment/report.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/frodo/manager.hpp"
#include "sdcm/frodo/registry_node.hpp"
#include "sdcm/frodo/user.hpp"
#include "sdcm/jini/registry.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/slp/slp.hpp"
#include "sdcm/upnp/manager.hpp"

namespace {

using namespace sdcm;
using experiment::Metric;
using experiment::SweepConfig;
using experiment::SweepPoint;
using experiment::SweepResult;
using experiment::SystemModel;
using Models = std::vector<SystemModel>;
using Points = std::span<const SweepPoint>;
using Runs = std::span<const SweepResult>;

constexpr SystemModel kUpnp = SystemModel::kUpnp;
constexpr SystemModel kJini1R = SystemModel::kJiniOneRegistry;
constexpr SystemModel kJini2R = SystemModel::kJiniTwoRegistries;
constexpr SystemModel kFrodo3p = SystemModel::kFrodoThreeParty;
constexpr SystemModel kFrodo2p = SystemModel::kFrodoTwoParty;
constexpr Metric kR = Metric::kResponsiveness;
constexpr Metric kF = Metric::kEffectiveness;
constexpr Metric kE = Metric::kEfficiency;
constexpr Metric kG = Metric::kDegradation;

// --- Published values -------------------------------------------------

/// The paper's five systems, in the column order of its tables.
constexpr SystemModel kPaperModels[] = {kUpnp, kJini1R, kJini2R, kFrodo3p,
                                        kFrodo2p};

/// Table 2: update messages at zero failure for N = 5 Users.
constexpr const char* kTable2Formula[] = {"3N", "N+2", "2(N+2)", "N+2",
                                          "N+2"};
constexpr std::uint64_t kTable2Count[] = {15, 7, 14, 7, 7};

/// Table 5: each metric's average across lambda = 0..0.90.
struct Published {
  Metric metric;
  double by_model[std::size(kPaperModels)];
};
constexpr Published kTable5[] = {
    {kR, {0.553, 0.474, 0.476, 0.580, 0.666}},
    {kF, {0.922, 0.802, 0.825, 0.878, 0.861}},
    {kG, {0.385, 0.311, 0.361, 0.428, 0.429}},
};

// --- Claims and rows --------------------------------------------------

struct Claim {
  std::string text;
  bool holds = false;
  /// Why the reproduction is known to differ from the paper here; empty
  /// when the claim must hold. A listed deviation must still fail.
  std::string_view deviation = {};
};

/// Prints a row's tables and returns its claims, given the paper grid
/// and one result per variant of the row, in order.
using Report = std::vector<Claim> (*)(const SweepResult& paper, Runs runs);

struct Row {
  std::string_view id;
  std::string_view title;
  /// The sweeps this row runs besides the shared paper grid.
  std::vector<SweepConfig> variants;
  Report report;
};

// --- Helpers ----------------------------------------------------------

const Models kAll(std::begin(experiment::kAllModels),
                  std::end(experiment::kAllModels));

/// The paper grid over `models`, SDCM_RUNS runs per point.
SweepConfig grid(Models models = kAll) {
  SweepConfig config;
  config.models = std::move(models);
  config.runs = experiment::env::runs(30);
  config.threads = experiment::env::threads();
  return config;
}

std::string name(SystemModel model) {
  return std::string(experiment::to_string(model));
}

bool all(const Models& models, const std::function<bool(SystemModel)>& pred) {
  return std::all_of(models.begin(), models.end(), pred);
}

/// `metric` of `model` at every lambda, in sweep order.
std::vector<double> series(Points points, SystemModel model, Metric metric) {
  std::vector<double> out;
  for (const auto& p : points) {
    if (p.model == model) {
      out.push_back(experiment::value_of(p.metrics, metric));
    }
  }
  return out;
}

/// Mean of `metric` over every lambda for one model (Table 5 style).
double average(Points points, SystemModel model, Metric metric) {
  const auto values = series(points, model, metric);
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void print_header(const char* first, int width) {
  std::printf("%-*s", width, first);
  for (const auto model : kPaperModels) {
    std::printf("%-14s", name(model).c_str());
  }
  std::printf("\n");
}

/// Paper Table 5's averages of `metric` above the measured ones.
void print_averages(Points points, Metric metric) {
  std::printf("\n");
  print_header("average over lambda", 22);
  for (const auto& published : kTable5) {
    if (published.metric != metric) continue;
    std::printf("%-22s", "paper (Table 5)");
    for (const double v : published.by_model) std::printf("%-14.3f", v);
    std::printf("\n");
  }
  std::printf("%-22s", "measured");
  for (const auto model : kPaperModels) {
    std::printf("%-14.3f", average(points, model, metric));
  }
  std::printf("\n");
}

// --- Descriptive tables -----------------------------------------------

std::vector<Claim> taxonomy(const SweepResult&, Runs) {
  using discovery::RecoveryTechnique;
  constexpr RecoveryTechnique kTechniques[] = {
      RecoveryTechnique::kSRC1, RecoveryTechnique::kSRC2,
      RecoveryTechnique::kSRN1, RecoveryTechnique::kSRN2,
      RecoveryTechnique::kPR1,  RecoveryTechnique::kPR2,
      RecoveryTechnique::kPR3,  RecoveryTechnique::kPR4,
      RecoveryTechnique::kPR5};
  bench::note("Table 1 - classification:");
  for (const auto t : kTechniques) {
    std::printf("  %-5s %s\n", std::string(to_string(t)).c_str(),
                std::string(describe(t)).c_str());
  }
  struct Implementation {
    const char* name;
    discovery::TechniqueSet set;
    const char* notes;
  };
  const Implementation rows[] = {
      {"UPnP", upnp::UpnpManager::techniques(),
       "2-party; SRC1/SRN1 TCP-dependent; no SRN2; resubscription (PR4) "
       "does not replay state"},
      {"Jini", jini::JiniRegistry::techniques(),
       "3-party; SRC1/SRN1 TCP-dependent; PR1 future-registrations only; "
       "PR2 query-after-notification-request; PR3 bare error"},
      {"FRODO", frodo::FrodoRegistryNode::techniques(),
       "2-party (300D) + 3-party (3C/3D); protocol-level SRN1; SRN2 at "
       "2-party Managers; PR1 covers existing registrations; PR3/PR4 "
       "responses carry the updated SD; PR5 Registry-query-then-multicast"},
  };
  bench::note("\nTable 2 (taxonomy rows) - implemented per model:");
  std::printf("  %-7s", "");
  for (const auto t : kTechniques) {
    std::printf("%-6s", std::string(to_string(t)).c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("  %-7s", row.name);
    for (const auto t : kTechniques) {
      std::printf("%-6s", row.set.contains(t) ? "x" : "-");
    }
    std::printf("\n");
  }
  bench::note("\nTable 4 - how each model implements them:");
  for (const auto& row : rows) std::printf("  %-7s %s\n", row.name, row.notes);
  return {};
}

std::vector<Claim> table2(const SweepResult&, Runs) {
  std::printf("%-14s %-10s %s\n", "system", "measured", "paper");
  bool exact = true;
  for (std::size_t i = 0; i < std::size(kPaperModels); ++i) {
    experiment::ExperimentConfig config;
    config.model = kPaperModels[i];
    config.lambda = 0.0;
    config.seed = 42;
    const auto record = experiment::run_experiment(config);
    exact = exact && record.update_messages == kTable2Count[i];
    std::printf("%-14s %-10llu %s = %llu\n", name(kPaperModels[i]).c_str(),
                static_cast<unsigned long long>(record.update_messages),
                kTable2Formula[i],
                static_cast<unsigned long long>(kTable2Count[i]));
  }
  bench::note(
      "\naccounting convention (DESIGN.md decision 2): update messages =\n"
      "notifications/invalidations, update fetch request+response, and the\n"
      "Manager<->Registry update + ack; FRODO's User-side acks are control\n"
      "traffic. The paper's 'with TCP' counts (UPnP 5N, Jini 2N+2) add one\n"
      "2-segment handshake per transaction; FRODO is UDP-only (Table 3).");
  return {{"discovery-layer update counts match Table 2 exactly "
           "(3N / N+2 / 2(N+2) / N+2 / N+2)",
           exact}};
}

// --- The paper's figures and Table 5 ----------------------------------

constexpr std::string_view kJiniInversion =
    "DESIGN.md decision 1: our Jini's rediscovery paths recover more "
    "reliably than the NIST runs', so Jini-1R averages F = 0.914 against "
    "FRODO-2party's 0.889 (paper: 0.802 vs 0.861)";

std::vector<Claim> figure4(const SweepResult& paper, Runs) {
  experiment::write_series_table(std::cout, paper, kF);
  print_averages(paper, kF);
  // Region (i), below 30% failure: lambda indices 1..5.
  const auto f2p = series(paper, kFrodo2p, kF);
  const bool f2p_best_low = all({kUpnp, kJini1R}, [&](SystemModel m) {
    const auto other = series(paper, m, kF);
    for (std::size_t i = 1; i <= 5; ++i) {
      if (f2p[i] < other[i] - 0.02) return false;
    }
    return true;
  });
  const double jini1 = average(paper, kJini1R, kF);
  return {
      {"(i) FRODO-2party (SRN2) is the most effective system below 30% "
       "failure (vs UPnP, Jini-1R)",
       f2p_best_low},
      {"Jini with 1 Registry is among the least effective systems",
       all({kJini2R, kFrodo3p, kFrodo2p},
           [&](SystemModel m) {
             return jini1 <= average(paper, m, kF) + 0.02;
           }),
       kJiniInversion},
      {"effectiveness degrades with failure rate for all",
       all(kAll, [&](SystemModel m) {
         const auto s = series(paper, m, kF);
         return s.back() < s.front();
       })},
  };
}

std::vector<Claim> figure5(const SweepResult& paper, Runs) {
  experiment::write_series_table(std::cout, paper, kR);
  print_averages(paper, kR);
  const double f2p = average(paper, kFrodo2p, kR);
  const double jini1 = average(paper, kJini1R, kR);
  return {
      {"(iii) FRODO-2party is the most responsive system overall (UDP + "
       "direct notification + SRN2/PR1/PR4)",
       all({kUpnp, kJini1R, kJini2R, kFrodo3p},
           [&](SystemModel m) { return f2p >= average(paper, m, kR); })},
      {"Jini with 1 Registry has the lowest responsiveness",
       all({kUpnp, kFrodo3p, kFrodo2p},
           [&](SystemModel m) { return jini1 <= average(paper, m, kR); })},
      {"responsiveness collapses toward 0 at 90% failure for all systems "
       "(as in the figure's right edge)",
       all(kAll,
           [&](SystemModel m) { return series(paper, m, kR).back() < 0.2; })},
  };
}

std::vector<Claim> figure6(const SweepResult& paper, Runs) {
  std::printf("m' (Table 2):");
  for (std::size_t i = 0; i < std::size(kPaperModels); ++i) {
    std::printf(" %s %llu", name(kPaperModels[i]).c_str(),
                static_cast<unsigned long long>(kTable2Count[i]));
  }
  std::printf("\n");
  experiment::write_series_table(std::cout, paper, kG);
  bench::note("\nUpdate Efficiency E(lambda) against the global m = 7 "
              "(Section 4.5's original metric):");
  experiment::write_series_table(std::cout, paper, kE);
  print_averages(paper, kG);
  const double f2p = average(paper, kFrodo2p, kG);
  return {
      {"G(0) = 1 for every system (y(0) = m')",
       all(kAll,
           [&](SystemModel m) { return series(paper, m, kG).front() > 0.99; })},
      {"FRODO (2-party) shows the best overall Efficiency Degradation",
       all({kUpnp, kJini1R, kJini2R},
           [&](SystemModel m) { return f2p >= average(paper, m, kG); })},
      {"E(0): FRODO owns the global minimum m = 7 (E = 1.0) while UPnP's "
       "invalidation costs 15 messages (E = 7/15)",
       series(paper, kFrodo2p, kE).front() > 0.99 &&
           series(paper, kUpnp, kE).front() < 0.5},
  };
}

const Models kFrodo = {kFrodo3p, kFrodo2p};

SweepConfig without_pr1() {
  SweepConfig config = grid(kFrodo);
  config.ablation.frodo_pr1 = false;
  return config;
}

/// Variants: without_pr1(). With PR1 is the paper default.
std::vector<Claim> figure7(const SweepResult& paper, Runs runs) {
  const SweepResult& without = runs[0];
  std::vector<SweepPoint> with;
  for (const auto& p : paper) {
    if (p.model == kFrodo3p || p.model == kFrodo2p) with.push_back(p);
  }
  bench::note("--- with PR1 (the paper's default model) ---");
  experiment::write_series_table(std::cout, with, kF);
  bench::note("\n--- without PR1 (control) ---");
  experiment::write_series_table(std::cout, without, kF);
  std::printf("\n");
  for (const auto model : kFrodo) {
    std::printf("%-14s average effectiveness gain from PR1: %+.3f\n",
                name(model).c_str(),
                average(paper, model, kF) - average(without, model, kF));
  }
  return {{"PR1 improves (or preserves) the effectiveness of both FRODO "
           "subscription modes",
           all(kFrodo, [&](SystemModel m) {
             return average(paper, m, kF) >= average(without, m, kF);
           })}};
}

std::vector<Claim> table5(const SweepResult& paper, Runs) {
  experiment::write_averages_table(std::cout, paper);
  bench::note("\npaper Table 5:");
  print_header("Update Metric", 30);
  for (const auto& published : kTable5) {
    std::printf("%-30s", std::string(to_string(published.metric)).c_str());
    for (const double v : published.by_model) std::printf("%-14.3f", v);
    std::printf("\n");
  }
  bench::note("\ncsv dump (for plotting):");
  experiment::write_csv(std::cout, paper);
  const double r_f2p = average(paper, kFrodo2p, kR);
  const double g_f2p = average(paper, kFrodo2p, kG);
  return {
      {"FRODO has the highest responsiveness",
       all({kUpnp, kJini1R, kJini2R, kFrodo3p},
           [&](SystemModel m) { return r_f2p >= average(paper, m, kR); })},
      {"FRODO has the least efficiency degradation (vs Jini, even with 2 "
       "Registries, and UPnP)",
       all({kUpnp, kJini1R, kJini2R},
           [&](SystemModel m) { return g_f2p >= average(paper, m, kG); })},
      {"FRODO maintains a high degree of effectiveness (> 0.8)",
       all(kFrodo,
           [&](SystemModel m) { return average(paper, m, kF) > 0.8; })},
  };
}

// --- Extensions: ablations and the mechanisms of Section 4.2 ----------

constexpr std::pair<const char*, bool experiment::AblationSpec::*>
    kRemovals[] = {{"SRN2", &experiment::AblationSpec::frodo_srn2},
                   {"PR1", &experiment::AblationSpec::frodo_pr1},
                   {"PR3", &experiment::AblationSpec::frodo_pr3},
                   {"PR4", &experiment::AblationSpec::frodo_pr4},
                   {"PR5", &experiment::AblationSpec::frodo_pr5}};

std::vector<SweepConfig> removals() {
  std::vector<SweepConfig> out;
  for (const auto& removal : kRemovals) {
    out.push_back(grid(kFrodo));
    out.back().ablation.*removal.second = false;
  }
  return out;
}

/// Variants: removals(). The baseline is the paper default.
std::vector<Claim> recovery_ablation(const SweepResult& paper, Runs runs) {
  std::printf("%-20s %-12s %-12s %-12s %-12s\n", "variant", "F(3-party)",
              "F(2-party)", "R(3-party)", "R(2-party)");
  const auto print = [](const std::string& label, Points points) {
    std::printf("%-20s %-12.3f %-12.3f %-12.3f %-12.3f\n", label.c_str(),
                average(points, kFrodo3p, kF), average(points, kFrodo2p, kF),
                average(points, kFrodo3p, kR), average(points, kFrodo2p, kR));
  };
  print("baseline (all on)", paper);
  // The effectiveness each removal costs, per subscription mode.
  std::vector<double> cost3;
  std::vector<double> cost2;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    print(std::string("without ") + kRemovals[i].first, runs[i]);
    cost3.push_back(average(paper, kFrodo3p, kF) -
                    average(runs[i], kFrodo3p, kF));
    cost2.push_back(average(paper, kFrodo2p, kF) -
                    average(runs[i], kFrodo2p, kF));
  }
  constexpr std::size_t kSrn2 = 0, kPr1 = 1, kPr3 = 2;
  const auto largest = [](const std::vector<double>& cost, std::size_t i) {
    for (std::size_t j = 0; j < cost.size(); ++j) {
      if (j != i && cost[j] >= cost[i]) return false;
    }
    return true;
  };
  return {
      {"removing SRN2 costs FRODO-2party effectiveness (SRN2 runs at "
       "2-party Managers)",
       cost2[kSrn2] > 0},
      {"removing PR1 costs effectiveness in both subscription modes",
       cost3[kPr1] > 0 && cost2[kPr1] > 0},
      {"removing PR3 costs FRODO-3party effectiveness", cost3[kPr3] > 0},
      {"PR1 is the largest single factor: its removal costs the most "
       "effectiveness in both modes",
       largest(cost3, kPr1) && largest(cost2, kPr1)},
  };
}

SweepConfig frodo2p_with(std::function<void(frodo::FrodoConfig&)> set) {
  SweepConfig config = grid({kFrodo2p});
  config.customize = [set](experiment::ExperimentConfig& c) { set(c.frodo); };
  return config;
}

SweepConfig lease(long seconds) {
  return frodo2p_with([seconds](frodo::FrodoConfig& c) {
    c.subscription_lease = sim::seconds(seconds);
  });
}

SweepConfig renew_at(double fraction) {
  return frodo2p_with(
      [fraction](frodo::FrodoConfig& c) { c.renew_fraction = fraction; });
}

constexpr std::string_view kLeaseDeviation =
    "measured R falls as the lease shrinks: 0.632 / 0.614 / 0.589 at "
    "3600 / 1800 / 900 s (open question on the ROADMAP)";

/// Variants: lease(900), lease(3600), renew_at(0.25), renew_at(0.8).
/// FRODO's own lease and renewal point are the paper default.
std::vector<Claim> lease_ablation(const SweepResult& paper, Runs runs) {
  const frodo::FrodoConfig defaults;
  const std::array<const SweepResult*, 3> by_lease = {&runs[0], &paper,
                                                      &runs[1]};
  const double leases[] = {
      900, sim::to_seconds(defaults.subscription_lease), 3600};
  const std::array<const SweepResult*, 3> by_renewal = {&runs[2], &paper,
                                                        &runs[3]};
  const double fractions[] = {0.25, defaults.renew_fraction, 0.8};
  std::printf("%-12s %-14s %-14s\n", "lease (s)", "F(avg)", "R(avg)");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("%-12.0f %-14.3f %-14.3f\n", leases[i],
                average(*by_lease[i], kFrodo2p, kF),
                average(*by_lease[i], kFrodo2p, kR));
  }
  std::printf("\n%-12s %-14s %-14s\n", "renew at", "F(avg)", "R(avg)");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("%-12.2f %-14.3f %-14.3f\n", fractions[i],
                average(*by_renewal[i], kFrodo2p, kF),
                average(*by_renewal[i], kFrodo2p, kR));
  }
  const auto r_at = [&](std::size_t i) {
    return average(*by_lease[i], kFrodo2p, kR);
  };
  const auto near_default = [&](Metric m) {
    const double base = average(paper, kFrodo2p, m);
    return std::abs(average(runs[2], kFrodo2p, m) - base) < 0.05 &&
           std::abs(average(runs[3], kFrodo2p, m) - base) < 0.05;
  };
  return {
      {"responsiveness rises as the lease shrinks (shorter leases -> "
       "earlier renewals -> SRN2 retries sooner)",
       r_at(0) > r_at(1) && r_at(1) > r_at(2), kLeaseDeviation},
      {"results are insensitive to the renewal point (DESIGN.md decision "
       "3): F and R at 0.25 and 0.8 stay within 0.05 of the 0.5 default, "
       "less than Figure 7's smallest PR1 effect",
       near_default(kF) && near_default(kR)},
  };
}

SweepConfig consistency_mode(bool notify, sim::SimDuration poll) {
  SweepConfig config = grid({kUpnp, kFrodo3p});
  config.customize = [notify, poll](experiment::ExperimentConfig& c) {
    c.upnp.enable_notification = notify;
    c.upnp.poll_period = poll;
    c.frodo.enable_notification = notify;
    c.frodo.poll_period = poll;
    c.jini.enable_notification = notify;
    c.jini.poll_period = poll;
  };
  return config;
}

/// Variants: CM2 polling only, then CM1 + CM2 (both every 600 s). CM1
/// alone (notification on, no polling) is the paper default.
std::vector<Claim> cm2_polling(const SweepResult& paper, Runs runs) {
  const char* names[] = {"CM1 notification only", "CM2 polling only (600 s)",
                         "CM1 + CM2 combined"};
  const std::array<const SweepResult*, 3> modes = {&paper, &runs[0],
                                                   &runs[1]};
  std::printf("%-16s %-26s %-10s %-10s\n", "system", "mode", "F(avg)",
              "R(avg)");
  std::vector<Claim> claims;
  for (const auto model : {kUpnp, kFrodo3p}) {
    for (std::size_t i = 0; i < modes.size(); ++i) {
      std::printf("%-16s %-26s %-10.3f %-10.3f\n", name(model).c_str(),
                  names[i], average(*modes[i], model, kF),
                  average(*modes[i], model, kR));
    }
    claims.push_back(
        {name(model) + ": polling is slower than notification (R drops)",
         average(runs[0], model, kR) < average(paper, model, kR)});
    claims.push_back({name(model) + ": adding persistent polling does not "
                                    "hurt - and typically raises - "
                                    "effectiveness",
                      average(runs[1], model, kF) >=
                          average(paper, model, kF)});
  }
  return claims;
}

constexpr double kLossRates[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

/// One zero-failure sweep per loss rate, with SRN1's retransmissions and
/// then without them.
std::vector<SweepConfig> loss_sweeps() {
  std::vector<SweepConfig> out;
  for (const bool srn1 : {true, false}) {
    for (const double loss : kLossRates) {
      SweepConfig config = grid({kUpnp, kJini1R, kFrodo3p, kFrodo2p});
      config.lambdas = {0.0};
      config.ablation.message_loss_rate = loss;
      if (!srn1) {
        config.customize = [](experiment::ExperimentConfig& c) {
          c.frodo.srn1_retries = 0;
        };
      }
      out.push_back(std::move(config));
    }
  }
  return out;
}

/// Variants: loss_sweeps().
std::vector<Claim> message_loss(const SweepResult&, Runs runs) {
  const auto with_srn1 = runs.first(std::size(kLossRates));
  const auto without = runs.last(std::size(kLossRates));
  const auto at = [](const SweepResult& result, SystemModel model,
                     Metric metric) {
    return series(result, model, metric).front();
  };
  std::printf("%-10s %-36s %-36s\n", "", "Update Effectiveness F",
              "Update Responsiveness R");
  std::printf("%-10s", "loss%");
  for (int pass = 0; pass < 2; ++pass) {
    for (const char* n : {"UPnP", "Jini-1R", "FRODO-3p", "FRODO-2p"}) {
      std::printf("%-9s", n);
    }
  }
  std::printf("\n");
  for (std::size_t i = 0; i < with_srn1.size(); ++i) {
    std::printf("%-10.0f", kLossRates[i] * 100.0);
    for (const Metric metric : {kF, kR}) {
      for (const auto model : {kUpnp, kJini1R, kFrodo3p, kFrodo2p}) {
        std::printf("%-9.3f", at(with_srn1[i], model, metric));
      }
    }
    std::printf("\n");
  }
  std::printf("\nFRODO-2party with SRN1 retransmissions disabled "
              "(srn1_retries = 0):\n");
  std::printf("%-10s %-12s %-12s\n", "loss%", "F (no SRN1)", "F (SRN1)");
  for (std::size_t i = 0; i < with_srn1.size(); ++i) {
    std::printf("%-10.0f %-12.3f %-12.3f\n", kLossRates[i] * 100.0,
                at(without[i], kFrodo2p, kF), at(with_srn1[i], kFrodo2p, kF));
  }
  return {
      {"FRODO's protocol-level acks keep effectiveness high under 50% "
       "message loss (no reliance on lower layers)",
       at(with_srn1.back(), kFrodo2p, kF) > 0.9},
      {"SRN1 retransmissions are what provide that robustness (ablation "
       "collapses under heavy loss)",
       at(with_srn1.back(), kFrodo2p, kF) > at(without.back(), kFrodo2p, kF)},
      {"FRODO maintains shorter latency than the TCP systems",
       at(with_srn1.front(), kFrodo2p, kR) >=
           at(with_srn1.front(), kJini1R, kR)},
  };
}

// Invalidation vs data push vs Alex-style adaptive propagation on FRODO
// 2-party: update-class bytes and mean change->consistency latency
// under a hot workload (bursty changes) and a cold one.
struct PushOutcome {
  double bytes_per_change;
  double mean_latency_s;
  bool all_consistent;
};

PushOutcome run_push(frodo::UpdatePropagation mode, sim::SimDuration gap,
                     int changes) {
  sim::Simulator simulator(4242);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  discovery::ConsistencyObserver observer;
  frodo::FrodoConfig config;
  config.propagation = mode;
  config.invalidation_fetch_delay = sim::seconds(120);

  frodo::FrodoRegistryNode registry(simulator, network, 1, 100, config);
  frodo::FrodoManager manager(simulator, network, 10,
                              frodo::DeviceClass::k300D, config, &observer);
  discovery::ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  // Realistic description size: UPnP-style device/service documents run
  // to kilobytes; give the SD ~20 attributes (~1.3 kB on the wire).
  for (int a = 0; a < 20; ++a) {
    sd.attributes["Attribute" + std::to_string(a)] =
        "value-" + std::to_string(a) + "-with-some-descriptive-payload";
  }
  manager.add_service(sd);
  std::vector<std::unique_ptr<frodo::FrodoUser>> users;
  for (int i = 0; i < 5; ++i) {
    users.push_back(std::make_unique<frodo::FrodoUser>(
        simulator, network, static_cast<sim::NodeId>(11 + i),
        frodo::DeviceClass::k300D,
        frodo::Matching{"Printer", "ColorPrinter"}, config, &observer));
  }
  registry.start();
  manager.start();
  for (auto& u : users) u->start();
  simulator.run_until(sim::seconds(100));

  const auto bytes_before =
      network.counters().bytes_of_class(net::MessageClass::kUpdate);
  for (int c = 0; c < changes; ++c) {
    simulator.schedule_at(sim::seconds(200) + c * gap,
                          [&manager] { manager.change_service(1); });
  }
  simulator.run_until(sim::seconds(200) + changes * gap +
                      sim::seconds(1000));

  PushOutcome outcome{};
  outcome.bytes_per_change =
      static_cast<double>(
          network.counters().bytes_of_class(net::MessageClass::kUpdate) -
          bytes_before) /
      changes;
  // Latency of the final version (the one every mode must converge to).
  const auto final_version =
      static_cast<discovery::ServiceVersion>(1 + changes);
  const auto change = observer.change_time(final_version);
  double total = 0;
  int reached = 0;
  outcome.all_consistent = true;
  for (const auto& u : users) {
    const auto t = observer.reach_time(u->id(), final_version);
    if (t.has_value() && change.has_value()) {
      total += sim::to_seconds(*t - *change);
      ++reached;
    } else {
      outcome.all_consistent = false;
    }
  }
  outcome.mean_latency_s = reached > 0 ? total / reached : -1;
  return outcome;
}

std::vector<Claim> adaptive_push(const SweepResult&, Runs) {
  struct Workload {
    const char* name;
    sim::SimDuration gap;
    int changes;
  };
  const Workload workloads[] = {
      {"hot (20 changes, 60 s apart)", sim::seconds(60), 20},
      {"cold (3 changes, 1800 s apart)", sim::seconds(1800), 3},
  };
  const std::pair<frodo::UpdatePropagation, const char*> modes[] = {
      {frodo::UpdatePropagation::kData, "data push"},
      {frodo::UpdatePropagation::kInvalidation, "invalidation"},
      {frodo::UpdatePropagation::kAdaptive, "adaptive (Alex)"}};
  PushOutcome results[2][3];
  for (std::size_t w = 0; w < 2; ++w) {
    std::printf("%s:\n", workloads[w].name);
    std::printf("  %-18s %-18s %-18s %s\n", "mode", "bytes/change",
                "mean latency (s)", "all consistent");
    for (std::size_t m = 0; m < 3; ++m) {
      const auto& o = results[w][m] =
          run_push(modes[m].first, workloads[w].gap, workloads[w].changes);
      std::printf("  %-18s %-18.0f %-18.1f %s\n", modes[m].second,
                  o.bytes_per_change, o.mean_latency_s,
                  o.all_consistent ? "yes" : "NO");
    }
  }
  const auto& hot = results[0];
  const auto& cold = results[1];
  return {
      {"invalidation is more byte-efficient for a frequently changing "
       "service",
       hot[1].bytes_per_change < hot[0].bytes_per_change},
      {"data push is faster for a service that rarely changes "
       "(invalidation adds the fetch delay)",
       cold[0].mean_latency_s < cold[1].mean_latency_s},
      {"adaptive gets the hot workload's byte savings AND the cold "
       "workload's latency",
       hot[2].bytes_per_change < hot[0].bytes_per_change &&
           cold[2].mean_latency_s < cold[1].mean_latency_s},
  };
}

// SLP, the other hybrid architecture of Section 1: poll-only consistency
// (Section 4.2 lists SLP's consistency maintenance as periodic querying)
// and multicast fallback with the Directory Agent dead.
struct SlpOutcome {
  double mean_latency_s = -1;
  int reached = 0;
};

SlpOutcome run_slp(bool kill_da, sim::SimDuration poll_period,
                   std::uint64_t seed) {
  sim::Simulator simulator(seed);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  discovery::ConsistencyObserver observer;
  slp::SlpConfig config;
  config.poll_period = poll_period;

  slp::DirectoryAgent da(simulator, network, 1, config);
  slp::ServiceAgent sa(simulator, network, 10, config, &observer);
  discovery::ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  sa.add_service(sd);
  std::vector<std::unique_ptr<slp::UserAgent>> uas;
  for (int i = 0; i < 5; ++i) {
    uas.push_back(std::make_unique<slp::UserAgent>(
        simulator, network, static_cast<sim::NodeId>(11 + i), "ColorPrinter",
        config, &observer));
  }
  da.start();
  sa.start();
  for (auto& ua : uas) ua->start();

  if (kill_da) {
    net::FailureEpisode ep;
    ep.node = 1;
    ep.mode = net::FailureMode::kBoth;
    ep.start = sim::seconds(150);
    ep.duration = sim::seconds(5250);
    net::apply_failures(simulator, network, std::array{ep});
  }
  auto change_rng = simulator.rng().fork("experiment.change");
  const auto change_at =
      change_rng.uniform_time(sim::seconds(2600), sim::seconds(2700));
  simulator.schedule_at(change_at, [&sa] { sa.change_service(1); });
  simulator.run_until(sim::seconds(5400));

  SlpOutcome outcome;
  double total = 0;
  for (const auto& ua : uas) {
    const auto t = observer.reach_time(ua->id(), 2);
    if (t.has_value()) {
      total += sim::to_seconds(*t - change_at);
      ++outcome.reached;
    }
  }
  if (outcome.reached > 0) outcome.mean_latency_s = total / outcome.reached;
  return outcome;
}

constexpr std::string_view kSlpPhaseDeviation =
    "measured means are 72.2 / 48.2 / 348.2 s at 120 / 300 / 600 s; the "
    "300 s mean is a third of period / 2 (open question on the ROADMAP)";

std::vector<Claim> slp_hybrid(const SweepResult&, Runs) {
  std::printf("(1) poll-only latency, healthy network, 5 UAs, 10 seeds:\n");
  std::printf("  %-14s %-20s %s\n", "poll period", "mean latency (s)",
              "consistent users");
  bool near_half_period = true;
  for (const long period : {120L, 300L, 600L}) {
    double total = 0;
    int reached = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto o = run_slp(false, sim::seconds(period), seed);
      total += o.mean_latency_s * o.reached;
      reached += o.reached;
    }
    const double mean = total / reached;
    std::printf("  %-14ld %-20.1f %d/50\n", period, mean, reached);
    const double half = static_cast<double>(period) / 2.0;
    near_half_period =
        near_half_period && std::abs(mean - half) <= 0.25 * half;
  }
  bench::note("  (FRODO's notification delivers in ~0.0003 s: Section 4.2's "
              "'polling is a\n   slower mechanism', on SLP itself)");

  std::printf("\n(2) Directory Agent dead across the change (10 seeds):\n");
  int reached = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    reached += run_slp(true, sim::seconds(300), seed).reached;
  }
  std::printf("  consistent users: %d/50 despite the dead Registry\n",
              reached);
  return {
      {"poll-only latency averages period / 2 (within 25%, three standard "
       "errors of 50 waits uniform over one period)",
       near_half_period, kSlpPhaseDeviation},
      {"hybrid failover: multicast peer-to-peer polling recovers every user "
       "with the Registry down (Section 1's resilience argument for SLP and "
       "FRODO)",
       reached == 50},
  };
}

}  // namespace

int main() {
  const Row rows[] = {
      {"Tables 1, 2, 4", "Recovery techniques and who implements them", {},
       taxonomy},
      {"Table 2", "Update message counts at zero failure (N = 5)", {}, table2},
      {"Figure 4", "Average Update Effectiveness vs interface failure", {},
       figure4},
      {"Figure 5", "Median Update Responsiveness vs interface failure", {},
       figure5},
      {"Figure 6", "Efficiency Degradation vs interface failure", {},
       figure6},
      {"Figure 7", "Impact of PR1 on FRODO's Update Effectiveness",
       {without_pr1()}, figure7},
      {"Table 5", "Average metrics across failure rates 0-90%", {}, table5},
      {"Recovery ablation", "FRODO's techniques removed one at a time",
       removals(), recovery_ablation},
      {"Lease ablation", "Subscription lease and renewal point (FRODO-2party)",
       {lease(900), lease(3600), renew_at(0.25), renew_at(0.8)},
       lease_ablation},
      {"CM1 vs CM2", "Notification vs (persistent) polling, Section 4.2",
       {consistency_mode(false, sim::seconds(600)),
        consistency_mode(true, sim::seconds(600))},
       cm2_polling},
      {"Message loss", "Companion-study failure model: per-message loss sweep",
       loss_sweeps(), message_loss},
      {"Adaptive push",
       "Invalidation vs data vs Alex-style adaptive (Section 4.2)", {},
       adaptive_push},
      {"SLP hybrid", "Poll-only consistency + Registry-failure resilience", {},
       slp_hybrid},
  };

  const SweepConfig paper_config = grid();
  std::printf("runs per point: %d (override with SDCM_RUNS)\n",
              paper_config.runs);
  const SweepResult paper = experiment::run_sweep(paper_config);

  std::size_t claims = 0;
  std::size_t deviations = 0;
  std::vector<std::string> failures;
  for (const Row& row : rows) {
    bench::banner(row.id, row.title);
    std::vector<SweepResult> runs;
    for (const auto& variant : row.variants) {
      runs.push_back(experiment::run_sweep(variant));
    }
    const auto verdicts = row.report(paper, runs);
    if (!verdicts.empty()) bench::note("\nclaims:");
    for (const Claim& claim : verdicts) {
      ++claims;
      bench::check(claim.holds, claim.text);
      const bool expected_diff = !claim.deviation.empty();
      if (expected_diff) {
        ++deviations;
        std::printf("         known deviation: %.*s\n",
                    static_cast<int>(claim.deviation.size()),
                    claim.deviation.data());
      }
      if (claim.holds == expected_diff) {
        failures.push_back(std::string(row.id) + ": " +
                           (claim.holds ? "known deviation now holds: "
                                        : "unexpected DIFF: ") +
                           claim.text);
      }
    }
  }

  std::printf("\nsdcm_paper: %zu claims, %zu known deviations, %zu changed "
              "verdict\n",
              claims, deviations, failures.size());
  for (const auto& failure : failures) std::printf("  %s\n", failure.c_str());
  return failures.empty() ? 0 : 1;
}
