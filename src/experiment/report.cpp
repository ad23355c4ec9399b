#include "sdcm/experiment/report.hpp"

#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>

#include "sdcm/metrics/stats.hpp"

namespace sdcm::experiment {

std::string_view to_string(Metric metric) noexcept {
  switch (metric) {
    case Metric::kResponsiveness: return "Update Responsiveness R";
    case Metric::kEffectiveness: return "Update Effectiveness F";
    case Metric::kEfficiency: return "Update Efficiency E";
    case Metric::kDegradation: return "Efficiency Degradation G";
  }
  return "?";
}

double value_of(const metrics::MetricsSummary& summary,
                Metric metric) noexcept {
  switch (metric) {
    case Metric::kResponsiveness: return summary.responsiveness;
    case Metric::kEffectiveness: return summary.effectiveness;
    case Metric::kEfficiency: return summary.efficiency;
    case Metric::kDegradation: return summary.degradation;
  }
  return 0.0;
}

namespace {

struct Grid {
  std::vector<SystemModel> models;
  std::vector<double> lambdas;
  std::map<std::pair<int, int>, const SweepPoint*> cells;

  explicit Grid(std::span<const SweepPoint> points) {
    std::set<double> lambda_set;
    for (const auto& p : points) {
      bool known = false;
      for (const auto m : models) known = known || m == p.model;
      if (!known) models.push_back(p.model);
      lambda_set.insert(p.lambda);
    }
    lambdas.assign(lambda_set.begin(), lambda_set.end());
    for (const auto& p : points) {
      cells[{model_index(p.model), lambda_index(p.lambda)}] = &p;
    }
  }

  int model_index(SystemModel m) const {
    for (std::size_t i = 0; i < models.size(); ++i) {
      if (models[i] == m) return static_cast<int>(i);
    }
    return -1;
  }
  int lambda_index(double l) const {
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      if (lambdas[i] == l) return static_cast<int>(i);
    }
    return -1;
  }
};

}  // namespace

void write_series_table(std::ostream& os, std::span<const SweepPoint> points,
                        Metric metric) {
  const Grid grid(points);
  os << std::left << std::setw(12) << "lambda%";
  for (const auto model : grid.models) {
    os << std::setw(14) << to_string(model);
  }
  os << '\n';
  os << std::fixed << std::setprecision(3);
  for (std::size_t li = 0; li < grid.lambdas.size(); ++li) {
    os << std::setw(12) << std::setprecision(0)
       << grid.lambdas[li] * 100.0 << std::setprecision(3);
    for (std::size_t mi = 0; mi < grid.models.size(); ++mi) {
      const auto it =
          grid.cells.find({static_cast<int>(mi), static_cast<int>(li)});
      if (it == grid.cells.end()) {
        os << std::setw(14) << "-";
      } else {
        os << std::setw(14) << value_of(it->second->metrics, metric);
      }
    }
    os << '\n';
  }
}

void write_csv(std::ostream& os, std::span<const SweepPoint> points) {
  os << "model,lambda,responsiveness,effectiveness,efficiency,degradation,"
        "runs\n";
  os << std::fixed << std::setprecision(6);
  for (const auto& p : points) {
    os << to_string(p.model) << ',' << p.lambda << ','
       << p.metrics.responsiveness << ',' << p.metrics.effectiveness << ','
       << p.metrics.efficiency << ',' << p.metrics.degradation << ','
       << p.runs << '\n';
  }
}

void write_averages_table(std::ostream& os,
                          std::span<const SweepPoint> points) {
  const Grid grid(points);
  os << std::left << std::setw(30) << "Update Metric";
  for (const auto model : grid.models) {
    os << std::setw(14) << to_string(model);
  }
  os << '\n';
  os << std::fixed << std::setprecision(3);
  for (const Metric metric :
       {Metric::kResponsiveness, Metric::kEffectiveness,
        Metric::kDegradation}) {
    os << std::setw(30) << to_string(metric);
    for (std::size_t mi = 0; mi < grid.models.size(); ++mi) {
      std::vector<double> values;
      for (std::size_t li = 0; li < grid.lambdas.size(); ++li) {
        const auto it =
            grid.cells.find({static_cast<int>(mi), static_cast<int>(li)});
        if (it != grid.cells.end()) {
          values.push_back(value_of(it->second->metrics, metric));
        }
      }
      os << std::setw(14) << metrics::mean(values);
    }
    os << '\n';
  }
}

void write_campaign_summary_json(std::ostream& os,
                                 const CampaignSummary& summary) {
  const auto u64 = [&os](const char* key, std::uint64_t value,
                         bool comma = true) {
    os << '"' << key << "\":" << value;
    if (comma) os << ',';
  };
  const auto dbl = [&os](const char* key, double value, bool comma = true) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    os << '"' << key << "\":" << buf;
    if (comma) os << ',';
  };
  os << '{';
  u64("runs_completed", summary.runs_completed);
  u64("points", summary.points);
  u64("wall_ns", summary.wall_ns);
  u64("run_wall_ns_total", summary.run_wall_ns_total);
  dbl("sim_seconds_total", summary.sim_seconds_total);
  os << "\"kernel\":";
  char sep = '{';
  for (const sim::KernelStatsField& field : sim::kKernelStatsFields) {
    os << sep;
    u64(field.name, summary.kernel.*field.member, false);
    sep = ',';
  }
  os << "},";
  dbl("runs_per_second", summary.runs_per_second());
  dbl("events_per_second", summary.events_per_second());
  dbl("sim_speedup", summary.sim_speedup(), false);
  os << "}\n";
}

}  // namespace sdcm::experiment
