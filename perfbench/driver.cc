// Timed harness of the host-time benchmark (perfbench/run.py drives it).
//
// Runs every cell of one scenario serially in this process, through the
// same public calls `semclust_run` makes (ExperimentRunner::CellSeed, the
// runner's allocator tuning, BenchReport::FromResult + ToJsonLine), and
// times the public call into each layer from outside the library.
//
// Usage:
//   perfbench_driver --scenario PATH --seed N --seconds S --mode plain|traced
//                    --jsonl OUT
//
// Passes over the whole grid repeat until S seconds have elapsed (at least
// one pass; in traced mode at least one plain and one traced pass,
// alternating). Every cell of every pass appends its JSONL record to OUT.
// stdout carries one JSON object per pass, then one closing object with
// the process's peak RSS and the build's identity.
//
// A plain pass times the EngineeringDbModel constructor (setup_s) and
// Run() (run_s) of each cell. A traced pass splits them further:
//   - it rebuilds the database on its own copy of the components the
//     model wires (the same constructors and seeds), timing
//     DbBuilder::Build / OcbBuilder::Build and StaticClusterer::Reorganize;
//   - it constructs the model with the placement audit off, checks that the
//     model holds the same objects, pages (and, under OCB, the same graph
//     digest) as the rebuild, and times Run();
//   - it times PlacementAuditor::Sample() on the final state once per
//     sample of the cell's series, and puts the last sample into the
//     series, so the record it emits is the audit-on record;
//   - it times BenchReport::FromResult + ToJsonLine.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/static_clusterer.h"
#include "core/bench_report.h"
#include "core/engineering_db.h"
#include "core/scenario.h"
#include "exec/experiment_runner.h"
#include "obs/placement_auditor.h"
#include "ocb/ocb_builder.h"
#include "util/json_writer.h"
#include "workload/db_builder.h"

// Stamped by perfbench/CMakeLists.txt.
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using oodb::core::ModelConfig;
using oodb::core::ScenarioCell;

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Per-pass totals of a traced pass, summed over cells.
struct TracedPass {
  double build_s = 0;
  double static_reorg_s = 0;
  double setup_s = 0;  // the whole constructor, audit off
  double sim_s = 0;
  double audit_s = 0;
  double report_s = 0;
  uint64_t audit_samples = 0;
  uint64_t audit_configurations = 0;
  uint64_t build_objects = 0;
  uint64_t build_placements = 0;
  uint64_t objects = 0;
  uint64_t pages = 0;
  uint64_t events = 0;
  uint64_t txns = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_fixes = 0;
  uint64_t io_physical = 0;
  uint64_t txlog_records = 0;
  uint64_t cc_aborts = 0;
  uint64_t cc_attempts = 0;
  std::vector<int> mismatched_cells;  // rebuild != model
};

// The database right after the build (and static reorganisation): what
// the rebuild must share with the model it stands in for.
struct BuildState {
  uint64_t objects = 0;
  uint64_t pages = 0;
  uint64_t placements = 0;
  std::optional<uint64_t> digest;  // OCB only

  bool operator==(const BuildState&) const = default;
};

BuildState Observe(const oodb::obj::ObjectGraph& graph,
                   const oodb::store::StorageManager& storage,
                   const oodb::cluster::ClusterManager& cluster_mgr,
                   bool ocb) {
  BuildState state;
  state.objects = graph.live_count();
  state.pages = storage.page_count();
  state.placements = cluster_mgr.stats().placements;
  if (ocb) state.digest = oodb::ocb::GraphDigest(graph);
  return state;
}

// Rebuilds the database of `cfg` on fresh components, wired exactly as
// core::ServerContext wires them, and times the builder and the static
// reorganiser.
BuildState RebuildDatabase(const ModelConfig& cfg, TracedPass& pass) {
  using namespace oodb;
  obj::TypeLattice lattice;
  workload::CadTypes types{};
  ocb::OcbSchema ocb_schema;
  if (cfg.ocb.enabled) {
    ocb_schema =
        ocb::RegisterOcbClasses(lattice, cfg.ocb, cfg.seed ^ 0x0CB0CB);
    types = ocb_schema.cad;
  } else {
    types = workload::RegisterCadTypes(lattice);
  }
  obj::ObjectGraph graph(&lattice);
  store::StorageManager storage(cfg.page_size_bytes,
                                cfg.append_fill_fraction);
  buffer::BufferPool buffer(cfg.buffer_pages, cfg.replacement,
                            cfg.seed ^ 0xB0FFEB0FF);
  cluster::AffinityModel affinity(&lattice);
  cluster::ClusterManager cluster_mgr(&graph, &storage, &affinity, &buffer,
                                      cfg.clustering);

  const double t0 = Now();
  if (cfg.ocb.enabled) {
    ocb::OcbBuilder builder(&graph, &cluster_mgr, &buffer, cfg.ocb);
    builder.Build(ocb_schema, cfg.seed ^ 0xDBDBDB);
  } else {
    workload::DatabaseSpec spec = cfg.database;
    spec.target_bytes = cfg.database_bytes;
    spec.density = cfg.workload.density;
    spec.concurrent_streams = cfg.num_users;
    spec.seed = cfg.seed ^ 0xDBDBDB;
    workload::DbBuilder builder(&graph, &cluster_mgr, &buffer, spec);
    builder.Build(types);
  }
  const double t1 = Now();
  pass.build_s += t1 - t0;
  pass.build_objects += graph.live_count();
  if (cfg.static_reorganize_after_build) {
    cluster::StaticClusterer reorganizer(&graph, &storage, &affinity);
    reorganizer.Reorganize();
    pass.static_reorg_s += Now() - t1;
  }

  return Observe(graph, storage, cluster_mgr, cfg.ocb.enabled);
}

std::string Record(const oodb::core::BenchReport& report,
                   const ScenarioCell& cell, const oodb::core::RunResult& r,
                   double wall_s) {
  return report.ToJsonLine(oodb::core::BenchReport::FromResult(
      cell.cell_label, cell.policy, cell.workload, r, wall_s));
}

// One plain pass: the program as users run it. Reports each cell's times
// as well as the pass totals, so the harness can take per-cell medians.
void PlainPass(const std::vector<ScenarioCell>& cells,
               const oodb::core::BenchReport& report, std::ofstream& jsonl,
               int index) {
  oodb::JsonArrayWriter cell_wall, cell_setup, cell_run;
  const double start = Now();
  for (const ScenarioCell& cell : cells) {
    const double t0 = Now();
    std::optional<oodb::core::EngineeringDbModel> model(std::in_place,
                                                        cell.config);
    const double t1 = Now();
    const oodb::core::RunResult r = model->Run();
    const double t2 = Now();
    model.reset();
    jsonl << Record(report, cell, r, Now() - t0) << '\n';
    cell_wall.Add(Now() - t0);
    cell_setup.Add(t1 - t0);
    cell_run.Add(t2 - t1);
  }
  const double wall_s = Now() - start;
  jsonl.flush();
  oodb::JsonObjectWriter w;
  w.Add("pass", index)
      .Add("kind", "plain")
      .Add("wall_s", wall_s)
      .AddRaw("cell_wall_s", cell_wall.str())
      .AddRaw("cell_setup_s", cell_setup.str())
      .AddRaw("cell_run_s", cell_run.str());
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// One traced pass: the same cells, timed layer by layer.
void TracedPassRun(const std::vector<ScenarioCell>& cells,
                   const oodb::core::BenchReport& report,
                   std::ofstream& jsonl, int index) {
  TracedPass pass;
  const double start = Now();
  for (size_t i = 0; i < cells.size(); ++i) {
    const ScenarioCell& cell = cells[i];
    ModelConfig audit_off = cell.config;
    audit_off.telemetry_audit_placement = false;
    const double t0 = Now();
    std::optional<oodb::core::EngineeringDbModel> model(std::in_place,
                                                        std::move(audit_off));
    const double t1 = Now();
    pass.setup_s += t1 - t0;
    const BuildState built =
        Observe(model->graph(), model->storage(), model->cluster(),
                cell.config.ocb.enabled);
    pass.build_placements += built.placements;

    const double t2 = Now();
    oodb::core::RunResult r = model->Run();
    const double t3 = Now();
    pass.sim_s += t3 - t2;

    // The audit-on run audits at every sample of the series; sampling the
    // final state that many times costs what those audits cost (give or
    // take how the placement changed during the run).
    const oodb::obs::PlacementAuditor auditor(&model->graph(),
                                              &model->storage());
    oodb::obs::PlacementSample sample;
    const size_t samples = r.series.samples.size();
    for (size_t s = 0; s < samples; ++s) sample = auditor.Sample();
    const double t4 = Now();
    pass.audit_s += t4 - t3;
    pass.audit_samples += samples;
    if (samples > 0) {
      pass.audit_configurations += sample.configurations;
      r.series.samples.back().placement = sample;
    }

    pass.objects += model->graph().live_count();
    pass.pages += model->storage().page_count();
    pass.events += r.metrics.counter("sim.events_processed").value_or(0);
    pass.txns += r.transactions;
    const uint64_t hits = r.metrics.counter("buffer.hits").value_or(0);
    pass.buffer_hits += hits;
    pass.buffer_fixes += hits + r.metrics.counter("buffer.misses").value_or(0);
    pass.io_physical += r.total_physical_ios();
    pass.txlog_records += r.metrics.counter("log.records").value_or(0);
    pass.cc_aborts += r.cc_txn_aborts;
    pass.cc_attempts += r.transactions + r.cc_txn_aborts;

    const double t5 = Now();
    const std::string line = Record(report, cell, r, t3 - t0);
    pass.report_s += Now() - t5;
    model.reset();
    jsonl << line << '\n';

    // Rebuilt after the model is gone, so the rebuild reuses the memory
    // the model freed, as the model's own build reused the previous
    // cell's.
    if (!(RebuildDatabase(cell.config, pass) == built)) {
      pass.mismatched_cells.push_back(static_cast<int>(i));
    }
  }
  const double wall_s = Now() - start;
  jsonl.flush();

  const bool ocb = !cells.empty() && cells.front().config.ocb.enabled;
  const bool reorg =
      !cells.empty() && cells.front().config.static_reorganize_after_build;
  oodb::JsonArrayWriter mismatched;
  for (int c : pass.mismatched_cells) mismatched.Add(static_cast<uint64_t>(c));
  oodb::JsonObjectWriter w;
  w.Add("pass", index)
      .Add("kind", "traced")
      .Add("wall_s", wall_s)
      .Add("builder", ocb ? "ocb" : "workload")
      .Add("static_reorg", reorg)
      .Add("build_s", pass.build_s)
      .Add("static_reorg_s", pass.static_reorg_s)
      .Add("setup_s", pass.setup_s)
      .Add("sim_s", pass.sim_s)
      .Add("audit_s", pass.audit_s)
      .Add("report_s", pass.report_s)
      .Add("audit_samples", pass.audit_samples)
      .Add("audit_configurations", pass.audit_configurations)
      .Add("build_objects", pass.build_objects)
      .Add("build_placements", pass.build_placements)
      .Add("objects", pass.objects)
      .Add("pages", pass.pages)
      .Add("events", pass.events)
      .Add("txns", pass.txns)
      .Add("buffer_hits", pass.buffer_hits)
      .Add("buffer_fixes", pass.buffer_fixes)
      .Add("io_physical", pass.io_physical)
      .Add("txlog_records", pass.txlog_records)
      .Add("cc_aborts", pass.cc_aborts)
      .Add("cc_attempts", pass.cc_attempts)
      .AddRaw("mismatched_cells", mismatched.str());
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// The peak resident set of this process image. Linux keeps ru_maxrss
// across fork and exec, so a parent with a larger footprint would mask the
// driver's own peak; VmHWM belongs to this image's address space alone.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --scenario PATH --seed N "
               "--seconds S --mode plain|traced --jsonl OUT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario, mode, jsonl_path;
  uint64_t seed = 1;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--scenario") {
      scenario = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--mode") {
      mode = value;
    } else if (arg == "--jsonl") {
      jsonl_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || scenario.empty() || jsonl_path.empty() ||
      (mode != "plain" && mode != "traced")) {
    return Usage();
  }

  auto spec_or = oodb::core::LoadScenarioFile(scenario);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n",
                 spec_or.status().ToString().c_str());
    return 2;
  }
  oodb::core::ScenarioSpec spec = std::move(spec_or).value();
  spec.base.seed = seed;
  std::vector<ScenarioCell> cells = spec.Expand();
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].config.seed = oodb::exec::ExperimentRunner::CellSeed(
        cells[i].config.seed, static_cast<uint64_t>(i));
    cells[i].config.cell_index = static_cast<int>(i);
  }
  // An empty batch applies the runner's allocator tuning and nothing else.
  oodb::exec::ExperimentRunner(1).Run({});

  std::ofstream jsonl(jsonl_path, std::ios::trunc);
  if (!jsonl) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 jsonl_path.c_str());
    return 2;
  }
  const oodb::core::BenchReport report(spec.bench);
  const bool traced = mode == "traced";
  // Stop before a pass that would likely end past the time budget, so a
  // run takes about `seconds` whatever the length of a pass.
  const double start = Now();
  int pass = 0;
  double longest_pass = 0;
  do {
    const double pass_start = Now();
    if (traced && pass % 2 == 1) {
      TracedPassRun(cells, report, jsonl, pass);
    } else {
      PlainPass(cells, report, jsonl, pass);
    }
    ++pass;
    longest_pass = std::max(longest_pass, Now() - pass_start);
  } while (Now() - start + longest_pass <= seconds || (traced && pass < 2));

  oodb::JsonObjectWriter w;
  w.Add("peak_rss_mb", PeakRssMb())
      .Add("cells", static_cast<uint64_t>(cells.size()))
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", w.str().c_str());
  return 0;
}
