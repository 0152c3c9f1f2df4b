// Registry coverage: every registered topology x workload pair must build
// a fabric and run simulated time through the experiment engine without
// assertion failures; a spec parsed from text must run exactly like the
// same spec built field by field; and the run loop must keep its input
// rules for eager and streamed points.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment_runner.hpp"

namespace fncc {
namespace {

/// A tiny valid trace between hosts 0 and 1 (present in every registered
/// topology), written to a temp file — the "trace" workload's required
/// input when the registry matrix sweeps over it.
std::string WriteTempTrace() {
  const std::string path =
      testing::TempDir() + "registry_matrix_trace.csv";
  std::ofstream out(path);
  out << "start_us,src,dst,bytes\n";
  for (int i = 0; i < 6; ++i) {
    out << i * 10 << "." << 5 << "," << (i % 2) << "," << ((i + 1) % 2)
        << ",20000\n";
  }
  return path;
}

TEST(TopologyRegistryTest, NamesAndUnknownRejection) {
  for (const char* name : {"dumbbell", "chain_merge", "fat_tree",
                           "leaf_spine", "multirail_dumbbell"}) {
    EXPECT_TRUE(TopologyRegistry::Contains(name)) << name;
    EXPECT_FALSE(TopologyRegistry::Describe(name).empty()) << name;
  }
  EXPECT_FALSE(TopologyRegistry::Contains("torus"));
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  EXPECT_THROW(TopologyRegistry::Build("torus", &sim, MakeHostFactory(sc),
                                       MakeSwitchConfig(sc), &rng, {}),
               std::invalid_argument);
  EXPECT_THROW(
      TopologyRegistry::Register("dumbbell", "duplicate", nullptr),
      std::invalid_argument);
}

TEST(TopologyRegistryTest, BuildersExposeRolesAndCongestionPoints) {
  ScenarioConfig sc;
  for (const std::string& name : TopologyRegistry::Names()) {
    SCOPED_TRACE(name);
    Simulator sim;
    Rng rng(1);
    TopologyParams params;
    params.link = sc.link();
    const BuiltTopology topo =
        TopologyRegistry::Build(name, &sim, MakeHostFactory(sc),
                                MakeSwitchConfig(sc), &rng, params);
    EXPECT_GE(topo.hosts.size(), 2u);
    EXPECT_FALSE(topo.senders.empty());
    EXPECT_NE(topo.receiver, kInvalidNode);
    if (topo.has_congestion_point()) {
      EXPECT_NE(topo.congestion_switch(), nullptr);
    }
  }
}

TEST(TopologyRegistryTest, BadParamsRejected) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  TopologyParams params;
  params.link = sc.link();
  params.k = 3;  // odd
  EXPECT_THROW(TopologyRegistry::Build("fat_tree", &sim, MakeHostFactory(sc),
                                       MakeSwitchConfig(sc), &rng, params),
               std::invalid_argument);
  params.k = 4;
  params.rails = 0;
  EXPECT_THROW(
      TopologyRegistry::Build("multirail_dumbbell", &sim,
                              MakeHostFactory(sc), MakeSwitchConfig(sc), &rng,
                              params),
      std::invalid_argument);
}

// Every registered topology x workload pair builds and runs 1 ms of sim
// time end to end — the contract that makes registering a new topology or
// workload sufficient for it to work everywhere (fncc_run --smoke runs the
// same matrix from the CLI).
TEST(ExperimentRegistryTest, EveryTopologyWorkloadPairRunsOneMillisecond) {
  const std::string trace_path = WriteTempTrace();
  for (const std::string& topo : TopologyRegistry::Names()) {
    for (const std::string& wl : WorkloadRegistry::Names()) {
      SCOPED_TRACE(topo + " x " + wl);
      ExperimentSpec spec;
      spec.name = topo + "-" + wl;
      spec.topology = topo;
      spec.workload = wl;
      // Tiny fabrics and flows: the point is coverage, not load.
      spec.topo.num_senders = 3;
      spec.topo.num_switches = 2;
      spec.topo.merge_switch = 1;
      spec.topo.k = 4;
      spec.topo.leaves = 2;
      spec.topo.spines = 2;
      spec.topo.hosts_per_leaf = 2;
      spec.topo.rails = 2;
      spec.wl.num_flows = 6;
      spec.wl.size_bytes = 20'000;
      spec.wl.groups = (topo == "chain_merge") ? 1 : 2;
      spec.cdf = "fb_hadoop";
      spec.run.duration = Milliseconds(1);
      if (wl == "trace") spec.wl.trace_file = trace_path;
      ValidateSpec(spec);
      const ExperimentPointResult r = RunExperimentPoint(spec);
      EXPECT_GT(r.flows_total, 0u);
      EXPECT_GT(r.events_processed, 0u);
      EXPECT_EQ(r.drops, 0u);  // lossless fabrics at these loads
    }
  }
}

// Per-flow series must be indexable whether or not the monitors ran
// (run.monitor=false or a topology without a congestion point), and a
// standalone point stamps its own wall time.
TEST(ExperimentRegistryTest, UnmonitoredRunsStillSizePerFlowSeries) {
  ExperimentSpec spec;
  ApplySpecOverrides(spec, {"run.monitor=false", "run.duration_us=60"});
  const ExperimentPointResult r = RunExperimentPoint(spec);
  ASSERT_EQ(r.flows.size(), 2u);  // the default two elephants
  EXPECT_TRUE(r.flows[0].pacing_gbps.empty());
  EXPECT_TRUE(r.queue_bytes.empty());
  EXPECT_GT(r.wall_time_seconds, 0.0);
}

/// Two runs of one point: same event count, FCT records and series.
void ExpectSameRun(const ExperimentPointResult& a,
                   const ExperimentPointResult& b) {
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.fct.count(), b.fct.count());
  for (std::size_t i = 0; i < a.fct.count(); ++i) {
    const FlowResult& fa = a.fct.results()[i];
    const FlowResult& fb = b.fct.results()[i];
    EXPECT_EQ(fa.spec.id, fb.spec.id) << i;
    EXPECT_EQ(fa.fct, fb.fct) << i;
    EXPECT_EQ(fa.slowdown, fb.slowdown) << i;
  }
  ASSERT_EQ(a.queue_bytes.size(), b.queue_bytes.size());
  for (std::size_t i = 0; i < a.queue_bytes.size(); ++i) {
    EXPECT_EQ(a.queue_bytes.samples()[i].t, b.queue_bytes.samples()[i].t);
    EXPECT_EQ(a.queue_bytes.samples()[i].value,
              b.queue_bytes.samples()[i].value);
  }
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].pacing_gbps.size(), b.flows[f].pacing_gbps.size());
  }
}

// One front end: a fat-tree point parsed from spec text (the fncc_run
// path) must reproduce the same point built field by field (the bench and
// test path) bit for bit.
TEST(ExperimentRegistryTest, TextSpecFatTreeMatchesFieldBuiltSpec) {
  ExperimentSpec fields;
  fields.topology = "fat_tree";
  fields.topo.k = 4;
  fields.workload = "poisson";
  fields.wl.num_flows = 40;
  fields.wl.load = 0.5;
  fields.cdf = "web_search";
  fields.scenario.mode = CcMode::kHpcc;
  fields.run.duration = 0;
  const ExperimentPointResult built = RunExperimentPoint(fields);
  EXPECT_EQ(built.flows_completed, 40u);

  const ExperimentSpec spec = ParseSpecText(R"(
topology.kind = fat_tree
topology.k = 4
workload.kind = poisson
workload.cdf = web_search
workload.load = 0.5
workload.num_flows = 40
scenario.mode = HPCC
run.duration_us = 0
)");
  ExpectSameRun(built, RunExperimentPoint(spec));
}

// Same for the micro shape: a text-parsed dumbbell point must reproduce
// the field-built point's sampled series exactly.
TEST(ExperimentRegistryTest, TextSpecDumbbellMatchesFieldBuiltSpec) {
  ExperimentSpec fields;
  fields.scenario.mode = CcMode::kFncc;
  fields.wl.long_flows = {{0, 0, kTimeInfinity},
                          {1, Microseconds(40), kTimeInfinity}};
  fields.run.duration = Microseconds(150);
  const ExperimentPointResult built = RunExperimentPoint(fields);
  EXPECT_FALSE(built.queue_bytes.empty());

  const ExperimentSpec spec = ParseSpecText(R"(
topology.kind = dumbbell
workload.kind = elephants
workload.flows = 0@0,1@40
run.duration_us = 150
)");
  ExpectSameRun(built, RunExperimentPoint(spec));
}

// The run loop's input rules. An eager point launches its whole flow list
// up front, so start order does not matter: flows listed out of start
// order still run, and each gets its monitored series.
TEST(ExperimentRegistryTest, EagerPointAcceptsUnsortedStarts) {
  const ExperimentSpec spec = ParseSpecText(R"(
workload.kind = elephants
workload.flows = 0@40,1@0
run.duration_us = 150
)");
  const ExperimentPointResult r = RunExperimentPoint(spec);
  EXPECT_EQ(r.flows_total, 2u);
  ASSERT_EQ(r.flows.size(), 2u);
  EXPECT_FALSE(r.flows[0].pacing_gbps.empty());
  EXPECT_FALSE(r.flows[1].pacing_gbps.empty());
  EXPECT_GT(r.flows[0].goodput_gbps.Max(), 0.0);
  EXPECT_GT(r.flows[1].goodput_gbps.Max(), 0.0);
}

// A streamed point launches one window ahead of the clock, so its source
// must yield non-decreasing start times...
TEST(ExperimentRegistryTest, StreamedPointRejectsUnsortedSource) {
  const ExperimentSpec spec = ParseSpecText(R"(
workload.kind = elephants
workload.flows = 0@40,1@0
workload.size_bytes = 20000
run.duration_us = 0
run.monitor = false
run.launch_window_us = 100
)");
  EXPECT_THROW(RunExperimentPoint(spec), SpecError);
}

// ...and sized flows: a size-0 flow's budget comes from run.duration,
// which a streamed point does not have. Validation refuses the spec, and
// the trusted core refuses it too.
TEST(ExperimentRegistryTest, StreamedPointRejectsUnsizedFlow) {
  ExperimentSpec spec;
  spec.wl.long_flows = {{0, 0}};
  spec.run.duration = 0;
  spec.run.monitor = false;
  spec.run.launch_window = Microseconds(100);
  EXPECT_THROW(ValidateSpec(spec), SpecError);
  EXPECT_THROW(RunResolvedPoint(spec, ResolveTopologyParams(spec),
                                ResolveWorkloadParams(spec)),
               SpecError);
}

// ECMP must actually spread flows across the parallel rails of the
// multi-rail dumbbell: after an incast with distinct five-tuples, more
// than one A->B rail port has transmitted bytes.
TEST(ExperimentRegistryTest, MultiRailSpreadsFlowsAcrossRails) {
  ScenarioConfig sc;
  Simulator sim;
  Rng rng(1);
  const int kSenders = 8, kRails = 4;
  MultiRailDumbbellTopology topo = BuildMultiRailDumbbell(
      &sim, MakeHostFactory(sc), MakeSwitchConfig(sc), &rng, kSenders,
      kRails, sc.link());
  topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);

  const auto flows =
      GenerateIncast(topo.senders, topo.receiver, /*size=*/100'000,
                     /*start=*/0);
  for (const FlowSpec& f : flows) LaunchFlow(topo.net, sc, f);
  sim.RunUntil(Microseconds(200));

  auto* sw_a = static_cast<Switch*>(topo.net.node(topo.switch_a));
  int active_rails = 0;
  for (int r = 0; r < kRails; ++r) {
    if (sw_a->port(kSenders + r).tx_bytes() > 0) ++active_rails;
  }
  EXPECT_GT(active_rails, 1) << "all flows hashed onto one rail";
}

}  // namespace
}  // namespace fncc
