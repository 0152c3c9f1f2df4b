// perfbench_replica — the traced side of the benchmark.
//
//   perfbench_replica trace --threads N --trace-out PATH --point-id ID
//                     SPEC [key=value ...]
//   perfbench_replica route-ratio
//   perfbench_replica provenance
//
// `trace` runs one spec point the way fncc_run does (parse + overrides +
// validate + expand, stream sink when output.stream_fct, run, write
// outputs), but replaces RunResolvedPoint with a step-by-step replica of
// its sequence that calls only the public layer functions and records a
// span around each call: name, start, end, parent span and point id, plus
// a count at the same boundary. Spans stay in memory and are written as a
// Chrome trace-event file when the point ends. The counters the layers
// keep are printed as one JSON object on stdout.
//
// The replica must reproduce the untraced run exactly (events processed,
// completed flows, FCT CSV bytes); run.py checks that on every traced run,
// so this file cannot drift from experiment_runner.cpp unnoticed.
//
// `route-ratio` builds bare k=8 and k=16 fat-trees and times the runner's
// Network::ComputeRoutes pass per routing-table entry (switches x hosts),
// keeping the minimum over repetitions. A linear route build gives a ratio
// near 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fncc.hpp"
#include "exec/domain_scheduler.hpp"
#include "exec/pdes_stats.hpp"
#include "harness/experiment_runner.hpp"
#include "stats/fct_sink.hpp"
#include "workload/flow_source.hpp"

namespace {

using namespace fncc;
using Clock = std::chrono::steady_clock;

// Span names; the layer is the part before the first '.'.
enum SpanName : int {
  kPoint,
  kResolve,
  kOpenSink,
  kPartition,
  kBuild,
  kRoutes,
  kSeal,
  kGenerate,
  kMakeSource,
  kPull,
  kLaunch,
  kSchedulerStart,
  kRunUntil,
  kDrain,
  kRelease,
  kOutput,
  kNumSpanNames
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "harness.point",      "harness.resolve",  "stats.open_sink",
    "sim.partition",      "net.build",        "net.routes",
    "net.seal",           "workload.generate", "workload.make_source",
    "workload.pull",      "transport.launch", "exec.scheduler_start",
    "sim.run_until",      "stats.drain",      "transport.release",
    "stats.output"};

/// In-memory span recorder. Single-threaded: every span is opened and
/// closed on the coordinating thread, between RunUntil chunks or around
/// them, never inside a lane worker.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t count = 0;  // work done at this boundary
  };

  /// Closes its span on destruction; `count` is recorded with it.
  class Scope {
   public:
    Scope(Tracer* tracer, int name) : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_, count); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t count = 0;

   private:
    Tracer* tracer_;
    int id_;
  };

  Tracer() { spans_.reserve(1 << 16); }

  int Begin(int name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start = Clock::now();
    return open_.back();
  }

  void End(int id, std::uint64_t count) {
    const Clock::time_point now = Clock::now();
    spans_[static_cast<std::size_t>(id)].end = now;
    spans_[static_cast<std::size_t>(id)].count = count;
    open_.pop_back();
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond times from
  /// the first span's start). Parent links and the point id ride in args.
  bool Write(const std::string& path, const std::string& point_id) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [t0](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = kSpanNames[s.name];
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, \"point\": "
                   "\"%s\", \"count\": %llu}}%s\n",
                   name.c_str(), layer.c_str(), us(s.start),
                   us(s.end) - us(s.start), i, s.parent, point_id.c_str(),
                   static_cast<unsigned long long>(s.count),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Layer counters read at the end of the point (the same accessors
/// RunResolvedPoint harvests, plus ones it counts but does not report).
struct Counts {
  std::uint64_t stale_flow_packets = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t tx_bytes = 0;
  double paused_us = 0.0;
  std::uint64_t route_entries = 0;
  int lanes = 0;
  std::vector<std::uint64_t> lane_events;
  PdesStats pdes;
};

// --- Copies of experiment_runner.cpp's internal helpers (unnamed namespace
// there, so not callable). Any divergence shows up as an FCT digest or
// event-count mismatch against the untraced run.

struct CompletionRecord {
  Time t = 0;
  std::uint64_t order = 0;
  FlowSpec spec;
  Time fct = 0;
  std::uint64_t retransmits = 0;
};

struct LaneTally {
  std::vector<CompletionRecord> records;
  std::uint64_t retransmits = 0;
};

bool CompletionBefore(const CompletionRecord& a, const CompletionRecord& b) {
  if (a.t != b.t) return a.t < b.t;
  const bool a_native = (a.order & kNativeOrderBit) != 0;
  const bool b_native = (b.order & kNativeOrderBit) != 0;
  if (a_native != b_native) return b_native;
  if (!a_native) return a.order < b.order;
  return a.spec.launch_serial < b.spec.launch_serial;
}

void ScheduleFlowAbort(Simulator& sim, FlowTable* table, Time stop,
                       const SenderQp* qp) {
  sim.ScheduleAt(stop, [table, id = qp->spec().id] {
    FlowSlot* slot = table->Lookup(id);
    if (slot != nullptr && slot->qp() != nullptr) slot->qp()->Abort();
  });
}

int ResolveDomainCount(const ExperimentSpec& point,
                       const TopologyParams& topo_params) {
  const ScenarioConfig& sc = point.scenario;
  if (sc.exec_domains > 0) {
    if (sc.exec_domains > 64 ||
        (sc.exec_domains > 1 && sc.propagation_delay <= 0)) {
      throw SpecError("scenario.exec_domains cannot be honored");
    }
    return sc.exec_domains;
  }
  int domains = TopologyNaturalDomains(point.topology, topo_params);
  if (sc.propagation_delay <= 0) domains = 1;
  return std::clamp(domains, 1, 64);
}

std::uint64_t FnccLhcsTriggers(const SenderQp& qp) {
  const auto* fncc = dynamic_cast<const FnccAlgorithm*>(&qp.cc());
  return fncc != nullptr ? fncc->lhcs_triggers() : 0;
}

/// RunResolvedPoint's sequence, one traced layer call at a time. Covers the
/// two run shapes the benchmark uses (run to completion, eager or
/// streamed); monitored and fixed-duration points are refused.
ExperimentPointResult TracedPoint(const ExperimentSpec& point,
                                  const TopologyParams& topo_params,
                                  const WorkloadParams& wl_params,
                                  int intra_threads, FctSink* sink,
                                  Tracer& tr, Counts& counts) {
  const ScenarioConfig& sc = point.scenario;
  const bool streaming = point.run.launch_window > 0;
  if (point.run.duration > 0) {
    throw SpecError("replica: fixed-duration points are not replicated");
  }
  ExperimentPointResult result;
  result.label = point.label;

  Simulator sim;
  sim.set_delivery_batch(sc.delivery_batch);
  {
    Tracer::Scope s(&tr, kPartition);
    sim.Partition(ResolveDomainCount(point, topo_params));
    s.count = static_cast<std::uint64_t>(sim.num_lanes());
  }
  Rng rng(sc.seed);
  BuiltTopology topo = [&] {
    Tracer::Scope s(&tr, kBuild);
    BuiltTopology t =
        TopologyRegistry::Build(point.topology, &sim, MakeHostFactory(sc),
                                MakeSwitchConfig(sc), &rng, topo_params);
    s.count = t.net.num_nodes();
    return t;
  }();
  Network& net = topo.net;
  counts.route_entries =
      static_cast<std::uint64_t>(net.switches().size()) * net.hosts().size();
  {
    Tracer::Scope s(&tr, kRoutes);
    net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
    s.count = counts.route_entries;
  }
  {
    Tracer::Scope s(&tr, kSeal);
    net.SealDomains();
  }
  if (!streaming && point.run.monitor && topo.has_congestion_point()) {
    throw SpecError("replica: monitored points are not replicated");
  }

  WorkloadHosts roles{topo.hosts, topo.senders, topo.receiver};
  std::vector<GeneratedFlow> flows;
  if (!streaming) {
    Tracer::Scope s(&tr, kGenerate);
    flows = WorkloadRegistry::Generate(point.workload, rng, roles, wl_params);
    result.flows_total = flows.size();
    s.count = flows.size();
  }

  std::vector<LaneTally> tallies(static_cast<std::size_t>(sim.num_lanes()));
  for (Endpoint* ep : net.hosts()) {
    auto* host = static_cast<Host*>(ep);
    host->on_flow_complete = [&tallies, &sim](const SenderQp& qp) {
      LaneTally& tally = tallies[static_cast<std::size_t>(sim.ActiveLaneId())];
      const Simulator::OrderKey key = sim.CurrentOrderKey();
      tally.records.push_back(
          {key.t, key.order, qp.spec(), qp.fct(), qp.retransmit_events()});
      tally.retransmits += qp.retransmit_events();
    };
  }

  struct LiveFlow {
    SenderQp* qp = nullptr;
    int lane = 0;
  };
  std::unordered_map<FlowId, LiveFlow> live;
  FlowTable* flow_table =
      &static_cast<Host*>(net.hosts().front())->flow_table();

  std::vector<CompletionRecord> chunk;
  const auto drain = [&] {
    Tracer::Scope s(&tr, kDrain);
    chunk.clear();
    for (LaneTally& tally : tallies) {
      result.retransmits += tally.retransmits;
      tally.retransmits = 0;
      chunk.insert(chunk.end(), tally.records.begin(), tally.records.end());
      tally.records.clear();
    }
    std::stable_sort(chunk.begin(), chunk.end(), CompletionBefore);
    for (CompletionRecord& r : chunk) {
      if (streaming) {
        const auto it = live.find(r.spec.id);
        result.asymmetric_acks += it->second.qp->asymmetric_acks();
        result.lhcs_triggers += FnccLhcsTriggers(*it->second.qp);
        const FlowId table_id = r.spec.id;
        r.spec.id = static_cast<FlowId>(r.spec.launch_serial);
        Simulator::ActiveLaneScope scope(&sim, it->second.lane);
        live.erase(it);
        Tracer::Scope rel(&tr, kRelease);
        flow_table->Release(table_id);
      }
      if (sink != nullptr) {
        sink->Append(r.spec, r.fct);
      } else {
        result.fct.Record(r.spec, r.fct);
      }
    }
    result.flows_completed += chunk.size();
    s.count = chunk.size();
  };

  std::vector<SenderQp*> qps;
  qps.reserve(flows.size());
  for (GeneratedFlow& gf : flows) {
    // Run-to-completion points only (checked above), so no duration budget.
    Simulator::ActiveLaneScope scope(&sim, net.node(gf.spec.src)->domain());
    Tracer::Scope s(&tr, kLaunch);
    SenderQp* qp = LaunchFlow(net, sc, gf.spec);
    qps.push_back(qp);
    if (gf.stop < kTimeInfinity) {
      ScheduleFlowAbort(sim, flow_table, gf.stop, qp);
    }
    s.count = 1;
  }
  std::unique_ptr<DomainScheduler> sched;
  {
    Tracer::Scope s(&tr, kSchedulerStart);
    sched = std::make_unique<DomainScheduler>(&sim, intra_threads,
                                              &counts.pdes);
  }
  const auto run_until = [&](Time t) {
    Tracer::Scope s(&tr, kRunUntil);
    const std::uint64_t before = sim.events_processed();
    sched->RunUntil(t);
    s.count = sim.events_processed() - before;
  };
  if (streaming) {
    const Time window = point.run.launch_window;
    std::unique_ptr<FlowSource> source = [&] {
      Tracer::Scope s(&tr, kMakeSource);
      return WorkloadRegistry::MakeSource(point.workload, rng, roles,
                                          wl_params);
    }();
    GeneratedFlow next_flow;
    const auto pull = [&] {
      Tracer::Scope s(&tr, kPull);
      const bool got = source->Next(&next_flow);
      s.count = got ? 1 : 0;
      return got;
    };
    bool have_next = pull();
    Time last_start = 0;
    std::uint64_t launched = 0;
    while (true) {
      const Time horizon = sim.Now() + window;
      while (have_next && next_flow.spec.start_time <= horizon) {
        if (next_flow.spec.start_time < last_start ||
            next_flow.spec.size_bytes == 0) {
          throw SpecError("replica: streaming needs sized, start-sorted flows");
        }
        last_start = next_flow.spec.start_time;
        ++launched;
        next_flow.spec.launch_serial = launched;
        const int lane = net.node(next_flow.spec.src)->domain();
        Simulator::ActiveLaneScope scope(&sim, lane);
        SenderQp* qp = nullptr;
        {
          Tracer::Scope s(&tr, kLaunch);
          qp = LaunchFlow(net, sc, next_flow.spec);
          s.count = 1;
        }
        if (next_flow.stop < kTimeInfinity) {
          ScheduleFlowAbort(sim, flow_table, next_flow.stop, qp);
        }
        live.emplace(qp->spec().id, LiveFlow{qp, lane});
        have_next = pull();
      }
      if (!have_next && live.empty()) break;
      if (sim.Now() >= point.run.max_sim_time) break;
      Time target = horizon;
      if (sim.events_pending() == 0) {
        if (!have_next) break;
        target = next_flow.spec.start_time;
      }
      if (target > point.run.max_sim_time) target = point.run.max_sim_time;
      run_until(target);
      drain();
    }
    drain();
    result.flows_total = launched;
  } else {
    const Time chunk_len = 2 * kMillisecond;
    while (result.flows_completed < result.flows_total &&
           sim.Now() < point.run.max_sim_time) {
      if (sim.events_pending() == 0) break;
      run_until(sim.Now() + chunk_len);
      drain();
    }
  }

  for (Switch* sw : net.switches()) {
    result.pause_frames += sw->pause_frames_sent();
    result.resume_frames += sw->resume_frames_sent();
    counts.ecn_marks += sw->ecn_marked();
    for (int p = 0; p < sw->num_ports(); ++p) {
      counts.tx_bytes += sw->port(p).tx_bytes();
      counts.paused_us += ToMicroseconds(sw->port(p).total_paused_time());
    }
  }
  result.drops = net.TotalDrops();
  for (Endpoint* ep : net.hosts()) {
    const auto* host = static_cast<Host*>(ep);
    result.out_of_order += host->out_of_order_packets();
    counts.stale_flow_packets += host->stale_flow_packets();
    counts.tx_bytes += ep->nic().tx_bytes();
    counts.paused_us += ToMicroseconds(ep->nic().total_paused_time());
  }
  for (SenderQp* qp : qps) {
    result.asymmetric_acks += qp->asymmetric_acks();
    result.lhcs_triggers += FnccLhcsTriggers(*qp);
  }
  for (const auto& [id, lf] : live) {
    result.asymmetric_acks += lf.qp->asymmetric_acks();
    result.lhcs_triggers += FnccLhcsTriggers(*lf.qp);
  }
  result.events_processed = sim.events_processed();
  result.pdes_windows = sim.windows_executed();
  result.pool_packets_created = sim.pool_total_created();
  result.pool_packets_acquired = sim.pool_acquires();
  counts.lanes = sim.num_lanes();
  for (int lane = 0; lane < sim.num_lanes(); ++lane) {
    counts.lane_events.push_back(sim.lane_events_processed(lane));
  }
  return result;
}

std::uint64_t Sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

void PrintUintArray(const char* key, const std::vector<std::uint64_t>& v) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%llu", i ? ", " : "", static_cast<unsigned long long>(v[i]));
  }
  std::printf("], ");
}

int RunTrace(int threads, const std::string& trace_out,
             const std::string& point_id, const std::string& spec_file,
             const std::vector<std::string>& overrides) {
  Tracer tr;
  Counts counts;
  const Clock::time_point t0 = Clock::now();
  const int root = tr.Begin(kPoint);

  ExperimentSpec spec;
  std::vector<ExperimentSpec> points;
  TopologyParams topo_params;
  WorkloadParams wl_params;
  {
    Tracer::Scope s(&tr, kResolve);
    spec = ParseSpecFile(spec_file);
    ApplySpecOverrides(spec, overrides);
    ValidateSpec(spec);
    points = ExpandSweep(spec);
    if (points.size() != 1) {
      throw SpecError("replica runs exactly one point, spec expands to " +
                      std::to_string(points.size()));
    }
    ValidateSpec(points[0]);
    topo_params = ResolveTopologyParams(points[0]);
    wl_params = ResolveWorkloadParams(points[0]);
  }

  std::unique_ptr<FctSink> sink;
  if (spec.output.stream_fct) {
    Tracer::Scope s(&tr, kOpenSink);
    std::filesystem::create_directories(
        spec.output.dir.empty() ? "." : spec.output.dir);
    FctSinkOptions options;
    options.csv_path = PointFctCsvPaths(spec, points)[0];
    if (!spec.output.buckets.empty()) {
      options.bucket_edges = BucketEdgesByName(spec.output.buckets);
    }
    sink = std::make_unique<FctSink>(std::move(options));
  }

  std::vector<ExperimentPointResult> results;
  results.push_back(TracedPoint(points[0], topo_params, wl_params, threads,
                                sink.get(), tr, counts));
  const ExperimentPointResult& r = results[0];
  {
    Tracer::Scope s(&tr, kOutput);
    if (sink != nullptr && !sink->Finish()) {
      throw SpecError("failed to write " + sink->csv_path());
    }
    // fncc_run prints the bucket table of buffered points; do the same work.
    if (!spec.output.stream_fct && !spec.output.buckets.empty() &&
        r.fct.count() > 0) {
      (void)r.fct.Bucketed(BucketEdgesByName(spec.output.buckets));
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    WriteExperimentOutputs(spec, points, results, threads, wall);
    s.count = r.flows_completed;
  }
  tr.End(root, 1);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!tr.Write(trace_out, point_id)) {
    throw SpecError("failed to write " + trace_out);
  }

  const PdesStats& ps = counts.pdes;
  std::printf("{\"point\": \"%s\", \"wall_s\": %.6f, ", point_id.c_str(),
              wall);
  std::printf(
      "\"events_processed\": %llu, \"flows_completed\": %zu, "
      "\"flows_total\": %zu, \"pause_frames\": %llu, \"drops\": %llu, "
      "\"retransmits\": %llu, \"out_of_order\": %llu, "
      "\"asymmetric_acks\": %llu, \"lhcs_triggers\": %llu, "
      "\"stale_flow_packets\": %llu, \"ecn_marks\": %llu, "
      "\"tx_bytes\": %llu, \"paused_us\": %.3f, \"route_entries\": %llu, "
      "\"pool_created\": %llu, \"pool_acquired\": %llu, \"lanes\": %d, "
      "\"windows\": %llu, ",
      static_cast<unsigned long long>(r.events_processed), r.flows_completed,
      r.flows_total, static_cast<unsigned long long>(r.pause_frames),
      static_cast<unsigned long long>(r.drops),
      static_cast<unsigned long long>(r.retransmits),
      static_cast<unsigned long long>(r.out_of_order),
      static_cast<unsigned long long>(r.asymmetric_acks),
      static_cast<unsigned long long>(r.lhcs_triggers),
      static_cast<unsigned long long>(counts.stale_flow_packets),
      static_cast<unsigned long long>(counts.ecn_marks),
      static_cast<unsigned long long>(counts.tx_bytes), counts.paused_us,
      static_cast<unsigned long long>(counts.route_entries),
      static_cast<unsigned long long>(r.pool_packets_created),
      static_cast<unsigned long long>(r.pool_packets_acquired), counts.lanes,
      static_cast<unsigned long long>(r.pdes_windows));
  PrintUintArray("lane_events", counts.lane_events);
  std::printf("\"steals\": %llu, \"barrier_spins\": %llu, "
              "\"barrier_sleeps\": %llu}\n",
              static_cast<unsigned long long>(Sum(ps.thread_steals)),
              static_cast<unsigned long long>(Sum(ps.thread_barrier_spins)),
              static_cast<unsigned long long>(Sum(ps.thread_barrier_sleeps)));
  return 0;
}

/// Seconds per routing-table entry of the runner's ComputeRoutes pass on a
/// freshly built k-ary fat-tree (build-only: no traffic), min over `reps`.
double RouteSecondsPerEntry(int k, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const ScenarioConfig sc;
    TopologyParams params;
    params.k = k;
    params.link = sc.link();
    Simulator sim;
    Rng rng(sc.seed);
    BuiltTopology topo =
        TopologyRegistry::Build("fat_tree", &sim, MakeHostFactory(sc),
                                MakeSwitchConfig(sc), &rng, params);
    const Clock::time_point t0 = Clock::now();
    topo.net.ComputeRoutes(sc.ecmp_salt, sc.symmetric_ecmp);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double entries = static_cast<double>(topo.net.switches().size()) *
                           static_cast<double>(topo.net.hosts().size());
    best = std::min(best, s / entries);
  }
  return best;
}

int RunRouteRatio() {
  // k=8 is ~30x cheaper per pass, so it gets more repetitions.
  const double k8 = RouteSecondsPerEntry(8, 9);
  const double k16 = RouteSecondsPerEntry(16, 3);
  std::printf("{\"k8_ns_per_entry\": %.4f, \"k16_ns_per_entry\": %.4f, "
              "\"ratio_k16_k8\": %.4f}\n",
              k8 * 1e9, k16 * 1e9, k16 / k8);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_replica trace --threads N --trace-out PATH "
               "--point-id ID SPEC [key=value ...]\n"
               "       perfbench_replica route-ratio\n"
               "       perfbench_replica provenance\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  int threads = 1;
  std::string trace_out, point_id = "0", spec_file;
  std::vector<std::string> overrides;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--threads" && has_value) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--point-id" && has_value) {
      point_id = argv[++i];
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(arg);
    } else if (spec_file.empty() && arg.rfind("--", 0) != 0) {
      spec_file = arg;
    } else {
      return Usage();
    }
  }
  try {
    if (mode == "provenance") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                  PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (mode == "route-ratio") return RunRouteRatio();
    if (mode == "trace" && threads >= 1 && !trace_out.empty() &&
        !spec_file.empty()) {
      return RunTrace(threads, trace_out, point_id, spec_file, overrides);
    }
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replica: %s\n", e.what());
    return 1;
  }
}
