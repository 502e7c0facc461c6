// Tests for the observability subsystem (src/obs): JSON, metrics, the
// event streams both substrates emit, and the exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "obs/badness.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/threaded.h"
#include "sched/lane_engine.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "util/check.h"

namespace cil {
namespace {

using obs::Event;
using obs::EventKind;
using obs::Json;

// ---------------------------------------------------------------- JSON --

TEST(ObsJson, DumpParseRoundTrip) {
  Json doc = Json::object();
  doc["name"] = Json("two-process");
  doc["count"] = Json(std::int64_t{42});
  doc["ratio"] = Json(0.75);
  doc["flag"] = Json(true);
  doc["nothing"] = Json();
  Json arr = Json::array();
  arr.push_back(Json(1));
  arr.push_back(Json("x\"y\\z\n"));  // exercises escaping
  doc["items"] = std::move(arr);

  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.at("name").as_string(), "two-process");
  EXPECT_EQ(back.at("count").as_int(), 42);
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("nothing").is_null());
  EXPECT_EQ(back.at("items").at(1).as_string(), "x\"y\\z\n");
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru",
                          "\"unterminated", "{\"a\":1} trailing", "01",
                          "[1 2]", "{'a':1}"}) {
    EXPECT_THROW((void)Json::parse(bad), ContractViolation) << bad;
  }
}

TEST(ObsJson, CheckedAccessorsThrowOnTypeMismatch) {
  const Json num = Json(3.5);
  EXPECT_THROW((void)num.as_string(), ContractViolation);
  EXPECT_THROW((void)num.as_int(), ContractViolation);  // non-integral
  const Json obj = Json::object();
  EXPECT_THROW((void)obj.at("missing"), ContractViolation);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

// ------------------------------------------------------------- metrics --

TEST(ObsMetrics, HistogramBucketsAndTail) {
  obs::FixedHistogram h({1.0, 2.0, 4.0});
  for (const double x : {0.5, 1.0, 2.0, 3.0, 100.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Buckets: (-inf,1] = {0.5, 1.0}; (1,2] = {2.0}; (2,4] = {3.0};
  // overflow = {100.0}.
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  // Tail just above a bound is exact: P[X >= 2+eps] -> buckets (2,4] + inf.
  EXPECT_DOUBLE_EQ(h.tail_at_least(2.5), 2.0 / 5.0);
}

TEST(ObsMetrics, RegistryIsGetOrCreateAndExports) {
  obs::MetricsRegistry registry;
  registry.counter("a.b").inc();
  registry.counter("a.b").inc(2);
  registry.histogram("h").observe(3.0);
  EXPECT_EQ(registry.counter("a.b").value(), 3);

  const Json j = registry.to_json();
  EXPECT_EQ(j.at("counters").at("a.b").as_int(), 3);
  EXPECT_EQ(j.at("histograms").at("h").at("count").as_int(), 1);
}

TEST(ObsMetrics, MetricsSinkTalliesEvents) {
  obs::MetricsRegistry registry;
  obs::MetricsSink sink(registry);
  Event read;
  read.kind = EventKind::kRegisterRead;
  sink.on_event(read);
  sink.on_event(read);
  Event fault;
  fault.kind = EventKind::kFaultInjected;
  fault.arg = 3;  // batched count
  sink.on_event(fault);
  Event decision;
  decision.kind = EventKind::kDecision;
  decision.step = 17;
  sink.on_event(decision);

  EXPECT_EQ(registry.counter("events.read").value(), 2);
  EXPECT_EQ(registry.counter("registers.reads").value(), 2);
  EXPECT_EQ(registry.counter("faults.injected").value(), 3);
  EXPECT_EQ(registry.counter("events.decision").value(), 1);
  EXPECT_EQ(registry.histogram("steps_to_decide").count(), 1);
  EXPECT_DOUBLE_EQ(registry.histogram("steps_to_decide").mean(), 17.0);
}

// -------------------------------------------------- simulator emission --

std::vector<Event> record_sim_run(std::uint64_t seed) {
  TwoProcessProtocol protocol;
  obs::RecordingSink rec;
  SimOptions options;
  options.seed = seed;
  options.obs.sink = &rec;
  Simulation sim(protocol, {0, 1}, options);
  RandomScheduler sched(seed ^ 0xbeef);
  sim.run(sched);
  return rec.take();
}

TEST(ObsSim, StreamNarratesTheRunInOrder) {
  const auto events = record_sim_run(7);
  ASSERT_FALSE(events.empty());

  // kStep events carry the global serialization: strictly increasing
  // total_step, 1..T, and per-pid own-step counts increase by one.
  std::int64_t last_total = 0;
  std::int64_t own_step[2] = {0, 0};
  int decisions = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kStep) {
      EXPECT_EQ(e.total_step, last_total + 1);
      last_total = e.total_step;
      ASSERT_TRUE(e.pid == 0 || e.pid == 1);
      EXPECT_EQ(e.step, own_step[e.pid] + 1);
      own_step[e.pid] = e.step;
      EXPECT_EQ(e.wall_us, 0.0);  // simulator time is virtual
    }
    if (e.kind == EventKind::kDecision) {
      ++decisions;
      // The deciding step's kStep event precedes its kDecision.
      EXPECT_EQ(e.total_step, last_total);
      EXPECT_TRUE(e.arg == 0 || e.arg == 1);
    }
  }
  EXPECT_EQ(decisions, 2);

  // Register traffic and coin flips are present (Figure 1 uses both).
  const auto has_kind = [&](EventKind k) {
    return std::any_of(events.begin(), events.end(),
                       [&](const Event& e) { return e.kind == k; });
  };
  EXPECT_TRUE(has_kind(EventKind::kRegisterRead));
  EXPECT_TRUE(has_kind(EventKind::kRegisterWrite));
  EXPECT_TRUE(has_kind(EventKind::kCoinFlip));
  EXPECT_TRUE(has_kind(EventKind::kPhaseChange));
}

TEST(ObsSim, ObservedRunIsStepIdenticalToUnobserved) {
  // Instrumentation must not consume randomness or perturb scheduling:
  // the observed run and the bare run are the same execution.
  TwoProcessProtocol protocol;
  SimOptions bare_options;
  bare_options.seed = 21;
  Simulation bare(protocol, {0, 1}, bare_options);
  RandomScheduler bare_sched(99);
  const auto bare_result = bare.run(bare_sched);

  obs::RecordingSink rec;
  SimOptions obs_options;
  obs_options.seed = 21;
  obs_options.obs.sink = &rec;
  Simulation observed(protocol, {0, 1}, obs_options);
  RandomScheduler obs_sched(99);
  const auto obs_result = observed.run(obs_sched);

  EXPECT_EQ(obs_result.total_steps, bare_result.total_steps);
  EXPECT_EQ(obs_result.decisions, bare_result.decisions);
  EXPECT_FALSE(rec.events().empty());
}

TEST(ObsSim, ObsOptionFlagsPruneTheStream) {
  TwoProcessProtocol protocol;
  obs::RecordingSink rec;
  SimOptions options;
  options.seed = 5;
  options.obs.sink = &rec;
  options.obs.register_ops = false;
  options.obs.coin_flips = false;
  options.obs.phase_changes = false;
  Simulation sim(protocol, {0, 1}, options);
  RandomScheduler sched(5);
  sim.run(sched);
  for (const Event& e : rec.events()) {
    EXPECT_TRUE(e.kind == EventKind::kStep ||
                e.kind == EventKind::kDecision)
        << static_cast<int>(e.kind);
  }
}

TEST(ObsSim, FaultStallAndCrashEventsAppear) {
  UnboundedProtocol protocol(3);
  obs::RecordingSink rec;
  SimOptions options;
  options.seed = 3;
  options.max_total_steps = 100000;
  options.obs.sink = &rec;
  Simulation sim(protocol, {0, 1, 1}, options);

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.crashes = {{/*pid=*/0, /*at_step=*/2}};
  plan.stalls = {{/*pid=*/1, /*at_step=*/1, /*duration=*/10}};
  plan.registers.stale_prob = 1.0;  // every read is served stale
  plan.registers.stale_depth = 2;

  fault::SimRegisterFaults hook(plan.registers, plan.seed, sim.regs().size());
  sim.mutable_regs().set_fault_hook(&hook);
  RandomScheduler inner(3);
  fault::FaultPlanScheduler sched(inner, plan);
  sched.set_event_sink(&rec);
  sim.run(sched);

  const auto& events = rec.events();
  const auto count_kind = [&](EventKind k) {
    return std::count_if(events.begin(), events.end(),
                         [&](const Event& e) { return e.kind == k; });
  };
  EXPECT_EQ(count_kind(EventKind::kCrash), 1);
  const auto crash = std::find_if(
      events.begin(), events.end(),
      [](const Event& e) { return e.kind == EventKind::kCrash; });
  EXPECT_EQ(crash->pid, 0);

  EXPECT_EQ(count_kind(EventKind::kStall), 1);
  const auto stall = std::find_if(
      events.begin(), events.end(),
      [](const Event& e) { return e.kind == EventKind::kStall; });
  EXPECT_EQ(stall->pid, 1);
  EXPECT_EQ(stall->arg, 10);

  EXPECT_GT(count_kind(EventKind::kFaultInjected), 0);
}

// -------------------------------------------------- threaded emission --

TEST(ObsThreaded, CrashEventsMatchTheFaultPlanExactly) {
  UnboundedProtocol protocol(3);
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.crashes = {{/*pid=*/0, /*at_step=*/1}, {/*pid=*/2, /*at_step=*/2}};

  obs::RecordingSink rec;
  rt::ThreadedOptions options;
  options.seed = 9;
  options.fault_plan = &plan;
  options.watchdog_ms = 20'000;
  options.obs.sink = &rec;
  const auto r = rt::run_threaded(protocol, {0, 1, 1}, options);
  ASSERT_FALSE(r.timed_out);

  std::multiset<ProcessId> crashed;
  for (const Event& e : rec.events())
    if (e.kind == EventKind::kCrash) crashed.insert(e.pid);
  EXPECT_EQ(crashed, (std::multiset<ProcessId>{0, 2}));
}

TEST(ObsThreaded, StreamIsSchemaIdenticalToTheSimulator) {
  // Same protocol, both substrates, same ObsOptions: the JSONL field set
  // and the emitted kinds line up; only the clocks differ (simulator runs
  // on total_step with wall_us == 0, the threaded runtime the reverse).
  const auto sim_events = record_sim_run(13);

  TwoProcessProtocol protocol;
  obs::RecordingSink rec;
  rt::ThreadedOptions options;
  options.seed = 13;
  options.watchdog_ms = 20'000;
  options.obs.sink = &rec;
  const auto r = rt::run_threaded(protocol, {0, 1}, options);
  ASSERT_TRUE(r.all_decided);
  const auto thr_events = rec.events();
  ASSERT_FALSE(thr_events.empty());

  const auto keys_of = [](const Event& e) {
    std::set<std::string> keys;
    const Json parsed = Json::parse(obs::event_to_json_line(e));
    for (const auto& [key, value] : parsed.as_object()) keys.insert(key);
    return keys;
  };
  EXPECT_EQ(keys_of(sim_events.front()), keys_of(thr_events.front()));

  const auto kinds_of = [](const std::vector<Event>& events) {
    std::set<EventKind> kinds;
    for (const Event& e : events) kinds.insert(e.kind);
    return kinds;
  };
  // A fault-free decided run exercises the same vocabulary on both sides.
  const std::set<EventKind> expected = {
      EventKind::kStep,     EventKind::kRegisterRead,
      EventKind::kRegisterWrite, EventKind::kCoinFlip,
      EventKind::kDecision, EventKind::kPhaseChange};
  EXPECT_EQ(kinds_of(sim_events), expected);
  EXPECT_EQ(kinds_of(thr_events), expected);

  // Clock conventions.
  for (const Event& e : sim_events) EXPECT_EQ(e.wall_us, 0.0);
  for (const Event& e : thr_events) {
    EXPECT_EQ(e.total_step, 0);
    EXPECT_GE(e.wall_us, 0.0);
  }
  // The merged threaded stream is ordered by wall time.
  for (std::size_t i = 1; i < thr_events.size(); ++i)
    EXPECT_LE(thr_events[i - 1].wall_us, thr_events[i].wall_us);
}

// ------------------------------------------------------------ exporters --

TEST(ObsExport, EventJsonLineRoundTrips) {
  std::vector<Event> events;
  Event e;
  e.kind = EventKind::kRegisterWrite;
  e.pid = 2;
  e.step = 5;
  e.total_step = 11;
  e.reg = 1;
  e.value = 0xdeadbeefULL;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kWatchdogFire;
  e.wall_us = 1234.5;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kDecision;
  e.pid = 0;
  e.arg = 1;
  events.push_back(e);

  std::ostringstream os;
  obs::write_jsonl(os, events);
  std::istringstream is(os.str());
  const auto back = obs::read_jsonl(is);
  EXPECT_EQ(back, events);
}

TEST(ObsExport, KindNamesRoundTrip) {
  for (int k = 0; k < obs::kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(obs::kind_from_name(obs::kind_name(kind)), kind);
  }
  EXPECT_THROW((void)obs::kind_from_name("bogus"), ContractViolation);
}

TEST(ObsExport, PerfettoTraceParsesAndIsMonotonePerTrack) {
  const auto events = record_sim_run(17);
  const std::string text =
      obs::perfetto_trace_json(events, "obs_test sim run");
  const Json doc = Json::parse(text);

  const Json& trace_events = doc.at("traceEvents");
  ASSERT_TRUE(trace_events.is_array());
  ASSERT_GT(trace_events.size(), 0u);

  const std::map<std::string, std::string> counter_keys = {
      {"reg_writes_per_1k", "writes"},
      {"active_processes", "active"},
      {"crash_recover_per_1k", "events"}};
  std::map<std::int64_t, double> last_ts;
  std::int64_t timed = 0;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> last_counter_ts;
  for (std::size_t i = 0; i < trace_events.size(); ++i) {
    const Json& ev = trace_events.at(i);
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") continue;  // metadata records carry no timestamp
    if (ph == "C") {
      // Counter tracks: each known series is its own monotone sequence.
      const std::string& name = ev.at("name").as_string();
      const auto key = counter_keys.find(name);
      ASSERT_NE(key, counter_keys.end()) << name;
      const double ts = ev.at("ts").as_number();
      const auto it = last_counter_ts.find(name);
      if (it != last_counter_ts.end()) EXPECT_GT(ts, it->second) << name;
      last_counter_ts[name] = ts;
      EXPECT_GE(ev.at("args").at(key->second).as_number(), 0.0);
      ++counters[name];
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    const std::int64_t tid = ev.at("tid").as_int();
    const double ts = ev.at("ts").as_number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) EXPECT_GT(ts, it->second) << "tid " << tid;
    last_ts[tid] = ts;
    ++timed;
  }
  EXPECT_GT(timed, 0);
  // The sim run writes registers, so the write-pressure track must be
  // present — at least one bucket sample plus the closing zero — and the
  // active-set track at least its initial sample.
  EXPECT_GE(counters["reg_writes_per_1k"], 2);
  EXPECT_GE(counters["active_processes"], 1);
  // One track per processor plus the metadata names.
  EXPECT_GE(last_ts.size(), 2u);
}

TEST(ObsExport, PerfettoSchedulerCounterTracksFollowTheActiveSet) {
  // A synthetic stream with known crash/recover/decision structure:
  // two processors; P1 crashes at ts 100, recovers at ts 1500, and both
  // decide near the end. active = live AND undecided.
  std::vector<Event> events;
  const auto push = [&](EventKind kind, int pid, std::int64_t total_step,
                        std::int64_t arg = 0) {
    Event e;
    e.kind = kind;
    e.pid = pid;
    e.total_step = total_step;
    e.arg = arg;
    events.push_back(e);
  };
  push(EventKind::kStep, 0, 1);
  push(EventKind::kStep, 1, 2);
  push(EventKind::kCrash, 1, 100);
  push(EventKind::kStep, 0, 200);
  push(EventKind::kRecover, 1, 1500);
  push(EventKind::kStep, 1, 1600);
  push(EventKind::kDecision, 0, 1700, 1);
  push(EventKind::kDecision, 1, 1800, 1);

  const Json doc =
      Json::parse(obs::perfetto_trace_json(events, "obs_test synthetic"));
  std::vector<std::int64_t> active_values;
  std::map<double, std::int64_t> churn;  // ts -> events
  for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
    const Json& ev = doc.at("traceEvents").at(i);
    if (ev.at("ph").as_string() != "C") continue;
    const std::string& name = ev.at("name").as_string();
    if (name == "active_processes")
      active_values.push_back(ev.at("args").at("active").as_int());
    else if (name == "crash_recover_per_1k")
      churn[ev.at("ts").as_number()] = ev.at("args").at("events").as_int();
  }
  // initial 2, crash -> 1, recover -> 2, decisions -> 1 -> 0.
  EXPECT_EQ(active_values, (std::vector<std::int64_t>{2, 1, 2, 1, 0}));
  // Crash in bucket [0, 1000), recovery in [1000, 2000), then the closing
  // zero bucket.
  ASSERT_EQ(churn.size(), 3u);
  EXPECT_EQ(churn.at(0.0), 1);
  EXPECT_EQ(churn.at(1000.0), 1);
  EXPECT_EQ(churn.at(2000.0), 0);
}

TEST(ObsExport, RunReportHasTheDocumentedShape) {
  obs::MetricsRegistry registry;
  registry.counter("runs").inc(4);
  registry.histogram("steps").observe(12.0);
  Json extra = Json::object();
  extra["cells"] = Json::array();
  const std::string text = obs::run_report_json(
      "obs_test", {{"seed", "1"}, {"quick", "true"}}, registry, extra);
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("report").as_string(), "cilcoord.run_report.v1");
  EXPECT_EQ(doc.at("name").as_string(), "obs_test");
  EXPECT_EQ(doc.at("meta").at("seed").as_string(), "1");
  EXPECT_EQ(doc.at("metrics").at("counters").at("runs").as_int(), 4);
  EXPECT_TRUE(doc.at("cells").is_array());
}

TEST(ObsExport, JsonlStreamSinkWritesDuringTheRunAndRoundTrips) {
  const std::string path = testing::TempDir() + "/stream_sink_test.jsonl";
  std::vector<Event> events;
  {
    obs::JsonlStreamSink sink(path);
    ASSERT_TRUE(sink.ok());
    // Drive a real simulated run through the streaming sink — the events
    // land on disk as they are emitted, no in-memory buffering required.
    obs::RecordingSink rec;
    obs::MultiSink multi;
    multi.add(&rec);
    multi.add(&sink);
    TwoProcessProtocol protocol;
    SimOptions opts;
    opts.seed = 21;
    opts.obs.sink = &multi;
    Simulation sim(protocol, {0, 1}, opts);
    RandomScheduler sched(21);
    (void)sim.run(sched);
    events = rec.events();
    EXPECT_EQ(sink.events_written(),
              static_cast<std::int64_t>(events.size()));
    EXPECT_TRUE(sink.close());
    EXPECT_TRUE(sink.close());  // idempotent
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  const std::vector<Event> back = obs::read_jsonl(is);
  EXPECT_EQ(back, events);
  EXPECT_FALSE(events.empty());
  std::remove(path.c_str());
}

std::vector<Event> record_active_set_run(std::uint64_t seed) {
  TwoProcessProtocol protocol;
  obs::RecordingSink rec;
  SimOptions options;
  options.seed = seed;
  options.obs.sink = &rec;
  options.obs.active_set = true;
  Simulation sim(protocol, {0, 1}, options);
  RandomScheduler sched(seed ^ 0x1234);
  sim.run(sched);
  return rec.take();
}

TEST(ObsSim, ActiveSetSamplesNarrateEngineTruth) {
  const auto events = record_active_set_run(9);
  std::vector<const Event*> samples;
  for (const Event& e : events)
    if (e.kind == EventKind::kActiveSet) samples.push_back(&e);
  // A crash-free two-process run transitions exactly at the two decisions:
  // baseline |active|=2 at run start (pid -1), then 1, then 0.
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0]->pid, -1);
  EXPECT_EQ(samples[0]->total_step, 0);
  EXPECT_EQ(samples[0]->arg, 2);
  EXPECT_EQ(samples[1]->arg, 1);
  EXPECT_EQ(samples[2]->arg, 0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_TRUE(samples[i]->pid == 0 || samples[i]->pid == 1);
    EXPECT_GT(samples[i]->total_step, 0);
  }

  // Off by default: the historical stream carries no kActiveSet events.
  for (const Event& e : record_sim_run(9))
    EXPECT_NE(e.kind, EventKind::kActiveSet);
}

TEST(ObsLane, ObservedLaneRunEmitsTheScalarStream) {
  // An observation sink forces every lane onto the scalar fallback, so an
  // observed lane run's stream is byte-identical to the Simulation's own —
  // including the kActiveSet counter samples.
  const std::uint64_t seed = 11;
  TwoProcessProtocol protocol;
  obs::RecordingSink direct;
  SimOptions so;
  so.seed = seed;
  so.obs.sink = &direct;
  so.obs.active_set = true;
  Simulation sim(protocol, {0, 1}, so);
  RandomScheduler sched(seed ^ 0x1234);
  (void)sim.run(sched);

  obs::RecordingSink lane;
  LaneEngine engine(protocol, {0, 1});
  LaneRunOptions lo;
  lo.lanes = 4;
  lo.obs.sink = &lane;
  lo.obs.active_set = true;
  EXPECT_FALSE(engine.soa_supported(lo));
  int harvested = 0;
  ASSERT_TRUE(engine.run(seed, 1, lo, [&](std::span<const LaneRunView> b) {
    harvested += static_cast<int>(b.size());
  }));
  EXPECT_EQ(harvested, 1);
  ASSERT_FALSE(direct.events().empty());
  EXPECT_EQ(lane.events(), direct.events());
}

TEST(ObsExport, PerfettoActiveTrackPrefersEngineSamples) {
  // With kActiveSet in the stream, the exporter's active_processes track is
  // the engine's own samples — one counter event per sample, same values,
  // no event-derived reconstruction mixed in.
  const auto events = record_active_set_run(13);
  std::vector<std::int64_t> expected;
  for (const Event& e : events)
    if (e.kind == EventKind::kActiveSet) expected.push_back(e.arg);
  ASSERT_FALSE(expected.empty());

  const Json doc =
      Json::parse(obs::perfetto_trace_json(events, "obs_test active_set"));
  std::vector<std::int64_t> track;
  for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
    const Json& ev = doc.at("traceEvents").at(i);
    if (ev.at("ph").as_string() == "C" &&
        ev.at("name").as_string() == "active_processes")
      track.push_back(ev.at("args").at("active").as_int());
  }
  EXPECT_EQ(track, expected);
}

TEST(ObsExport, TraceviewCheckAcceptsExportedArtifacts) {
  // End-to-end artifact pin: a JSONL event log and a run report written by
  // the exporters must pass the real `traceview --check` binary.
  const auto events = record_active_set_run(23);
  const std::string dir = testing::TempDir();
  const std::string jsonl = dir + "/obs_traceview_events.jsonl";
  const std::string report = dir + "/obs_traceview_report.json";
  {
    std::ofstream os(jsonl, std::ios::binary);
    ASSERT_TRUE(os.good());
    obs::write_jsonl(os, events);
  }
  obs::MetricsRegistry registry;
  registry.counter("runs").inc(1);
  ASSERT_TRUE(obs::write_text_file(
      report,
      obs::run_report_json("obs_test", {{"seed", "23"}}, registry)));

  const std::string cmd =
      std::string(CIL_TRACEVIEW_PATH) + " --check " + jsonl + " " + report;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(jsonl.c_str());
  std::remove(report.c_str());
}

TEST(ObsBadness, ViolationDominatesEveryViolationFreeRun) {
  obs::BadnessSignals bad;
  bad.violation = true;
  obs::BadnessSignals grim;  // the nastiest violation-free run imaginable
  grim.timed_out = true;
  grim.undecided = true;
  grim.total_steps = 1'000'000;
  grim.post_first_decision_steps = 1'000'000;
  grim.recoveries_after_decision = 1'000;
  grim.crashes = 10;
  grim.recoveries = 10;
  grim.watchdog_fires = 5;
  EXPECT_GT(obs::badness_score(bad), obs::badness_score(grim));
}

TEST(ObsBadness, NearViolationIndicatorsGiveAGradient) {
  obs::BadnessSignals base;
  base.decisions = 2;
  base.total_steps = 20;
  base.steps_to_first_decision = 10;
  obs::BadnessSignals post = base;
  post.post_first_decision_steps = 15;
  obs::BadnessSignals rec_after = post;
  rec_after.recoveries = 1;
  rec_after.recoveries_after_decision = 1;
  EXPECT_GT(obs::badness_score(post), obs::badness_score(base));
  EXPECT_GT(obs::badness_score(rec_after), obs::badness_score(post));
}

TEST(ObsBadness, SignalsFromEventsSeeTheRecoveryStory) {
  // A crashed-then-recovered run on the simulator: the extracted signals
  // carry the crash, the recovery, and whether it happened after the first
  // decision — exactly what the searcher's fitness keys on.
  TwoProcessProtocol protocol;
  fault::FaultPlan plan;
  plan.crashes = {{0, 1}};
  plan.recoveries = {{0, 200}};  // due long after the survivor decided
  obs::RecordingSink rec;
  SimOptions opts;
  opts.seed = 5;
  opts.obs.sink = &rec;
  Simulation sim(protocol, {0, 1}, opts);
  RandomScheduler inner(5);
  fault::FaultPlanScheduler sched(inner, plan);
  const SimResult result = sim.run(sched);
  ASSERT_TRUE(result.all_decided);
  const obs::BadnessSignals s = obs::signals_from_events(rec.events());
  EXPECT_EQ(s.crashes, 1);
  EXPECT_EQ(s.recoveries, 1);
  EXPECT_EQ(s.recoveries_after_decision, 1);
  EXPECT_GE(s.decisions, 2);
  EXPECT_GT(s.steps_to_first_decision, 0);
}

}  // namespace
}  // namespace cil
