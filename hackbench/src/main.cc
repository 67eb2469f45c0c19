// hackbench: host cost of simulating HACK cells, end to end and per layer.
//
//   hackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// --trace 0 runs the workload as a closed loop for --seconds and reports
// the end-to-end metrics. --trace 1 is the separate traced run: exact
// counters from a fixed set of untraced scenario runs, the same runs again
// under spans, and the per-layer harnesses; it reports the per-layer
// metrics and writes every span to --trace-out. Every scenario run is
// checked (checks.h); the last stdout line is one JSON object, and the exit
// status is nonzero when any run failed. README.md documents each metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "hackbench/src/checks.h"
#include "hackbench/src/layers.h"
#include "hackbench/src/stats.h"
#include "hackbench/src/trace.h"
#include "hackbench/src/workloads.h"
#include "src/util/md5.h"

namespace hackbench {
namespace {

using hacksim::ScenarioConfig;
using hacksim::ScenarioResult;

// Scenario runs 0..kFixedRuns-1 run in both modes: the traced run takes
// its exact counts from them, and both modes print their combined digest.
constexpr uint64_t kFixedRuns = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) {
    return false;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 1 &&
         (a->trace == 0 || a->trace == 1);
}

struct RunRecord {
  uint64_t index = 0;
  ScenarioConfig config;
  ScenarioResult result;
  double wall_s = 0.0;
  std::string digest;
};

// Runs and checks scenario runs, keeping the failure accounting.
class Runner {
 public:
  Runner(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {}

  RunRecord Run(uint64_t index, const char* tag) {
    RunRecord r;
    r.index = index;
    r.config = ConfigFor(w_, ScenarioSeed(seed_, index));
    int64_t t0 = NowNs();
    r.result = hacksim::RunScenario(r.config);
    r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r.digest = Digest(r.result);
    Account(r, tag, CheckRun(r.result, w_.tcp));
    return r;
  }

  // Runs `first`'s seed again; the re-run fails its own checks or any
  // disagreement with `first`.
  RunRecord Rerun(const RunRecord& first, const char* tag) {
    RunRecord r;
    r.index = first.index;
    r.config = first.config;
    int64_t t0 = NowNs();
    r.result = hacksim::RunScenario(r.config);
    r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r.digest = Digest(r.result);
    std::vector<std::string> failures = CheckRun(r.result, w_.tcp);
    for (std::string& f : CheckRerun(first.result, r.result)) {
      failures.push_back(std::move(f));
    }
    Account(r, tag, failures);
    return r;
  }

  // Times `reps` set-ups: RunScenario for this workload's configuration
  // with a 1 ns simulated duration, the set-up and tear-down cost alone. (A
  // zero duration aborts UDP scenarios: GoodputTracker::GoodputMbps CHECKs
  // that its window is non-empty.) Set-up runs carry no traffic, so they
  // are not checked or counted as attempted.
  void SampleSetup(size_t reps) {
    ScenarioConfig c = ConfigFor(w_, ScenarioSeed(seed_, 0));
    c.duration = hacksim::SimTime::Nanos(1);
    for (size_t i = 0; i < reps; ++i) {
      int64_t t0 = NowNs();
      hacksim::RunScenario(c);
      setup_samples_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
  }
  double setup_median() const { return Median(setup_samples_); }
  size_t setup_samples() const { return setup_samples_.size(); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Account(const RunRecord& r, const char* tag,
               const std::vector<std::string>& failures) {
    ++attempted_;
    std::printf("%s %llu seed=%llu wall_s=%.6f ppdus=%llu events=%llu "
                "digest=%s",
                tag, static_cast<unsigned long long>(r.index),
                static_cast<unsigned long long>(r.config.seed), r.wall_s,
                static_cast<unsigned long long>(r.result.airtime.ppdus),
                static_cast<unsigned long long>(r.result.events_executed),
                r.digest.c_str());
    if (!failures.empty()) {
      ++failed_;
      std::printf(" FAILED:");
      for (const std::string& f : failures) {
        std::printf(" [%s]", f.c_str());
      }
    }
    std::printf("\n");
  }

  const Workload& w_;
  uint64_t seed_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> setup_samples_;
};

// MD5 over the digests of runs 0..kFixedRuns-1: one string to compare the
// simulated behaviour of two commits.
std::string CombinedDigest(const std::vector<std::string>& digests) {
  std::string all;
  for (const std::string& d : digests) {
    all += d;
  }
  return hacksim::Md5::ToHex(hacksim::Md5::Hash(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(all.data()), all.size())));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintMetric(const Metric& m, const std::string& note = "") {
  std::printf("%-36s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.c_str());
}

// The machine-readable result; always the last stdout line.
void PrintJson(uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// A timing summary line: median, the highest percentile with at least ten
// samples beyond it, and the sample count.
std::string TimingNote(const std::vector<double>& v) {
  char buf[128];
  int pct = SupportedPercentile(v.size());
  if (pct > 0) {
    std::snprintf(buf, sizeof buf, "  (median of %zu; p%d %.6g)", v.size(),
                  pct, Percentile(v, pct));
  } else {
    std::snprintf(buf, sizeof buf, "  (median of %zu)", v.size());
  }
  return buf;
}

// --- --trace 0 ----------------------------------------------------------------

int RunEndToEnd(const Workload& w, const Args& args) {
  // With fewer timed runs the median is one run's noise; the loop then
  // overruns --seconds (dense-down: ~12 s).
  constexpr size_t kMinTimedRuns = 5;
  // At most ~2% of a run's time on every workload.
  constexpr size_t kSetupsPerRun = 20;
  Runner runner(w, args.seed);
  // Run 0 warms caches and allocators. It is checked but not timed, and it
  // is the seed the end of the run re-runs.
  RunRecord first = runner.Run(0, "warmup");
  std::vector<std::string> digests = {first.digest};

  std::vector<double> wall_per_sim_s;
  std::vector<double> us_per_ppdu;
  int64_t start = NowNs();
  for (uint64_t i = 1; wall_per_sim_s.size() < kMinTimedRuns ||
                       static_cast<double>(NowNs() - start) * 1e-9 <
                           static_cast<double>(args.seconds);
       ++i) {
    RunRecord r = runner.Run(i, "run");
    if (i < kFixedRuns) {
      digests.push_back(r.digest);
    }
    wall_per_sim_s.push_back(r.wall_s / r.config.duration.ToSecondsF());
    us_per_ppdu.push_back(
        Ratio(r.wall_s * 1e6, static_cast<double>(r.result.airtime.ppdus)));
    // Set-ups are spread over the whole loop, so the host's slow and fast
    // spells weigh on set-up time as they weigh on the timed runs.
    runner.SampleSetup(kSetupsPerRun);
  }
  runner.Rerun(first, "rerun");

  std::vector<Metric> metrics = {
      {"wall_per_sim_s", Median(wall_per_sim_s), "s/s"},
      {"us_per_ppdu", Median(us_per_ppdu), "us"},
      {"setup_s", runner.setup_median(), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("digest.first%llu %s\n",
              static_cast<unsigned long long>(kFixedRuns),
              CombinedDigest(digests).c_str());
  PrintMetric(metrics[0], TimingNote(wall_per_sim_s));
  PrintMetric(metrics[1], TimingNote(us_per_ppdu));
  char note[64];
  std::snprintf(note, sizeof note, "  (median of %zu set-ups)",
                runner.setup_samples());
  PrintMetric(metrics[2], note);
  PrintMetric(metrics[3]);
  std::printf("runs_failed %llu of runs_attempted %llu\n",
              static_cast<unsigned long long>(runner.failed()),
              static_cast<unsigned long long>(runner.attempted()));
  PrintJson(runner.attempted(), runner.failed(), metrics);
  return runner.failed() == 0 ? 0 : 1;
}

// --- --trace 1 ----------------------------------------------------------------

struct Share {
  const char* layer;
  double value;
};

int RunTraced(const Workload& w, const Args& args) {
  Runner runner(w, args.seed);
  SpanRecorder rec(std::string(w.name) + ":" + std::to_string(args.seed));
  uint32_t root = rec.Begin("hackbench", 0);

  // Each fixed seed runs untraced (exact counts, untraced wall), then again
  // under a span (the re-run check, traced wall). Interleaving keeps slow
  // drift of the host out of bench.trace_overhead.
  ExactCounts counts;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<std::string> digests;
  double wall_ns = 0.0;
  for (uint64_t i = 0; i < kFixedRuns; ++i) {
    RunRecord r = runner.Run(i, "run");
    counts.Add(r.result, r.config);
    untraced.push_back(r.wall_s / r.config.duration.ToSecondsF());
    digests.push_back(r.digest);
    wall_ns += r.wall_s * 1e9;
    ScopedSpan span(rec, "scenario.run", root);
    RunRecord again = runner.Rerun(r, "traced");
    traced.push_back(again.wall_s / again.config.duration.ToSecondsF());
  }
  {
    ScopedSpan span(rec, "scenario.setup", root);
    runner.SampleSetup(100);
  }
  const double setup_s = runner.setup_median();

  LayerShape shape;
  shape.config = ConfigFor(w, ScenarioSeed(args.seed, 0));
  shape.flows = w.clients;
  shape.acks_per_payload = counts.acks_per_payload();
  shape.cell_goodput_bps = counts.goodput_mbps_sum / counts.runs * 1e6;
  shape.mpdus_per_ppdu = Ratio(static_cast<double>(counts.mpdu_tx_attempts),
                               static_cast<double>(counts.ppdus));
  shape.seed = args.seed;
  LayerTimes t;
  {
    ScopedSpan span(rec, "layers", root);
    t = MeasureLayers(shape, rec, span.id());
  }
  rec.End(root);

  // Shares of the untraced wall of the fixed runs.
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Share> shares = {
      {"sim", t.sim_ns_per_event * d(counts.events) / wall_ns},
      {"phy80211", t.phy_self_ns_per_ppdu() * d(counts.ppdus) / wall_ns},
      // Charged per PPDU on the air: in a cell, the MAC's work is
      // dominated by what every receiver does with each PPDU, and the
      // harness's PPDUs carry the workload's MPDUs per PPDU.
      {"mac80211", Ratio(t.mac_self_ns_per_mpdu(), t.mac_ppdus_per_mpdu) *
                       d(counts.ppdus) / wall_ns},
      {"hack", t.hack_self_ns_per_ack() * d(counts.compressed_acks) / wall_ns},
      {"rohc", (t.rohc_ns_per_compress * d(counts.unique_compressed_acks) +
                t.rohc_ns_per_decompress * d(counts.compressed_acks)) /
                   wall_ns},
      {"tcp", t.tcp_self_ns_per_segment() * d(counts.tcp_segments) / wall_ns},
      {"node",
       t.node_self_ns_per_packet() * d(counts.wired_packets()) / wall_ns},
      {"scenario", setup_s * 1e9 * d(counts.runs) / wall_ns},
  };
  double attributed = 0.0;
  for (const Share& s : shares) {
    attributed += s.value;
  }

  std::vector<Metric> metrics = counts.Metrics();
  std::vector<Metric> timing = {
      {"sim.ns_per_event", t.sim_ns_per_event, "ns"},
      {"phy80211.ns_per_ppdu", t.phy_ns_per_ppdu, "ns"},
      {"phy80211.harness_rx_callbacks_per_ppdu", t.phy_rx_callbacks_per_ppdu,
       "callbacks/ppdu"},
      {"mac80211.ns_per_mpdu", t.mac_ns_per_mpdu, "ns"},
      {"mac80211.self_ns_per_mpdu", t.mac_self_ns_per_mpdu(), "ns"},
      {"hack.ns_per_ack", t.hack_ns_per_ack, "ns"},
      {"rohc.ns_per_compress", t.rohc_ns_per_compress, "ns"},
      {"rohc.ns_per_decompress", t.rohc_ns_per_decompress, "ns"},
      {"tcp.ns_per_segment", t.tcp_ns_per_segment, "ns"},
      {"node.ns_per_packet", t.node_ns_per_packet, "ns"},
  };
  metrics.insert(metrics.end(), timing.begin(), timing.end());
  for (const Share& s : shares) {
    metrics.push_back({std::string(s.layer) + ".share", s.value, "ratio"});
  }
  metrics.push_back({"unattributed_share", 1.0 - attributed, "ratio"});
  metrics.push_back(
      {"bench.trace_overhead", Ratio(Median(traced), Median(untraced)) - 1.0,
       "ratio"});

  std::printf("digest.first%llu %s\n",
              static_cast<unsigned long long>(kFixedRuns),
              CombinedDigest(digests).c_str());
  std::printf("# exact counts over scenario runs 0..%llu\n",
              static_cast<unsigned long long>(kFixedRuns - 1));
  for (const Metric& m : metrics) {
    PrintMetric(m);
  }
  std::printf("phy80211 cross-check: harness listeners %.6g visits/ppdu, "
              "harness channel predicts %.6g; this workload's runs %.6g\n",
              t.phy_rx_callbacks_per_ppdu, t.phy_expected_visits_per_ppdu,
              std::find_if(metrics.begin(), metrics.end(),
                           [](const Metric& m) {
                             return m.name == "phy80211.rx_visits_per_ppdu";
                           })
                  ->value);
  std::printf("\n%-10s %8s\n", "layer", "share");
  for (const Share& s : shares) {
    std::printf("%-10s %8.4f\n", s.layer, s.value);
  }
  std::printf("%-10s %8.4f\n", "(unattr.)", 1.0 - attributed);

  // The split an earlier gprof profile predicted: phy80211 leads on the
  // dense cells, tcp + rohc on the paper cell.
  auto share_of = [&shares](const std::string& layer) {
    for (const Share& s : shares) {
      if (layer == s.layer) {
        return s.value;
      }
    }
    return 0.0;
  };
  bool held = false;
  std::string claim;
  if (w.clients <= 10) {
    double lead = share_of("tcp") + share_of("rohc");
    held = true;
    for (const Share& s : shares) {
      std::string l = s.layer;
      held = held && (l == "tcp" || l == "rohc" || s.value < lead);
    }
    claim = "tcp + rohc lead";
  } else {
    held = std::all_of(shares.begin(), shares.end(), [&](const Share& s) {
      return std::string(s.layer) == "phy80211" ||
             s.value < share_of("phy80211");
    });
    claim = "phy80211 leads";
  }
  std::printf("predicted split (%s) on %s: %s\n", claim.c_str(), w.name,
              held ? "held" : "did not hold");

  uint64_t failed = runner.failed();
  for (const std::string& e : t.errors) {
    std::printf("harness FAILED: %s\n", e.c_str());
    ++failed;
  }
  if (!args.trace_out.empty()) {
    if (rec.WriteJsonLines(args.trace_out)) {
      std::printf("spans: %zu written to %s\n", rec.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::printf("spans: cannot write %s\n", args.trace_out.c_str());
      ++failed;
    }
  }
  std::printf("runs_failed %llu of runs_attempted %llu\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(runner.attempted()));
  PrintJson(runner.attempted(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hackbench

int main(int argc, char** argv) {
  hackbench::Args args;
  if (!hackbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hackbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const hackbench::Workload* w = hackbench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("# hackbench workload=%s seed=%llu seconds=%d trace=%d\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  return args.trace == 1 ? hackbench::RunTraced(*w, args)
                         : hackbench::RunEndToEnd(*w, args);
}
