// perfbench -- the repository benchmark program.
//
//   perfbench --workload corpus_replay|fault_campaign|long_horizon
//             --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]
//
// Sets the workload up several times, then runs timed passes over its
// inputs for S seconds; every timing is taken from the fastest repetition. With --trace 0 the passes go through the program's public
// entry points and the end-to-end metrics are printed; with --trace 1
// untraced and traced passes alternate and the per-layer metrics are
// printed. The last stdout line is the result object; diagnostics go to
// stderr and to a run record under --out. Exits 1 when any unit failed
// its pins, 2 on bad arguments or a failed setup.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

volatile std::uint64_t probe_sink = 0;

/// Fixed pure-CPU reference loop (host-speed probe): a dependent xorshift
/// chain, independent of the simulator. Returns its wall time in ms.
double host_probe_ms(std::uint64_t seed) {
    const auto t0 = Clock::now();
    std::uint64_t x = seed | 1u;
    for (std::uint32_t i = 0; i < (1u << 24); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    probe_sink = x;
    return seconds_since(t0) * 1e3;
}

/// Index of the pass with the least host time.
std::size_t fastest(const std::vector<PassResult>& passes) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < passes.size(); ++i) {
        if (passes[i].seconds < passes[best].seconds) {
            best = i;
        }
    }
    return best;
}

/// Host time of an undisturbed untraced pass: each timed item at the
/// least host time it took in any pass, summed.
double best_pass_seconds(const std::vector<PassResult>& passes) {
    std::vector<double> best = passes.front().items;
    for (const PassResult& p : passes) {
        for (std::size_t i = 0; i < best.size() && i < p.items.size(); ++i) {
            best[i] = std::min(best[i], p.items[i]);
        }
    }
    double sum = 0.0;
    for (double s : best) {
        sum += s;
    }
    return sum;
}

double probe_median_ms(std::uint64_t seed) {
    std::vector<double> v;
    for (int i = 0; i < 3; ++i) {
        v.push_back(host_probe_ms(seed + static_cast<std::uint64_t>(i)));
    }
    return median(v);
}

double peak_rss_mb() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool parse_u64(const char* s, std::uint64_t& out) {
    if (s == nullptr || *s == '\0') {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || s[0] == '-') {
        return false;
    }
    out = v;
    return true;
}

int usage() {
    std::fputs("usage: perfbench --workload corpus_replay|fault_campaign|long_horizon "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]\n",
               stderr);
    return 2;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), v, metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/// The run record: every pass, the probe and the metrics, for humans
/// comparing runs. Best effort -- a write failure only loses the record.
void write_record(const std::string& path, const Options& o, double probe_pre,
                  double probe_post, const std::vector<double>& setups,
                  const std::vector<PassResult>& untraced,
                  const std::vector<PassResult>& traced,
                  const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return;
    }
    std::fprintf(f, "{\n  \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d,\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                 o.trace ? 1 : 0);
    std::fprintf(f, "  \"host_probe_ms\": {\"before\": %.6g, \"after\": %.6g},\n", probe_pre,
                 probe_post);
    std::fprintf(f, "  \"attempted\": %llu, \"failed\": %llu,\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    auto list = [f](const char* name, const std::vector<double>& v, bool last) {
        std::fprintf(f, "  \"%s\": [", name);
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::fprintf(f, "%s%.6g", i == 0 ? "" : ", ", v[i]);
        }
        std::fprintf(f, "]%s\n", last ? "" : ",");
    };
    std::vector<double> u;
    std::vector<double> t;
    for (const PassResult& p : untraced) u.push_back(p.seconds);
    for (const PassResult& p : traced) t.push_back(p.seconds);
    list("setup_s", setups, false);
    list("untraced_pass_s", u, false);
    list("traced_pass_s", t, false);
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": %.10g", i == 0 ? "" : ",", metrics[i].name.c_str(),
                     metrics[i].value);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return;
    }
    for (const Span& s : spans) {
        std::fprintf(f, "{\"name\": \"%s\", \"unit\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                     phase_name(s.phase), static_cast<unsigned long long>(s.unit),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    std::string out_dir = ".bench_build/perfbench/out";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (v == nullptr) {
            return usage();
        }
        ++i;
        std::uint64_t n = 0;
        if (flag == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (flag == "--seed" && parse_u64(v, n)) {
            o.seed = n;
        } else if (flag == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 3600) {
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parse_u64(v, n) && n <= 1) {
            o.trace = n == 1;
        } else if (flag == "--root") {
            o.root = v;
        } else if (flag == "--out") {
            out_dir = v;
        } else {
            return usage();
        }
    }
    std::unique_ptr<Workload> w;
    if (!have_workload) {
        return usage();
    } else if (o.workload == "corpus_replay") {
        w = make_corpus_replay(o);
    } else if (o.workload == "fault_campaign") {
        w = make_fault_campaign(o);
    } else if (o.workload == "long_horizon") {
        w = make_long_horizon(o);
    } else {
        return usage();
    }

    const auto epoch = Clock::now();
    const double probe_pre = probe_median_ms(o.seed);

    // ---- setup: repeated, the fastest reported --------------------------------
    std::vector<double> setups;
    std::map<std::string, std::vector<double>> setup_layers;
    const auto setup_start = Clock::now();
    while (setups.size() < 5 || (seconds_since(setup_start) < 1.0 && setups.size() < 100)) {
        std::string error;
        LayerValues layers;
        const auto t0 = Clock::now();
        if (!w->setup(error, layers)) {
            note("%s setup failed: %s", o.workload.c_str(), error.c_str());
            return 2;
        }
        setups.push_back(seconds_since(t0));
        for (const auto& [name, value] : layers) {
            setup_layers[name].push_back(value);
        }
    }
    note("%s; setup %.6f s (fastest of %zu)", w->describe().c_str(),
         *std::min_element(setups.begin(), setups.end()), setups.size());

    // ---- timed passes --------------------------------------------------------
    Tracer tracer(epoch);
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::vector<std::array<double, phase_count>> phase_totals;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto loop_start = Clock::now();
    do {
        untraced.push_back(w->run_untraced());
        if (o.trace) {
            tracer.reset();
            tracer.set_keep_spans(traced.empty());
            traced.push_back(w->run_traced(tracer));
            phase_totals.push_back(tracer.totals());
        }
    } while (seconds_since(loop_start) < o.seconds || untraced.size() < 3);
    for (const PassResult& p : untraced) {
        attempted += p.units;
        failed += p.failed;
    }
    for (const PassResult& p : traced) {
        attempted += p.units;
        failed += p.failed;
        if (!(p.counts == traced.front().counts)) {
            note("per-layer counts differ between traced passes");
            ++failed;
        }
    }

    tracer.set_keep_spans(false);
    w->verify(tracer, attempted, failed);
    const double probe_post = probe_median_ms(o.seed);

    // ---- metrics -------------------------------------------------------------
    // Every pass does identical work, so host interference can only slow
    // it down. Throughput comes from each timed item's fastest repetition,
    // per-layer timings from the fastest traced pass and setup_s from the
    // fastest setup -- see README.md, "Statistics".
    std::vector<Metric> metrics;
    if (!o.trace) {
        const PassResult& first = untraced.front();
        const double seconds = best_pass_seconds(untraced);
        const double sim_ms = first.sim_ms != 0.0 ? first.sim_ms : w->pass_sim_ms();
        metrics.push_back({"units_per_s", static_cast<double>(first.units) / seconds, "1/s"});
        metrics.push_back({"sim_ms_per_host_s", sim_ms / seconds, "ms/s"});
        metrics.push_back({"setup_s", *std::min_element(setups.begin(), setups.end()), "s"});
        metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
        metrics.push_back(
            {"pass_share",
             static_cast<double>(attempted - std::min(failed, attempted)) /
                 static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
             "share"});
    } else {
        const std::size_t best = fastest(traced);
        const std::array<double, phase_count>& totals = phase_totals[best];
        auto phase_s = [&](Phase p) { return totals[static_cast<std::size_t>(p)]; };
        auto setup_min = [&](const char* name) {
            const auto it = setup_layers.find(name);
            return it == setup_layers.end()
                       ? 0.0
                       : *std::min_element(it->second.begin(), it->second.end());
        };
        const Counts& c = traced.front().counts;
        const LayerValues extra = w->layer_values();
        auto value = [&](const char* name) {
            const auto it = extra.find(name);
            return it == extra.end() ? 0.0 : it->second;
        };
        auto per = [](double seconds, std::uint64_t n) {
            return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
        };
        auto count = [](std::uint64_t n) { return static_cast<double>(n); };
        for (Phase p : {Phase::pass, Phase::spec, Phase::construct, Phase::workload,
                        Phase::simulate, Phase::fingerprint, Phase::check, Phase::teardown}) {
            metrics.push_back({std::string(phase_name(p)) + "_s", phase_s(p), "s"});
        }
        for (Phase p : {Phase::construct, Phase::workload, Phase::simulate, Phase::fingerprint,
                        Phase::teardown}) {
            metrics.push_back(
                {std::string(phase_name(p)) + "_share", phase_s(p) / phase_s(Phase::pass), "share"});
        }
        metrics.push_back({"harness.traced_over_untraced",
                           traced[best].seconds / untraced[fastest(untraced)].seconds, "ratio"});
        metrics.push_back({"sysc.delta_cycles", count(c.delta_cycles), "count"});
        metrics.push_back({"sysc.ns_per_delta", per(phase_s(Phase::simulate), c.delta_cycles), "ns"});
        metrics.push_back({"sysc.processes_at_teardown", count(c.processes_at_teardown), "count"});
        metrics.push_back({"sysc.stack_acquires", count(c.stack_acquires), "count"});
        metrics.push_back({"sysc.stack_reuses", count(c.stack_reuses), "count"});
        metrics.push_back({"sim.observer_events", count(c.observer_events), "count"});
        metrics.push_back({"sim.ns_per_event", per(phase_s(Phase::simulate), c.observer_events), "ns"});
        metrics.push_back({"sim.dispatches", count(c.dispatches), "count"});
        metrics.push_back({"sim.preemptions", count(c.preemptions), "count"});
        metrics.push_back({"sim.interrupts", count(c.interrupts), "count"});
        metrics.push_back({"sim.gantt_segments", count(c.gantt_segments), "count"});
        metrics.push_back({"sim.gantt_markers", count(c.gantt_markers), "count"});
        metrics.push_back({"sim.stats_s", phase_s(Phase::stats), "s"});
        metrics.push_back({"tkernel.service_calls", count(c.service_calls), "count"});
        metrics.push_back({"trace.events", count(c.trace_events), "count"});
        metrics.push_back({"trace.finish_s", phase_s(Phase::trace_finish), "s"});
        metrics.push_back({"corpus.load_s", setup_min("corpus.load_s"), "s"});
        metrics.push_back({"corpus.generate_s", setup_min("corpus.generate_s"), "s"});
        metrics.push_back({"corpus.parse_s", setup_min("corpus.parse_s"), "s"});
        metrics.push_back({"corpus.checks_s", phase_s(Phase::checks), "s"});
        metrics.push_back({"fault.baseline_s", phase_s(Phase::fault_baseline), "s"});
        metrics.push_back({"fault.build_s", phase_s(Phase::fault_build), "s"});
        metrics.push_back({"fault.harvest_s", phase_s(Phase::fault_harvest), "s"});
        for (const char* name :
             {"fault.prefix_event_share", "fault.prefix_host_share", "fault.masked_share",
              "fault.detected_share", "fault.invariant_violated_share", "fault.hung_share",
              "fault.diverged_share"}) {
            metrics.push_back({name, value(name), "share"});
        }
    }

    const bool correct = failed == 0 && attempted != 0;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string stem = out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    write_record(stem + (o.trace ? "-trace1.json" : "-trace0.json"), o, probe_pre, probe_post,
                 setups, untraced, traced, metrics, attempted, failed);
    if (o.trace) {
        write_spans(stem + ".spans.jsonl", tracer.spans());
    }
    note("host probe %.2f ms before, %.2f ms after; %zu untraced + %zu traced passes; "
         "%llu units, %llu failed",
         probe_pre, probe_post, untraced.size(), traced.size(),
         static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
