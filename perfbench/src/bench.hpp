// Shared pieces of the perfbench program: the span tracer, the per-layer
// counters, the benchmark-owned observers and statistics digest, and the
// interface every workload implements.
//
// Everything here measures the simulator from outside: spans wrap public
// calls, counts come from public accessors and from observers registered
// through SimApi::add_observer. Nothing in the program is modified.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/simulation.hpp"
#include "sim/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans ------------------------------------------------------------------

/// One traced layer call. The span names are the layer names used by the
/// per-layer metrics ("harness.simulate", "trace.finish", ...).
enum class Phase : std::uint8_t {
    pass,            ///< one traced pass over the workload's inputs
    unit,            ///< one scenario / injection / horizon run
    spec,            ///< harness::scenario_from_corpus
    construct,       ///< rtk::Simulation ctor (+ trace::Recorder attach)
    workload,        ///< spec.workload + delta budget
    simulate,        ///< power_on + run_until
    trace_finish,    ///< Recorder::finish + metrics copy
    stats,           ///< collect_stats
    fingerprint,     ///< fingerprint_simulation
    check,           ///< spec.check (oracle verdict / statistics digest)
    teardown,        ///< ~Simulation
    checks,          ///< corpus::evaluate_checks
    fault_baseline,  ///< fault::profile_baseline
    fault_build,     ///< fault::build_injection
    fault_harvest,   ///< fault::harvest
    prefix_probe,    ///< benchmark-only baseline re-run with host stamps
    count_,
};

constexpr std::size_t phase_count = static_cast<std::size_t>(Phase::count_);

const char* phase_name(Phase p);

struct Span {
    Phase phase;
    std::uint64_t unit;  ///< the unit this call belongs to (parent id)
    std::int64_t start_ns;
    std::int64_t end_ns;
};

/// Collects spans and per-phase host-time totals. Totals cover every span
/// since the last reset(); spans are kept in memory only while
/// keep_spans() is on and are written out once, at exit.
class Tracer {
public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    class Scope {
    public:
        Scope(Tracer& t, Phase p, std::uint64_t unit)
            : tracer_(&t), phase_(p), unit_(unit), start_(Clock::now()) {}
        ~Scope() { tracer_->close(phase_, unit_, start_, Clock::now()); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        Phase phase_;
        std::uint64_t unit_;
        Clock::time_point start_;
    };

    Scope span(Phase p, std::uint64_t unit) { return Scope(*this, p, unit); }

    void reset() { totals_.fill(0.0); }
    double total(Phase p) const { return totals_[static_cast<std::size_t>(p)]; }
    const std::array<double, phase_count>& totals() const { return totals_; }

    void set_keep_spans(bool on) { keep_ = on; }
    const std::vector<Span>& spans() const { return spans_; }

    /// Host interval of the most recent simulate span (prefix probe).
    Clock::time_point last_simulate_start() const { return sim_start_; }
    Clock::time_point last_simulate_end() const { return sim_end_; }

private:
    void close(Phase p, std::uint64_t unit, Clock::time_point s, Clock::time_point e);

    Clock::time_point epoch_;
    std::array<double, phase_count> totals_{};
    bool keep_ = false;
    std::vector<Span> spans_;
    Clock::time_point sim_start_{};
    Clock::time_point sim_end_{};
};

// ---- counters ---------------------------------------------------------------

/// Deterministic per-layer counts of one traced pass, summed over units.
/// They must repeat exactly from pass to pass and run to run.
struct Counts {
    std::uint64_t delta_cycles = 0;           ///< sysc::Kernel::delta_count
    std::uint64_t processes_at_teardown = 0;  ///< sysc::Kernel::process_count
    std::uint64_t stack_acquires = 0;         ///< StackPool::total_acquires
    std::uint64_t stack_reuses = 0;           ///< StackPool::total_reuses
    std::uint64_t observer_events = 0;        ///< callbacks seen by CountingObserver
    std::uint64_t service_calls = 0;          ///< outermost service sections
    std::uint64_t dispatches = 0;             ///< SimApi totals
    std::uint64_t preemptions = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t gantt_segments = 0;
    std::uint64_t gantt_markers = 0;
    std::uint64_t trace_events = 0;  ///< Recorder::events_recorded

    Counts& operator+=(const Counts& o);
    bool operator==(const Counts& o) const = default;
};

/// Passive observer registered by the traced run: counts every callback
/// and the outermost service sections (T-Kernel service calls).
class CountingObserver final : public rtk::sim::SimObserver {
public:
    std::uint64_t events = 0;
    std::uint64_t services = 0;

    void on_state_change(const rtk::sim::TThread&, rtk::sim::ThreadState,
                         rtk::sim::ThreadState, rtk::sysc::Time) override {
        ++events;
    }
    void on_dispatch(const rtk::sim::TThread&, rtk::sysc::Time) override { ++events; }
    void on_preemption(const rtk::sim::TThread&, rtk::sysc::Time) override { ++events; }
    void on_interrupt_enter(const rtk::sim::TThread&, rtk::sysc::Time) override {
        ++events;
    }
    void on_interrupt_return(const rtk::sim::TThread&, rtk::sysc::Time) override {
        ++events;
    }
    void on_wakeup(const rtk::sim::TThread&, const rtk::sim::TThread*,
                   rtk::sysc::Time) override {
        ++events;
    }
    void on_idle(rtk::sysc::Time) override { ++events; }
    void on_service_enter(const rtk::sim::TThread&, rtk::sysc::Time) override {
        ++events;
        ++services;
    }
    void on_service_exit(const rtk::sim::TThread&, rtk::sysc::Time) override {
        ++events;
    }
};

/// Digest of simulated statistics read through public accessors: sim
/// time, SimApi totals, systim/tick count and per-thread CET/CEE/dispatch
/// counters. Deliberately independent of fingerprint_simulation and of the
/// Gantt trace, so re-pinning the fingerprint or turning Gantt recording
/// off leaves it unchanged.
std::uint64_t stats_digest(const rtk::Simulation& sim);

/// Order-sensitive 64-bit mix used for every benchmark-owned digest.
class Digest {
public:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }
    void mix_double(double d);
    void mix_string(const std::string& s);
    std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---- the traced replica of run_scenario -------------------------------------

/// What one traced scenario run reports beside its ScenarioResult.
struct ReplicaRun {
    rtk::harness::ScenarioResult result;
    Counts counts;
};

/// Repeat harness::run_scenario's sequence through public calls, one span
/// per call: Simulation ctor, trace::Recorder (when spec.trace.enabled),
/// spec.workload, power_on + run_until, Recorder::finish, collect_stats,
/// fingerprint_simulation, spec.check and ~Simulation. The caller opens
/// the enclosing Phase::unit span. A CountingObserver
/// (and `extra`, when given) rides the observer fan-out for the run.
/// Produces the same ScenarioResult fields run_scenario does.
ReplicaRun run_scenario_traced(const rtk::harness::ScenarioSpec& spec, Tracer& tracer,
                               std::uint64_t unit,
                               rtk::sim::SimObserver* extra = nullptr);

// ---- workloads --------------------------------------------------------------

/// One timed pass over a workload's inputs.
struct PassResult {
    double seconds = 0.0;
    /// Host time of each timed item of an untraced pass (a chunk of
    /// scenarios, one workload's campaign, one horizon run), in a fixed
    /// order; they sum to `seconds`.
    std::vector<double> items;
    std::uint64_t units = 0;   ///< scenarios / injections / horizon runs
    std::uint64_t failed = 0;  ///< units that did not match their pins
    double sim_ms = 0.0;       ///< simulated milliseconds covered
    Counts counts;             ///< traced passes only
};

/// A named per-layer value reported by a workload (setup phase timings,
/// fault-campaign shares, ...). Absent names report 0.
using LayerValues = std::map<std::string, double>;

class Workload {
public:
    virtual ~Workload() = default;

    /// Build the inputs from the seed. Timed (and repeated) by the caller;
    /// `setup_layers` receives this repetition's per-layer setup timings.
    virtual bool setup(std::string& error, LayerValues& setup_layers) = 0;
    /// One pass through the program's public entry point, untraced.
    virtual PassResult run_untraced() = 0;
    /// The same pass repeated call by call under `tracer`.
    virtual PassResult run_traced(Tracer& tracer) = 0;
    /// Checks that need the program again after the timed loop (NISTT
    /// sample re-runs, pinned digests). Adds to attempted/failed.
    virtual void verify(Tracer& tracer, std::uint64_t& attempted, std::uint64_t& failed) {
        (void)tracer;
        (void)attempted;
        (void)failed;
    }
    /// Workload-specific per-layer values gathered by run_traced/verify.
    virtual LayerValues layer_values() const { return {}; }
    /// Simulated ms of one pass when an untraced pass cannot report it
    /// itself (0: the pass reports it).
    virtual double pass_sim_ms() const { return 0.0; }
    /// One-line human summary for stderr.
    virtual std::string describe() const = 0;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";  ///< checkout root (corpus/v1 lives here)
};

std::unique_ptr<Workload> make_corpus_replay(const Options& o);
std::unique_ptr<Workload> make_fault_campaign(const Options& o);
std::unique_ptr<Workload> make_long_horizon(const Options& o);

/// One-line diagnostic on stderr (never on stdout: the result line
/// must stay last there).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
