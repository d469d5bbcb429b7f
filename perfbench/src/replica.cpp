// The traced replica of harness::run_scenario plus the shared tracer,
// counter and digest helpers.
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <optional>

#include "bench.hpp"
#include "sim/gantt.hpp"
#include "sim/sim_api.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using rtk::Simulation;
using rtk::harness::ScenarioResult;
using rtk::harness::ScenarioSpec;

const char* phase_name(Phase p) {
    switch (p) {
        case Phase::pass: return "harness.pass";
        case Phase::unit: return "harness.unit";
        case Phase::spec: return "harness.spec";
        case Phase::construct: return "harness.construct";
        case Phase::workload: return "harness.workload";
        case Phase::simulate: return "harness.simulate";
        case Phase::trace_finish: return "trace.finish";
        case Phase::stats: return "sim.stats";
        case Phase::fingerprint: return "harness.fingerprint";
        case Phase::check: return "harness.check";
        case Phase::teardown: return "harness.teardown";
        case Phase::checks: return "corpus.checks";
        case Phase::fault_baseline: return "fault.baseline";
        case Phase::fault_build: return "fault.build";
        case Phase::fault_harvest: return "fault.harvest";
        case Phase::prefix_probe: return "bench.prefix_probe";
        case Phase::count_: break;
    }
    return "?";
}

void Tracer::close(Phase p, std::uint64_t unit, Clock::time_point s,
                   Clock::time_point e) {
    totals_[static_cast<std::size_t>(p)] += std::chrono::duration<double>(e - s).count();
    if (p == Phase::simulate) {
        sim_start_ = s;
        sim_end_ = e;
    }
    if (keep_) {
        using std::chrono::duration_cast;
        using std::chrono::nanoseconds;
        spans_.push_back({p, unit, duration_cast<nanoseconds>(s - epoch_).count(),
                          duration_cast<nanoseconds>(e - epoch_).count()});
    }
}

Counts& Counts::operator+=(const Counts& o) {
    delta_cycles += o.delta_cycles;
    processes_at_teardown += o.processes_at_teardown;
    stack_acquires += o.stack_acquires;
    stack_reuses += o.stack_reuses;
    observer_events += o.observer_events;
    service_calls += o.service_calls;
    dispatches += o.dispatches;
    preemptions += o.preemptions;
    interrupts += o.interrupts;
    gantt_segments += o.gantt_segments;
    gantt_markers += o.gantt_markers;
    trace_events += o.trace_events;
    return *this;
}

void Digest::mix_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
}

void Digest::mix_string(const std::string& s) {
    mix(s.size());
    for (char c : s) {
        mix(static_cast<unsigned char>(c));
    }
}

std::uint64_t stats_digest(const Simulation& sim) {
    Digest h;
    h.mix(sim.now().picoseconds());
    const rtk::sim::SimApi& api = sim.sim();
    h.mix(api.total_dispatches());
    h.mix(api.total_preemptions());
    h.mix(api.total_interrupt_deliveries());
    h.mix(api.idle_time().picoseconds());
    h.mix(sim.os().systim());
    h.mix(sim.os().tick_count());
    for (const rtk::sim::TThread* t : api.hash_table().threads()) {
        h.mix(static_cast<std::uint64_t>(t->id()));
        h.mix_string(t->name());
        h.mix(t->token().cet().picoseconds());
        h.mix_double(t->token().cee_nj());
        h.mix(t->dispatch_count());
        h.mix(t->preemption_count());
        h.mix(t->times_interrupted());
    }
    return h.value();
}

ReplicaRun run_scenario_traced(const ScenarioSpec& spec, Tracer& tracer,
                               std::uint64_t unit, rtk::sim::SimObserver* extra) {
    ReplicaRun out;
    ScenarioResult& r = out.result;
    r.name = spec.name;
    r.seed = spec.seed;
    const auto host_start = Clock::now();
    // Declared before the Simulation so it outlives it on every path.
    CountingObserver counter;
    try {
        std::optional<Simulation> sim;
        // After the Simulation: the retained Recorder detaches from a live
        // SimApi, as in run_scenario.
        std::shared_ptr<rtk::trace::Recorder> recorder;
        {
            const auto s = tracer.span(Phase::construct, unit);
            sim.emplace(spec.config);
            if (spec.trace.enabled) {
                rtk::trace::RecorderOptions opts;
                opts.buffer_bytes = spec.trace.buffer_bytes;
                recorder = std::make_shared<rtk::trace::Recorder>(sim->sim(), opts);
                sim->retain(recorder);
            }
        }
        {
            const auto s = tracer.span(Phase::workload, unit);
            if (spec.workload) {
                spec.workload(*sim, spec);
            }
            if (spec.delta_budget != 0) {
                sim->kernel().set_delta_budget(spec.delta_budget);
            }
        }
        // Registered last: every observer the workload installed sees each
        // event before the counters do.
        rtk::sim::SimApi& api = sim->sim();
        api.add_observer(&counter);
        if (extra != nullptr) {
            api.add_observer(extra);
        }
        {
            const auto s = tracer.span(Phase::simulate, unit);
            sim->power_on();
            sim->run_until(spec.duration);
        }
        if (recorder != nullptr) {
            const auto s = tracer.span(Phase::trace_finish, unit);
            recorder->finish(sim->now());
            r.traced = true;
            r.trace_events = recorder->events_recorded();
            r.trace_dropped = recorder->records_dropped();
            r.metrics = recorder->metrics();
            if (spec.trace.keep_bytes) {
                r.trace_data = recorder->serialize();
            }
        }
        r.hung = sim->kernel().delta_budget_exhausted();
        r.sim_time = sim->now();
        {
            const auto s = tracer.span(Phase::stats, unit);
            r.stats = sim->stats();
        }
        r.gantt_segments = api.gantt().segments().size();
        r.gantt_markers = api.gantt().markers().size();
        {
            const auto s = tracer.span(Phase::fingerprint, unit);
            r.fingerprint = rtk::harness::fingerprint_simulation(*sim);
        }
        if (r.hung) {
            r.error = "delta budget exhausted (simulation hung)";
        } else {
            bool ok = true;
            if (spec.check) {
                const auto s = tracer.span(Phase::check, unit);
                ok = spec.check(*sim, spec);
            }
            if (!ok) {
                r.error = rtk::harness::check_failed_error;
            } else if (r.error.empty()) {
                r.passed = true;
            }
        }

        Counts& c = out.counts;
        c.delta_cycles = sim->kernel().delta_count();
        c.processes_at_teardown = sim->kernel().process_count();
        c.stack_acquires = sim->kernel().stack_pool().total_acquires();
        c.stack_reuses = sim->kernel().stack_pool().total_reuses();
        c.dispatches = api.total_dispatches();
        c.preemptions = api.total_preemptions();
        c.interrupts = api.total_interrupt_deliveries();
        c.gantt_segments = r.gantt_segments;
        c.gantt_markers = r.gantt_markers;
        c.trace_events = r.trace_events;

        // Teardown events are not counted: the observers leave first.
        if (extra != nullptr) {
            api.remove_observer(extra);
        }
        api.remove_observer(&counter);
        recorder.reset();  // the Simulation holds the last reference
        {
            const auto s = tracer.span(Phase::teardown, unit);
            sim.reset();
        }
    } catch (const std::exception& e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown exception";
    }
    out.counts.observer_events = counter.events;
    out.counts.service_calls = counter.services;
    r.host_seconds = seconds_since(host_start);
    return out;
}

void note(const char* fmt, ...) {
    std::fputs("perfbench: ", stderr);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

}  // namespace perfbench
