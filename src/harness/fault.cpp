#include "harness/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "corpus/rng.hpp"
#include "sim/observer.hpp"
#include "sysc/fsio.hpp"
#include "tkernel/kernel.hpp"
#include "trace/recorder.hpp"

namespace rtk::harness::fault {

// ---- fault classes ----------------------------------------------------------

const FaultClass* all_fault_classes() {
    static const FaultClass classes[fault_class_count] = {
        FaultClass::tcb_bitflip, FaultClass::object_bitflip,
        FaultClass::arg_corrupt, FaultClass::irq_drop,
        FaultClass::irq_dup,     FaultClass::timer_skew,
    };
    return classes;
}

const char* to_string(FaultClass c) {
    switch (c) {
        case FaultClass::tcb_bitflip:
            return "tcb_bitflip";
        case FaultClass::object_bitflip:
            return "object_bitflip";
        case FaultClass::arg_corrupt:
            return "arg_corrupt";
        case FaultClass::irq_drop:
            return "irq_drop";
        case FaultClass::irq_dup:
            return "irq_dup";
        case FaultClass::timer_skew:
            return "timer_skew";
    }
    return "?";
}

bool fault_class_from_string(const std::string& s, FaultClass& out) {
    for (std::size_t i = 0; i < fault_class_count; ++i) {
        const FaultClass c = all_fault_classes()[i];
        if (s == to_string(c)) {
            out = c;
            return true;
        }
    }
    return false;
}

const char* to_string(Outcome o) {
    switch (o) {
        case Outcome::masked:
            return "masked";
        case Outcome::detected:
            return "detected";
        case Outcome::invariant_violated:
            return "invariant_violated";
        case Outcome::hung:
            return "hung";
    }
    return "?";
}

bool outcome_from_string(const std::string& s, Outcome& out) {
    for (std::size_t i = 0; i < outcome_count; ++i) {
        const Outcome o = static_cast<Outcome>(i);
        if (s == to_string(o)) {
            out = o;
            return true;
        }
    }
    return false;
}

// ---- FaultSpec --------------------------------------------------------------

std::string FaultSpec::name() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "fault/%s/%llu/t%llu", to_string(cls),
                  static_cast<unsigned long long>(workload.seed),
                  static_cast<unsigned long long>(trigger));
    return buf;
}

Json FaultSpec::to_json() const {
    Json j = Json::object();
    j.set("class", Json::string(to_string(cls)));
    j.set("trigger", Json::number(trigger));
    j.set("target", Json::number(target));
    j.set("field", Json::number(field));
    j.set("bit", Json::number(bit));
    j.set("param", Json::number_signed(param));
    j.set("delta_budget", Json::number(delta_budget));
    j.set("workload", workload.to_json());
    return j;
}

bool FaultSpec::from_json(const Json& j, FaultSpec& out, std::string* error) {
    auto fail = [error](const char* msg) {
        if (error != nullptr) {
            *error = msg;
        }
        return false;
    };
    if (!j.is_object()) {
        return fail("fault spec: not an object");
    }
    FaultSpec f;
    if (!fault_class_from_string(j.at("class").as_string(), f.cls)) {
        return fail("fault spec: unknown class");
    }
    f.trigger = j.at("trigger").as_u64();
    f.target = static_cast<std::uint32_t>(j.at("target").as_u64());
    f.field = static_cast<std::uint32_t>(j.at("field").as_u64());
    f.bit = static_cast<std::uint32_t>(j.at("bit").as_u64());
    f.param = static_cast<std::int32_t>(j.at("param").as_i64());
    f.delta_budget = j.at("delta_budget").as_u64(f.delta_budget);
    std::string spec_error;
    if (!fuzz::FuzzSpec::from_json(j.at("workload"), f.workload, &spec_error)) {
        if (error != nullptr) {
            *error = "fault spec workload: " + spec_error;
        }
        return false;
    }
    out = std::move(f);
    return true;
}

// ---- injection machinery ----------------------------------------------------

/// Shared state of one injection run, written single-threaded from the
/// run's observers/hooks and read after the run completes.
struct InjectionProbe {
    // site (copied from the FaultSpec)
    FaultClass cls = FaultClass::tcb_bitflip;
    std::uint64_t trigger = 0;
    std::uint32_t target = 0;
    std::uint32_t field = 0;
    std::uint32_t bit = 0;
    std::int32_t param = 0;
    bool with_fault = false;

    // run state
    std::uint64_t events = 0;  ///< observer events seen by the injector
    std::uint64_t ops = 0;     ///< interpreter ops executed so far
    bool injected = false;
    std::string current_call = "(boot)";  ///< op in flight (attribution)
    std::string injected_call = "(none)";
    std::uint64_t trace_events = 0;  ///< counted by the trace consumer

    /// The run's SimApi, set when the injection attaches. Lets the op
    /// hooks (which see no Simulation) reach the run's trace::Recorder.
    sim::SimApi* api = nullptr;
};

namespace {

constexpr std::size_t task_field_count = 6;
constexpr std::size_t object_field_count = 3;

/// Injections built/run/classified per ScenarioRunner batch: bounds how
/// many scenarios (and retained trace rings) are in memory at once.
constexpr std::size_t injection_chunk = 256;
/// Per-run trace ring budget, kept small because every in-flight
/// injection holds its capture until classification.
constexpr std::size_t trace_ring_bytes = std::size_t{256} << 10;

/// Stamp the injection instant into the run's trace, if one is being
/// recorded. An annotation record never feeds the observer fan-out, so
/// the trigger ordinal space is untouched.
void mark_injection_in_trace(const InjectionProbe& p) {
    if (p.api == nullptr) {
        return;
    }
    if (trace::Recorder* rec = trace::Recorder::find(*p.api)) {
        rec->annotate(std::string("fault:") + to_string(p.cls) + "@" +
                      p.current_call);
    }
}

/// The injector: counts observer events and, at the trigger ordinal,
/// applies the fault through the sanctioned TKernel/SimApi mutation
/// hooks -- never through service entry points (observer contract).
class FaultInjector final : public sim::SimObserver {
public:
    FaultInjector(tkernel::TKernel& os, std::shared_ptr<InjectionProbe> probe)
        : os_(&os), probe_(std::move(probe)) {
        os_->sim().add_observer(this);
    }
    ~FaultInjector() override { os_->sim().remove_observer(this); }

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    void on_state_change(const sim::TThread&, sim::ThreadState,
                         sim::ThreadState, sysc::Time) override {
        step();
    }
    void on_dispatch(const sim::TThread&, sysc::Time) override { step(); }
    void on_preemption(const sim::TThread&, sysc::Time) override { step(); }
    void on_interrupt_enter(const sim::TThread&, sysc::Time) override { step(); }
    void on_interrupt_return(const sim::TThread&, sysc::Time) override {
        step();
    }
    void on_wakeup(const sim::TThread&, const sim::TThread*,
                   sysc::Time) override {
        step();
    }
    void on_idle(sysc::Time) override { step(); }
    // on_service_enter/on_service_exit are deliberately NOT counted: the
    // trigger ordinal space must stay stable across releases so archived
    // repro JSONs keep replaying to the same outcome.

private:
    void step() {
        InjectionProbe& p = *probe_;
        const std::uint64_t index = p.events++;
        if (!p.with_fault || p.injected || p.cls == FaultClass::arg_corrupt) {
            return;  // arg_corrupt triggers on op ordinals (before_op hook)
        }
        if (index != p.trigger) {
            return;
        }
        if (apply(p)) {
            p.injected = true;
            p.injected_call = p.current_call;
            mark_injection_in_trace(p);
        }
    }

    /// Pick the victim from the live registries and corrupt it. Returns
    /// false when no suitable victim exists at the trigger point (the
    /// fault then stays un-injected for the rest of the run).
    bool apply(const InjectionProbe& p) {
        using tkernel::TKernel;
        switch (p.cls) {
            case FaultClass::tcb_bitflip: {
                const std::vector<tkernel::ID> ids = os_->tasks().ids();
                if (ids.empty()) {
                    return false;
                }
                const tkernel::ID victim = ids[p.target % ids.size()];
                const auto field = static_cast<TKernel::FaultTaskField>(
                    p.field % task_field_count);
                return os_->fault_flip_task_field(victim, field, p.bit);
            }
            case FaultClass::object_bitflip: {
                // Try the selected field first, then the other object
                // classes, so the fault lands whenever *any* semaphore
                // or eventflag exists.
                for (std::size_t k = 0; k < object_field_count; ++k) {
                    const auto field = static_cast<TKernel::FaultObjectField>(
                        (p.field + k) % object_field_count);
                    const std::vector<tkernel::ID> ids =
                        field == TKernel::FaultObjectField::flg_pattern
                            ? os_->eventflags().ids()
                            : os_->semaphores().ids();
                    if (ids.empty()) {
                        continue;
                    }
                    return os_->fault_flip_object_field(
                        field, ids[p.target % ids.size()], p.bit);
                }
                return false;
            }
            case FaultClass::arg_corrupt:
                return false;  // unreachable (filtered in step())
            case FaultClass::irq_drop: {
                const std::uint32_t n =
                    1 + (static_cast<std::uint32_t>(p.param) & 3u);
                os_->sim().SIM_FaultDropInterrupts(n);
                return true;
            }
            case FaultClass::irq_dup:
                os_->sim().SIM_FaultDuplicateInterrupt();
                return true;
            case FaultClass::timer_skew:
                return os_->fault_skew_next_timer(p.param);
        }
        return false;
    }

    tkernel::TKernel* os_;
    std::shared_ptr<InjectionProbe> probe_;
};

/// The third simultaneous observer of the run: a passive trace consumer
/// that only counts events. Its count doubling the injector's proves
/// the multi-observer fan-out delivers to every registered observer.
class TraceCounter final : public sim::SimObserver {
public:
    TraceCounter(sim::SimApi& api, std::shared_ptr<InjectionProbe> probe)
        : api_(&api), probe_(std::move(probe)) {
        api_->add_observer(this);
    }
    ~TraceCounter() override { api_->remove_observer(this); }

    TraceCounter(const TraceCounter&) = delete;
    TraceCounter& operator=(const TraceCounter&) = delete;

    void on_state_change(const sim::TThread&, sim::ThreadState,
                         sim::ThreadState, sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_dispatch(const sim::TThread&, sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_preemption(const sim::TThread&, sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_interrupt_enter(const sim::TThread&, sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_interrupt_return(const sim::TThread&, sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_wakeup(const sim::TThread&, const sim::TThread*,
                   sysc::Time) override {
        ++probe_->trace_events;
    }
    void on_idle(sysc::Time) override { ++probe_->trace_events; }
    // Service enter/exit are not counted, mirroring FaultInjector: the
    // "trace_events == injector ordinals" fan-out invariant stays exact.

private:
    sim::SimApi* api_;
    std::shared_ptr<InjectionProbe> probe_;
};

fuzz::WorkloadHooks make_hooks(std::shared_ptr<InjectionProbe> probe) {
    fuzz::WorkloadHooks hooks;
    hooks.before_op = [probe](std::uint64_t index, corpus::Op& op, bool) {
        InjectionProbe& p = *probe;
        p.ops = index + 1;
        p.current_call = fuzz::to_string(op.kind);
        if (!p.with_fault || p.cls != FaultClass::arg_corrupt || p.injected ||
            index != p.trigger) {
            return;
        }
        const std::int32_t mask = p.param == 0 ? 1 : p.param;
        switch (p.field % 4) {
            case 0:
                op.a ^= mask;
                break;
            case 1:
                op.b ^= mask;
                break;
            case 2:
                op.c ^= mask;
                break;
            default:
                op.d ^= mask;
                break;
        }
        p.injected = true;
        p.injected_call = p.current_call;
        mark_injection_in_trace(p);
    };
    return hooks;
}

std::string fmt_hex64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

// ---- single-injection execution ---------------------------------------------

BuiltInjection build_injection(const FaultSpec& fault, bool with_fault,
                               const TraceConfig& trace) {
    auto probe = std::make_shared<InjectionProbe>();
    probe->cls = fault.cls;
    probe->trigger = fault.trigger;
    probe->target = fault.target;
    probe->field = fault.field;
    probe->bit = fault.bit;
    probe->param = fault.param;
    probe->with_fault = with_fault;

    auto attach = [probe, with_fault](Simulation& sim) {
        probe->api = &sim.sim();
        if (with_fault) {
            sim.retain(std::make_shared<FaultInjector>(sim.os(), probe));
        }
        sim.retain(std::make_shared<TraceCounter>(sim.sim(), probe));
    };

    fuzz::BuiltScenario b = fuzz::build_scenario(
        fault.workload, /*with_oracle=*/true, make_hooks(probe), attach);

    BuiltInjection out;
    out.scenario = std::move(b.scenario);
    out.oracle = std::move(b.oracle);
    out.probe = std::move(probe);
    if (with_fault) {
        out.scenario.name = fault.name();
    }
    out.scenario.delta_budget = fault.delta_budget;
    out.scenario.trace = trace;
    return out;
}

BaselineProfile profile_baseline(const fuzz::FuzzSpec& workload,
                                 std::uint64_t delta_budget) {
    FaultSpec f;
    f.workload = workload;
    f.delta_budget = delta_budget;
    const BuiltInjection built = build_injection(f, /*with_fault=*/false);
    const ScenarioResult run = run_scenario(built.scenario);

    BaselineProfile p;
    p.ok = run.passed;
    p.error = run.error;
    p.fingerprint = run.fingerprint;
    p.events = built.probe->trace_events;
    p.ops = built.probe->ops;
    return p;
}

InjectionResult harvest(const BuiltInjection& built, const ScenarioResult& run,
                        const BaselineProfile& baseline) {
    InjectionResult out;
    const InjectionProbe& p = *built.probe;
    out.injected = p.injected;
    out.service_call = p.injected ? p.injected_call : "(none)";
    out.fingerprint = run.fingerprint;
    out.baseline_fingerprint = baseline.fingerprint;
    out.diverged = run.fingerprint != baseline.fingerprint;
    out.trace_events = p.trace_events;
    out.error = run.error;
    if (built.oracle != nullptr) {
        out.oracle_violations = built.oracle->violation_count;
        out.violations = built.oracle->violations;
    }
    // Classification precedence: a hung run never reaches the oracle's
    // final check, and a violated run's check-predicate failure must not
    // read as a mere detection.
    if (run.hung) {
        out.outcome = Outcome::hung;
    } else if (out.oracle_violations > 0) {
        out.outcome = Outcome::invariant_violated;
    } else if (!run.passed) {
        out.outcome = Outcome::detected;
    } else {
        out.outcome = Outcome::masked;
    }
    return out;
}

InjectionResult run_injection(const FaultSpec& fault,
                              const BaselineProfile& baseline) {
    const BuiltInjection built = build_injection(fault);
    const ScenarioResult run = run_scenario(built.scenario);
    return harvest(built, run, baseline);
}

// ---- repro files ------------------------------------------------------------

std::string make_repro_json(const FaultSpec& fault,
                            const InjectionResult& result,
                            const std::string& trace_path) {
    Json r = Json::object();
    r.set("outcome", Json::string(to_string(result.outcome)));
    r.set("injected", Json::boolean(result.injected));
    r.set("diverged", Json::boolean(result.diverged));
    r.set("service_call", Json::string(result.service_call));
    r.set("fingerprint", Json::string(fmt_hex64(result.fingerprint)));
    r.set("baseline_fingerprint",
          Json::string(fmt_hex64(result.baseline_fingerprint)));
    r.set("oracle_violations", Json::number(result.oracle_violations));
    Json v = Json::array();
    for (const std::string& s : result.violations) {
        v.push(Json::string(s));
    }
    r.set("violations", std::move(v));
    r.set("error", Json::string(result.error));
    if (!trace_path.empty()) {
        r.set("trace", Json::string(trace_path));
    }

    Json doc = Json::object();
    doc.set("rtk_fault_repro", Json::number(1));
    doc.set("fault", fault.to_json());
    doc.set("result", std::move(r));
    return doc.dump(2) + "\n";
}

bool parse_repro_json(const std::string& text, FaultSpec& out,
                      std::string* error) {
    Json doc;
    if (!Json::parse(text, doc, error)) {
        return false;
    }
    const Json& spec = doc.has("fault") ? doc.at("fault") : doc;
    return FaultSpec::from_json(spec, out, error);
}

// ---- campaign ---------------------------------------------------------------

void CoverageCell::add(Outcome o) {
    switch (o) {
        case Outcome::masked:
            ++masked;
            break;
        case Outcome::detected:
            ++detected;
            break;
        case Outcome::invariant_violated:
            ++invariant_violated;
            break;
        case Outcome::hung:
            ++hung;
            break;
    }
}

std::size_t CampaignReport::service_calls_covered() const {
    std::size_t n = 0;
    for (const auto& [call, row] : heat) {
        (void)row;
        n += call != "(none)" ? 1 : 0;
    }
    return n;
}

std::size_t CampaignReport::fault_classes_covered() const {
    std::map<std::string, bool> seen;
    for (const auto& [call, row] : heat) {
        (void)call;
        for (const auto& [cls, cell] : row) {
            if (cell.total() > 0) {
                seen[cls] = true;
            }
        }
    }
    return seen.size();
}

Json CampaignReport::to_json_doc() const {
    Json agg = Json::object();
    agg.set("workloads", Json::number(workloads));
    agg.set("injections", Json::number(injections));
    agg.set("injected", Json::number(injected));
    agg.set("diverged", Json::number(diverged));
    for (std::size_t i = 0; i < outcome_count; ++i) {
        agg.set(to_string(static_cast<Outcome>(i)), Json::number(outcomes[i]));
    }
    agg.set("service_calls_covered", Json::number(service_calls_covered()));
    agg.set("fault_classes_covered", Json::number(fault_classes_covered()));
    agg.set("wall_seconds", Json::number_real(wall_seconds));

    Json cov = Json::object();
    for (const auto& [call, row] : heat) {
        Json jrow = Json::object();
        for (const auto& [cls, cell] : row) {
            Json jcell = Json::object();
            jcell.set("masked", Json::number(cell.masked));
            jcell.set("detected", Json::number(cell.detected));
            jcell.set("invariant_violated",
                      Json::number(cell.invariant_violated));
            jcell.set("hung", Json::number(cell.hung));
            jcell.set("total", Json::number(cell.total()));
            jrow.set(cls, std::move(jcell));
        }
        cov.set(call, std::move(jrow));
    }

    Json repros = Json::array();
    for (const std::string& p : repro_paths) {
        repros.push(Json::string(p));
    }

    Json doc = Json::object();
    doc.set("campaign", std::move(agg));
    doc.set("coverage", std::move(cov));
    doc.set("repros", std::move(repros));
    if (traced_runs > 0) {
        Json t = Json::object();
        t.set("traced_runs", Json::number(traced_runs));
        t.set("metrics", trace_metrics.to_json(/*with_tasks=*/false));
        Json tpaths = Json::array();
        for (const std::string& p : trace_paths) {
            tpaths.push(Json::string(p));
        }
        t.set("files", std::move(tpaths));
        doc.set("trace", std::move(t));
    }
    return doc;
}

std::string CampaignReport::to_json() const {
    return to_json_doc().dump(2) + "\n";
}

CampaignReport run_fault_campaign(const CampaignOptions& opts) {
    const auto start = std::chrono::steady_clock::now();
    CampaignReport rep;

    // 1. Generate the corpus and profile fault-free baselines.
    std::vector<fuzz::FuzzSpec> corpus;
    std::vector<BaselineProfile> baselines;
    corpus.reserve(opts.corpus);
    baselines.reserve(opts.corpus);
    for (std::size_t i = 0; i < opts.corpus; ++i) {
        fuzz::FuzzSpec spec =
            fuzz::generate_spec(opts.base_seed + i, opts.params);
        BaselineProfile base = profile_baseline(spec, opts.delta_budget);
        if (base.events == 0) {
            continue;  // nothing ever happened; no sites to sample
        }
        corpus.push_back(std::move(spec));
        baselines.push_back(std::move(base));
    }
    rep.workloads = corpus.size();

    // 2. Sample injection sites. Fault classes are cycled so all six
    // appear; trigger ordinals are drawn inside the baseline profile so
    // every injection actually fires (the pre-trigger prefix of a
    // faulted run is bit-identical to its baseline).
    corpus::Rng rng(opts.base_seed ^ 0xfa071u);
    std::vector<FaultSpec> faults;
    std::vector<std::size_t> workload_of;
    faults.reserve(corpus.size() * opts.injections_per_workload);
    for (std::size_t w = 0; w < corpus.size(); ++w) {
        const BaselineProfile& base = baselines[w];
        for (std::size_t j = 0; j < opts.injections_per_workload; ++j) {
            FaultSpec f;
            f.workload = corpus[w];
            f.cls = all_fault_classes()[j % fault_class_count];
            f.delta_budget = opts.delta_budget;
            const std::uint64_t space =
                f.cls == FaultClass::arg_corrupt ? base.ops : base.events;
            if (space == 0) {
                continue;  // op-less workload cannot host an arg fault
            }
            f.trigger = rng.below(space);
            f.target = static_cast<std::uint32_t>(rng.below(64));
            f.field = static_cast<std::uint32_t>(rng.below(24));
            f.bit = static_cast<std::uint32_t>(rng.below(64));
            switch (f.cls) {
                case FaultClass::arg_corrupt:
                    f.param = static_cast<std::int32_t>(rng.below(0xffff)) + 1;
                    break;
                case FaultClass::irq_drop:
                    f.param = static_cast<std::int32_t>(rng.below(4));
                    break;
                case FaultClass::timer_skew:
                    f.param = static_cast<std::int32_t>(rng.range(-20, 20));
                    if (f.param == 0) {
                        f.param = 7;
                    }
                    break;
                default:
                    break;
            }
            faults.push_back(std::move(f));
            workload_of.push_back(w);
        }
    }

    // 3. Build, run and classify injections in bounded chunks: only one
    // chunk's scenarios -- and their retained trace rings -- are alive
    // at a time. With trace_dir set, every run records into an in-memory
    // ring (keep_bytes) and the campaign writes only the interesting
    // captures to disk after classification.
    const bool tracing = !opts.trace_dir.empty();
    TraceConfig tcfg;
    tcfg.enabled = tracing;
    tcfg.buffer_bytes = trace_ring_bytes;
    tcfg.keep_bytes = true;
    ScenarioRunner runner(ScenarioRunner::Options{opts.threads});

    for (std::size_t chunk_begin = 0; chunk_begin < faults.size();
         chunk_begin += injection_chunk) {
        const std::size_t chunk_end =
            std::min(faults.size(), chunk_begin + injection_chunk);
        std::vector<BuiltInjection> built;
        std::vector<ScenarioSpec> scenarios;
        built.reserve(chunk_end - chunk_begin);
        scenarios.reserve(chunk_end - chunk_begin);
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            built.push_back(build_injection(faults[i], /*with_fault=*/true, tcfg));
            scenarios.push_back(built.back().scenario);
        }
        const BatchReport batch = runner.run(scenarios);

        // 4. Classify and aggregate the heat-map.
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const std::size_t k = i - chunk_begin;
            const InjectionResult r =
                harvest(built[k], batch.results[k], baselines[workload_of[i]]);
            ++rep.injections;
            rep.injected += r.injected ? 1 : 0;
            rep.diverged += r.diverged ? 1 : 0;
            ++rep.outcomes[static_cast<std::size_t>(r.outcome)];
            rep.heat[r.service_call][to_string(faults[i].cls)].add(r.outcome);
            const ScenarioResult& run = batch.results[k];
            if (run.traced) {
                ++rep.traced_runs;
                rep.trace_metrics.merge_counters(run.metrics);
            }
            const bool keep = r.outcome != Outcome::masked;
            std::string trace_path;
            if (keep && tracing && !run.trace_data.empty() &&
                rep.trace_paths.size() < opts.max_repros) {
                char tname[64];
                std::snprintf(tname, sizeof(tname), "fault_repro_%03zu.rtktrace",
                              i);
                trace_path = opts.trace_dir + "/" + tname;
                if (sysc::write_file_atomic(trace_path, run.trace_data)) {
                    rep.trace_paths.push_back(trace_path);
                } else {
                    trace_path.clear();
                }
            }
            if (keep && !opts.repro_dir.empty() &&
                rep.repro_paths.size() < opts.max_repros) {
                char fname[64];
                std::snprintf(fname, sizeof(fname), "fault_repro_%03zu.json", i);
                const std::string path = opts.repro_dir + "/" + fname;
                if (sysc::write_file_atomic(path,
                                            make_repro_json(faults[i], r,
                                                            trace_path))) {
                    rep.repro_paths.push_back(path);
                }
            }
        }
    }

    rep.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return rep;
}

}  // namespace rtk::harness::fault
