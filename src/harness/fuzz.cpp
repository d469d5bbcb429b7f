#include "harness/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "api/builder.hpp"
#include "harness/runner.hpp"
#include "harness/simulation.hpp"
#include "sysc/fsio.hpp"
#include "tkernel/tkernel.hpp"

namespace rtk::harness::fuzz {

using api::Json;

using namespace rtk::tkernel;
using sim::ExecContext;
using sysc::Time;

// ============================================================================
// Workload construction (the op interpreter lives in fuzz_interp.cpp)
// ============================================================================

namespace {

/// Lower the FuzzSpec's object population onto the shared IR: one
/// api::SystemSpec describing the whole graph, op programs attached as
/// behaviour closures over the per-run Runtime.
api::SystemSpec build_system_spec(const std::shared_ptr<Runtime>& rt,
                                  const std::shared_ptr<const FuzzSpec>& sp) {
    const FuzzSpec& spec = *sp;
    api::SystemBuilder b;

    for (std::size_t i = 0; i < spec.sems.size(); ++i) {
        const SemSpec& s = spec.sems[i];
        const INT init = std::clamp(s.init, 0, 1 << 16);
        b.semaphore("fz_sem" + std::to_string(i))
            .initial(init)
            .max(std::clamp(s.max, std::max(1, init), 1 << 16))
            .priority_queue(s.tpri)
            .count_order(s.cnt_order);
    }
    for (std::size_t i = 0; i < spec.flgs.size(); ++i) {
        const FlgSpec& f = spec.flgs[i];
        b.eventflag("fz_flg" + std::to_string(i))
            .initial(f.init)
            .priority_queue(f.tpri)
            .multi_waiter(f.wmul);
    }
    for (std::size_t i = 0; i < spec.mtxs.size(); ++i) {
        const MtxSpec& m = spec.mtxs[i];
        api::MtxNode& node = b.mutex("fz_mtx" + std::to_string(i));
        node.protocol(static_cast<api::MutexDef::Protocol>(std::clamp(m.proto, 0, 3)));
        node.def.ceiling = std::clamp(m.ceil, min_priority, max_priority);
    }
    for (std::size_t i = 0; i < spec.mbxs.size(); ++i) {
        const MbxSpec& m = spec.mbxs[i];
        b.mailbox("fz_mbx" + std::to_string(i))
            .priority_queue(m.tpri)
            .priority_messages(m.mpri);
    }
    for (std::size_t i = 0; i < spec.mbfs.size(); ++i) {
        const MbfSpec& m = spec.mbfs[i];
        b.msgbuf("fz_mbf" + std::to_string(i))
            .buffer_size(std::clamp(m.bufsz, 0, 1 << 16))
            .max_message(std::clamp(m.maxmsz, 1, 1 << 12))
            .priority_queue(m.tpri);
    }
    for (std::size_t i = 0; i < spec.mpfs.size(); ++i) {
        const MpfSpec& m = spec.mpfs[i];
        b.fixed_pool("fz_mpf" + std::to_string(i))
            .blocks(std::clamp(m.cnt, 1, 256))
            .block_size(std::clamp(m.blksz, 1, 1 << 12))
            .priority_queue(m.tpri);
    }
    for (std::size_t i = 0; i < spec.mpls.size(); ++i) {
        const MplSpec& m = spec.mpls[i];
        b.var_pool("fz_mpl" + std::to_string(i))
            .size(std::clamp(m.size, 8, 1 << 16))
            .priority_queue(m.tpri);
    }

    for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
        const TaskSpec& t = spec.tasks[i];
        const int self = static_cast<int>(i);
        api::TaskNode& node =
            b.task("fz_task" + std::to_string(i))
                .priority(std::clamp(t.pri, min_priority, max_priority))
                .entry([rt, sp, self](INT, void*) {
                    for (;;) {
                        rt->tk->sim().SIM_WaitUnits(
                            static_cast<std::uint64_t>(
                                std::clamp(sp->iter_units, 1, 1000)),
                            ExecContext::task);
                        run_program(rt, self,
                                    sp->tasks[static_cast<std::size_t>(self)].ops,
                                    /*handler=*/false);
                    }
                })
                .autostart();
        if (t.tex) {
            node.exception_handler([rt](UINT) {
                rt->tk->sim().SIM_WaitUnits(5, ExecContext::service_call);
            });
        }
    }

    for (std::size_t i = 0; i < spec.cycs.size(); ++i) {
        const CycSpec& c = spec.cycs[i];
        const std::size_t idx = i;
        b.cyclic("fz_cyc" + std::to_string(i))
            .period(static_cast<RELTIM>(std::clamp(c.period_ms, 1, 1000)))
            .phase(static_cast<RELTIM>(std::clamp(c.phase_ms, 0, 1000)))
            .autostart(c.autostart)
            .honor_phase(c.phs)
            .handler([rt, sp, idx](void*) {
                run_program(rt, -1, sp->cycs[idx].ops, /*handler=*/true);
            });
    }
    for (std::size_t i = 0; i < spec.alms.size(); ++i) {
        const AlmSpec& a = spec.alms[i];
        const std::size_t idx = i;
        b.alarm("fz_alm" + std::to_string(i))
            .handler([rt, sp, idx](void*) {
                run_program(rt, -1, sp->alms[idx].ops, /*handler=*/true);
            })
            .start_after(a.start_ms > 0
                             ? static_cast<RELTIM>(std::clamp(a.start_ms, 1, 1000))
                             : 0);
    }
    for (std::size_t i = 0; i < spec.ints.size(); ++i) {
        const IntSpec& v = spec.ints[i];
        const std::size_t idx = i;
        b.interrupt(100 + static_cast<UINT>(i))
            .priority(std::clamp(v.pri, 1, 8))
            .handler([rt, sp, idx](void*) {
                run_program(rt, -1, sp->ints[idx].ops, /*handler=*/true);
            });
    }
    return b.take_spec();
}

}  // namespace

// ============================================================================
// Scenario construction
// ============================================================================

BuiltScenario build_scenario(const FuzzSpec& spec, bool with_oracle) {
    return build_scenario(spec, with_oracle, WorkloadHooks{}, nullptr);
}

BuiltScenario build_scenario(const FuzzSpec& spec, bool with_oracle,
                             WorkloadHooks hooks,
                             std::function<void(Simulation&)> attach) {
    BuiltScenario built;
    built.oracle = std::make_shared<OracleReport>();
    auto spec_ptr = std::make_shared<const FuzzSpec>(spec);
    auto hooks_ptr = std::make_shared<const WorkloadHooks>(std::move(hooks));
    // Slot shared between workload (which creates the oracle inside the
    // simulation) and the check predicate (which harvests it). Weak: the
    // Simulation's retain() is the owning reference, so the oracle dies
    // (and detaches) before the kernel stack it observes.
    auto oracle_slot = std::make_shared<std::weak_ptr<InvariantOracle>>();

    ScenarioSpec& sc = built.scenario;
    sc.name = spec.scenario_name();
    sc.seed = spec.seed;
    sc.duration = Time::us(static_cast<std::uint64_t>(spec.duration_ms) * 1000);
    sc.config.tick = Time::us(spec.tick_us);
    sc.config.policy = spec.round_robin ? TKernel::SchedPolicy::round_robin
                                        : TKernel::SchedPolicy::priority_preemptive;
    sc.workload = [spec_ptr, hooks_ptr, oracle_slot, with_oracle,
                   attach](Simulation& sim, const ScenarioSpec&) {
        auto rt = std::make_shared<Runtime>();
        rt->tk = &sim.os();
        rt->hooks = *hooks_ptr;
        sim.set_user_main([rt, spec_ptr] {
            std::vector<int> mbx_nodes;
            for (const MbxSpec& m : spec_ptr->mbxs) {
                mbx_nodes.push_back(m.nodes);
            }
            instantiate_workload(*rt, build_system_spec(rt, spec_ptr),
                                 mbx_nodes, "fuzz", "FuzzSpec");
        });
        sim.retain(rt);
        if (with_oracle) {
            auto oracle = std::make_shared<InvariantOracle>(sim.os());
            sim.retain(oracle);
            *oracle_slot = oracle;
        }
        if (attach) {
            attach(sim);
        }
    };
    std::shared_ptr<OracleReport> report = built.oracle;
    sc.check = [oracle_slot, report](Simulation&, const ScenarioSpec&) {
        std::shared_ptr<InvariantOracle> oracle = oracle_slot->lock();
        if (oracle == nullptr) {
            return true;
        }
        oracle->final_check();
        report->ran = true;
        report->events = oracle->events_seen();
        report->violation_count = oracle->violation_count();
        report->violations = oracle->violations();
        return oracle->ok();
    };
    return built;
}

// ============================================================================
// Differential execution
// ============================================================================

const char* SpecVerdict::kind() const {
    if (sim_error) {
        return "sim-error";
    }
    if (violation_count > 0) {
        return "invariant";
    }
    if (mismatch) {
        return "mismatch";
    }
    return "ok";
}

std::string SpecVerdict::detail() const {
    if (sim_error) {
        return error;
    }
    if (violation_count > 0) {
        std::string d;
        for (const std::string& v : violations) {
            if (!d.empty()) {
                d += "; ";
            }
            d += v;
        }
        return d;
    }
    if (mismatch) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "serial fingerprint 0x%016llx != parallel 0x%016llx",
                      static_cast<unsigned long long>(serial_fingerprint),
                      static_cast<unsigned long long>(parallel_fingerprint));
        return buf;
    }
    return "";
}

namespace {

void absorb_leg(SpecVerdict& v, const ScenarioResult& r, const OracleReport& o) {
    if (!r.passed && o.violation_count == 0 && !r.error.empty() &&
        r.error != check_failed_error) {
        v.sim_error = true;
        if (v.error.empty()) {
            v.error = r.error;
        }
    }
    v.violation_count += o.violation_count;
    for (const std::string& s : o.violations) {
        if (v.violations.size() < 32) {
            v.violations.push_back(s);
        }
    }
}

}  // namespace

SpecVerdict run_spec_differential(const FuzzSpec& spec) {
    SpecVerdict v;

    BuiltScenario serial = build_scenario(spec);
    const ScenarioResult rs = run_scenario(serial.scenario);
    v.serial_fingerprint = rs.fingerprint;
    absorb_leg(v, rs, *serial.oracle);

    // Parallel leg: same spec executed by a worker thread of the batch
    // runner (thread pool of 2 so the scenario really migrates off the
    // calling thread).
    BuiltScenario par = build_scenario(spec);
    const BatchReport pr =
        ScenarioRunner(ScenarioRunner::Options{2}).run({par.scenario});
    v.parallel_fingerprint = pr.results.at(0).fingerprint;
    absorb_leg(v, pr.results.at(0), *par.oracle);

    v.mismatch = v.serial_fingerprint != v.parallel_fingerprint;
    return v;
}

// ============================================================================
// Minimization
// ============================================================================

namespace {

enum class RefClass { none, task, sem, flg, mtx, mbx, mbf, mpf, mpl, cyc, alm, intv };

RefClass ref_class(OpKind k) {
    switch (k) {
        case OpKind::wakeup:
        case OpKind::can_wup:
        case OpKind::rel_wai:
        case OpKind::suspend:
        case OpKind::resume:
        case OpKind::frsm:
        case OpKind::chg_pri:
        case OpKind::sta_tsk:
        case OpKind::ter_tsk:
        case OpKind::ras_tex:
            return RefClass::task;
        case OpKind::sem_wait:
        case OpKind::sem_signal:
            return RefClass::sem;
        case OpKind::flg_set:
        case OpKind::flg_clr:
        case OpKind::flg_wait:
            return RefClass::flg;
        case OpKind::mtx_lock:
        case OpKind::mtx_unlock:
            return RefClass::mtx;
        case OpKind::mbx_send:
        case OpKind::mbx_recv:
            return RefClass::mbx;
        case OpKind::mbf_send:
        case OpKind::mbf_recv:
            return RefClass::mbf;
        case OpKind::mpf_get:
        case OpKind::mpf_rel:
            return RefClass::mpf;
        case OpKind::mpl_get:
        case OpKind::mpl_rel:
            return RefClass::mpl;
        case OpKind::cyc_start:
        case OpKind::cyc_stop:
            return RefClass::cyc;
        case OpKind::alm_start:
        case OpKind::alm_stop:
            return RefClass::alm;
        case OpKind::raise_int:
            return RefClass::intv;
        default:
            return RefClass::none;
    }
}

/// After removing instance `idx` of `cls`, drop ops that referenced it
/// and shift higher indices down.
void remap_ops(std::vector<corpus::Op>& ops, RefClass cls, std::int32_t idx) {
    std::vector<corpus::Op> out;
    out.reserve(ops.size());
    for (corpus::Op op : ops) {
        if (ref_class(op.kind) == cls) {
            if (op.a == idx) {
                continue;
            }
            if (op.a > idx) {
                --op.a;
            }
        }
        out.push_back(op);
    }
    ops = std::move(out);
}

void remap_spec(FuzzSpec& spec, RefClass cls, std::int32_t idx) {
    for (TaskSpec& t : spec.tasks) {
        remap_ops(t.ops, cls, idx);
    }
    for (CycSpec& c : spec.cycs) {
        remap_ops(c.ops, cls, idx);
    }
    for (AlmSpec& a : spec.alms) {
        remap_ops(a.ops, cls, idx);
    }
    for (IntSpec& v : spec.ints) {
        remap_ops(v.ops, cls, idx);
    }
}

template <typename T>
FuzzSpec without(const FuzzSpec& spec, std::vector<T> FuzzSpec::*member,
                 RefClass cls, std::size_t idx) {
    FuzzSpec s = spec;
    auto& vec = s.*member;
    vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(idx));
    remap_spec(s, cls, static_cast<std::int32_t>(idx));
    return s;
}

}  // namespace

FuzzSpec minimize_spec(const FuzzSpec& spec, int budget) {
    FuzzSpec best = spec;
    int runs = 0;
    const auto still_fails = [&runs, budget](const FuzzSpec& candidate) {
        if (runs >= budget) {
            return false;
        }
        ++runs;
        return !run_spec_differential(candidate).ok();
    };
    if (!still_fails(best)) {
        return best;  // flaky or budget 0: keep the original
    }

    bool changed = true;
    while (changed && runs < budget) {
        changed = false;

        // 1. Whole structural units, largest first.
        const auto try_drop = [&](auto member, RefClass cls, std::size_t count,
                                  std::size_t keep_at_least) {
            for (std::size_t i = count; i-- > 0 && runs < budget;) {
                if ((best.*member).size() <= keep_at_least) {
                    return;
                }
                FuzzSpec candidate = without(best, member, cls, i);
                if (still_fails(candidate)) {
                    best = std::move(candidate);
                    changed = true;
                }
            }
        };
        try_drop(&FuzzSpec::tasks, RefClass::task, best.tasks.size(), 1);
        try_drop(&FuzzSpec::cycs, RefClass::cyc, best.cycs.size(), 0);
        try_drop(&FuzzSpec::alms, RefClass::alm, best.alms.size(), 0);
        try_drop(&FuzzSpec::ints, RefClass::intv, best.ints.size(), 0);
        try_drop(&FuzzSpec::sems, RefClass::sem, best.sems.size(), 0);
        try_drop(&FuzzSpec::flgs, RefClass::flg, best.flgs.size(), 0);
        try_drop(&FuzzSpec::mtxs, RefClass::mtx, best.mtxs.size(), 0);
        try_drop(&FuzzSpec::mbxs, RefClass::mbx, best.mbxs.size(), 0);
        try_drop(&FuzzSpec::mbfs, RefClass::mbf, best.mbfs.size(), 0);
        try_drop(&FuzzSpec::mpfs, RefClass::mpf, best.mpfs.size(), 0);
        try_drop(&FuzzSpec::mpls, RefClass::mpl, best.mpls.size(), 0);

        // 2. Individual ops from task programs (back to front).
        for (std::size_t t = 0; t < best.tasks.size() && runs < budget; ++t) {
            for (std::size_t j = best.tasks[t].ops.size(); j-- > 0 && runs < budget;) {
                FuzzSpec candidate = best;
                auto& ops = candidate.tasks[t].ops;
                ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(j));
                if (still_fails(candidate)) {
                    best = std::move(candidate);
                    changed = true;
                }
            }
        }
        // 3. Shorter run.
        if (runs < budget && best.duration_ms > 10) {
            FuzzSpec candidate = best;
            candidate.duration_ms /= 2;
            if (still_fails(candidate)) {
                best = std::move(candidate);
                changed = true;
            }
        }
    }
    return best;
}

// ============================================================================
// Repro files
// ============================================================================

std::string make_repro_json(const FuzzSpec& spec, const std::string& kind,
                            const std::string& detail, bool minimized) {
    Json j = Json::object();
    j.set("rtk_fuzz_repro", Json::number(1));
    j.set("seed", Json::number(spec.seed));
    j.set("minimized", Json::boolean(minimized));
    Json f = Json::object();
    f.set("kind", Json::string(kind));
    f.set("detail", Json::string(detail));
    j.set("failure", std::move(f));
    j.set("spec", spec.to_json());
    return j.dump(2) + "\n";
}

bool parse_repro_json(const std::string& text, FuzzSpec& out, std::string* error) {
    Json j;
    if (!Json::parse(text, j, error)) {
        return false;
    }
    const Json& spec_node = j.has("spec") ? j.at("spec") : j;
    return FuzzSpec::from_json(spec_node, out, error);
}

// ============================================================================
// Campaign
// ============================================================================

std::string FuzzReport::to_json() const {
    Json j = Json::object();
    j.set("scenarios", Json::number(scenarios));
    j.set("runs", Json::number(runs));
    j.set("oracle_events", Json::number(oracle_events));
    j.set("mismatches", Json::number(mismatches));
    j.set("violations", Json::number(violations));
    j.set("sim_errors", Json::number(sim_errors));
    j.set("ok", Json::boolean(ok()));
    Json fails = Json::array();
    for (const FuzzFailure& f : failures) {
        Json o = Json::object();
        o.set("seed", Json::number(f.seed));
        o.set("scenario", Json::string(f.scenario));
        o.set("kind", Json::string(f.kind));
        o.set("detail", Json::string(f.detail));
        o.set("repro_path", Json::string(f.repro_path));
        fails.push(std::move(o));
    }
    j.set("failures", std::move(fails));
    return j.dump(2) + "\n";
}

FuzzReport run_fuzz_campaign(const FuzzOptions& opts) {
    const auto start = std::chrono::steady_clock::now();
    FuzzReport report;

    // Generate the scenario block: every seed, under one or both policies.
    std::vector<FuzzSpec> specs;
    for (std::size_t i = 0; i < opts.num_seeds; ++i) {
        FuzzSpec spec = generate_spec(opts.base_seed + i, opts.params);
        if (opts.both_policies) {
            spec.round_robin = false;
            specs.push_back(spec);
            spec.round_robin = true;
            specs.push_back(spec);
        } else {
            specs.push_back(std::move(spec));
        }
    }
    report.scenarios = specs.size();

    // Serial leg.
    std::vector<BuiltScenario> serial;
    serial.reserve(specs.size());
    std::vector<ScenarioSpec> serial_specs;
    serial_specs.reserve(specs.size());
    for (const FuzzSpec& s : specs) {
        serial.push_back(build_scenario(s));
        serial_specs.push_back(serial.back().scenario);
    }
    const BatchReport serial_report =
        ScenarioRunner(ScenarioRunner::Options{1}).run(serial_specs);

    // Parallel leg (fresh oracle slots).
    unsigned threads = opts.parallel_threads;
    if (threads == 0) {
        threads = std::max(2u, std::min(std::thread::hardware_concurrency(), 8u));
    }
    std::vector<BuiltScenario> parallel;
    parallel.reserve(specs.size());
    std::vector<ScenarioSpec> parallel_specs;
    parallel_specs.reserve(specs.size());
    for (const FuzzSpec& s : specs) {
        parallel.push_back(build_scenario(s));
        parallel_specs.push_back(parallel.back().scenario);
    }
    const BatchReport parallel_report =
        ScenarioRunner(ScenarioRunner::Options{threads}).run(parallel_specs);

    report.runs = 2 * specs.size();

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SpecVerdict v;
        v.serial_fingerprint = serial_report.results[i].fingerprint;
        v.parallel_fingerprint = parallel_report.results[i].fingerprint;
        absorb_leg(v, serial_report.results[i], *serial[i].oracle);
        absorb_leg(v, parallel_report.results[i], *parallel[i].oracle);
        v.mismatch = v.serial_fingerprint != v.parallel_fingerprint;
        report.oracle_events += serial[i].oracle->events;
        if (v.ok()) {
            continue;
        }
        if (v.sim_error) {
            ++report.sim_errors;
        }
        report.violations += v.violation_count;
        if (v.mismatch) {
            ++report.mismatches;
        }

        FuzzFailure fail;
        fail.seed = specs[i].seed;
        fail.scenario = specs[i].scenario_name();
        fail.kind = v.kind();
        fail.detail = v.detail();
        FuzzSpec repro_spec = specs[i];
        bool minimized = false;
        if (opts.minimize) {
            FuzzSpec smaller = minimize_spec(specs[i]);
            minimized = !(smaller == specs[i]);
            repro_spec = std::move(smaller);
        }
        fail.repro_json = make_repro_json(repro_spec, fail.kind, fail.detail,
                                          minimized);
        if (!opts.repro_dir.empty()) {
            fail.repro_path = opts.repro_dir + "/repro_seed" +
                              std::to_string(specs[i].seed) +
                              (specs[i].round_robin ? "_rr" : "_pp") + ".json";
            if (!sysc::write_file_atomic(fail.repro_path, fail.repro_json)) {
                fail.repro_path.clear();
            }
        }
        report.failures.push_back(std::move(fail));
    }

    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return report;
}

}  // namespace rtk::harness::fuzz
