#include "harness/corpus_bridge.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "harness/simulation.hpp"
#include "tkernel/tkernel.hpp"

namespace rtk::harness {

using namespace rtk::tkernel;
using corpus::Program;
using corpus::ScenarioFile;
using fuzz::Runtime;
using sim::ExecContext;
using sysc::Time;

namespace {

/// Copy the structural graph and attach behaviour closures per the
/// scenario's bindings. The closures capture `file` (keeping the bound
/// programs alive for the run) and the per-run interpreter Runtime.
api::SystemSpec attach_behaviours(const std::shared_ptr<Runtime>& rt,
                                  const std::shared_ptr<const ScenarioFile>& file) {
    api::SystemSpec sys = file->system;

    const std::uint64_t iter = static_cast<std::uint64_t>(
        std::clamp(file->config.iter_units, 1, 1000));
    for (std::size_t i = 0; i < sys.tasks.size(); ++i) {
        api::TaskNode& node = sys.tasks[i];
        const int self = static_cast<int>(i);
        if (const Program* prog = file->task_program(node.def.name)) {
            node.def.entry = [rt, file, self, prog, iter](INT, void*) {
                for (;;) {
                    rt->tk->sim().SIM_WaitUnits(iter, ExecContext::task);
                    fuzz::run_program(rt, self, *prog, /*handler=*/false);
                }
            };
        } else {
            // Unbound: park forever (wakeup/rel_wai from other programs
            // still make the task observable to the scheduler).
            node.def.entry = [rt](INT, void*) {
                for (;;) {
                    rt->tk->tk_slp_tsk(TMO_FEVR);
                }
            };
        }
        if (node.tex.texhdr) {
            // Replace from_json's structural placeholder with the same
            // bounded handler the fuzzer installs.
            node.tex.texhdr = [rt](UINT) {
                rt->tk->sim().SIM_WaitUnits(5, ExecContext::service_call);
            };
        }
    }

    for (api::CycNode& node : sys.cyclics) {
        const Program* prog = nullptr;
        if (auto it = file->cyclic_bindings.find(node.def.name);
            it != file->cyclic_bindings.end()) {
            prog = file->find_program(it->second);
        }
        node.def.handler = [rt, file, prog](void*) {
            if (prog != nullptr) {
                fuzz::run_program(rt, -1, *prog, /*handler=*/true);
            }
        };
    }
    for (api::AlmNode& node : sys.alarms) {
        const Program* prog = nullptr;
        if (auto it = file->alarm_bindings.find(node.def.name);
            it != file->alarm_bindings.end()) {
            prog = file->find_program(it->second);
        }
        node.def.handler = [rt, file, prog](void*) {
            if (prog != nullptr) {
                fuzz::run_program(rt, -1, *prog, /*handler=*/true);
            }
        };
    }
    for (api::IntNode& node : sys.interrupts) {
        const Program* prog = nullptr;
        if (auto it = file->interrupt_bindings.find(node.intno);
            it != file->interrupt_bindings.end()) {
            prog = file->find_program(it->second);
        }
        node.hdr = [rt, file, prog](void*) {
            if (prog != nullptr) {
                fuzz::run_program(rt, -1, *prog, /*handler=*/true);
            }
        };
    }
    return sys;
}

}  // namespace

ScenarioSpec scenario_from_corpus(const ScenarioFile& file,
                                  fuzz::WorkloadHooks hooks) {
    auto file_ptr = std::make_shared<const ScenarioFile>(file);
    auto hooks_ptr = std::make_shared<const fuzz::WorkloadHooks>(std::move(hooks));

    ScenarioSpec sc;
    sc.name = file.name;
    sc.seed = file.seed;
    sc.duration = Time::us(static_cast<std::uint64_t>(file.duration_ms) * 1000);
    sc.config.tick = Time::us(file.config.tick_us);
    sc.config.policy = file.config.round_robin
                           ? TKernel::SchedPolicy::round_robin
                           : TKernel::SchedPolicy::priority_preemptive;
    sc.delta_budget = file.config.delta_budget != 0
                          ? file.config.delta_budget
                          : corpus_default_delta_budget;
    sc.workload = [file_ptr, hooks_ptr](Simulation& sim, const ScenarioSpec&) {
        auto rt = std::make_shared<Runtime>();
        rt->tk = &sim.os();
        rt->hooks = *hooks_ptr;
        sim.retain(rt);
        sim.set_user_main([rt, file_ptr] {
            fuzz::instantiate_workload(
                *rt, attach_behaviours(rt, file_ptr),
                std::vector<int>(file_ptr->system.mailboxes.size(),
                                 file_ptr->config.mbx_nodes),
                "corpus", "scenario '" + file_ptr->name + "'");
        });
    };
    return sc;
}

CorpusRunReport run_corpus_scenario(const ScenarioFile& file) {
    ScenarioSpec sc = scenario_from_corpus(file);
    sc.trace.enabled = true;  // checks read trace::Metrics
    CorpusRunReport report;
    report.result = run_scenario(sc);
    report.checks = corpus::evaluate_checks(file, report.result.metrics);
    report.checks_passed = corpus::all_passed(report.checks);
    return report;
}

fuzz::FuzzSpec corpus_to_fuzz_spec(const ScenarioFile& file) {
    fuzz::FuzzSpec spec;
    spec.seed = file.seed;
    spec.duration_ms = file.duration_ms;
    spec.tick_us = file.config.tick_us;
    spec.round_robin = file.config.round_robin;
    spec.iter_units = file.config.iter_units;

    for (const api::TaskNode& n : file.system.tasks) {
        fuzz::TaskSpec t;
        t.pri = n.def.priority;
        t.tex = static_cast<bool>(n.tex.texhdr);
        if (const Program* prog = file.task_program(n.def.name)) {
            t.ops = *prog;
        }
        spec.tasks.push_back(std::move(t));
    }
    for (const api::SemNode& n : file.system.semaphores) {
        spec.sems.push_back({n.def.initial, n.def.max, n.def.priority_queue,
                             n.def.count_order});
    }
    for (const api::FlgNode& n : file.system.eventflags) {
        spec.flgs.push_back(
            {n.def.initial, n.def.priority_queue, n.def.multi_waiter});
    }
    for (const api::MtxNode& n : file.system.mutexes) {
        spec.mtxs.push_back(
            {static_cast<std::int32_t>(n.def.protocol), n.def.ceiling});
    }
    for (const api::MbxNode& n : file.system.mailboxes) {
        spec.mbxs.push_back({n.def.priority_queue, n.def.priority_messages,
                             std::clamp(file.config.mbx_nodes, 1, 64)});
    }
    for (const api::MbfNode& n : file.system.msgbufs) {
        spec.mbfs.push_back(
            {n.def.buffer_size, n.def.max_message, n.def.priority_queue});
    }
    for (const api::MpfNode& n : file.system.fixed_pools) {
        spec.mpfs.push_back(
            {n.def.blocks, n.def.block_size, n.def.priority_queue});
    }
    for (const api::MplNode& n : file.system.var_pools) {
        spec.mpls.push_back({n.def.size, n.def.priority_queue});
    }
    for (const api::CycNode& n : file.system.cyclics) {
        fuzz::CycSpec c;
        c.period_ms = static_cast<std::int32_t>(n.def.period_ms);
        c.phase_ms = static_cast<std::int32_t>(n.def.phase_ms);
        c.autostart = n.def.autostart;
        c.phs = n.def.honor_phase;
        if (auto it = file.cyclic_bindings.find(n.def.name);
            it != file.cyclic_bindings.end()) {
            if (const Program* prog = file.find_program(it->second)) {
                c.ops = *prog;
            }
        }
        spec.cycs.push_back(std::move(c));
    }
    for (const api::AlmNode& n : file.system.alarms) {
        fuzz::AlmSpec a;
        a.start_ms = static_cast<std::int32_t>(n.start_after_ms);
        if (auto it = file.alarm_bindings.find(n.def.name);
            it != file.alarm_bindings.end()) {
            if (const Program* prog = file.find_program(it->second)) {
                a.ops = *prog;
            }
        }
        spec.alms.push_back(std::move(a));
    }
    for (const api::IntNode& n : file.system.interrupts) {
        fuzz::IntSpec v;
        v.pri = n.pri;
        if (auto it = file.interrupt_bindings.find(n.intno);
            it != file.interrupt_bindings.end()) {
            if (const Program* prog = file.find_program(it->second)) {
                v.ops = *prog;
            }
        }
        spec.ints.push_back(std::move(v));
    }
    return spec;
}

}  // namespace rtk::harness
