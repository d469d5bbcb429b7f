#include "harness/fuzz_interp.hpp"

#include <algorithm>

#include "api/builder.hpp"
#include "api/error.hpp"
#include "sysc/report.hpp"

namespace rtk::harness::fuzz {

using namespace rtk::tkernel;
using sim::ExecContext;

namespace {

TMO to_tmo(std::int32_t t) {
    return t < 0 ? TMO_FEVR : static_cast<TMO>(t);
}

template <typename Vec>
bool idx_ok(const Vec& v, std::int32_t i) {
    return i >= 0 && static_cast<std::size_t>(i) < v.size();
}

}  // namespace

void instantiate_workload(Runtime& rt, const api::SystemSpec& sys,
                          const std::vector<int>& mbx_nodes,
                          std::string_view who, const std::string& what) {
    for (const int count : mbx_nodes) {
        Runtime::MbxPool pool;
        const int nodes = std::clamp(count, 1, 64);
        for (int n = 0; n < nodes; ++n) {
            pool.nodes.push_back(std::make_unique<T_MSG_PRI>());
            pool.free.push_back(pool.nodes.back().get());
        }
        rt.mbx_pools.push_back(std::move(pool));
    }
    INT max_msz = 1;
    for (const api::MbfNode& m : sys.msgbufs) {
        max_msz = std::max(max_msz, std::clamp(m.def.max_message, 1, 1 << 12));
    }
    rt.task_rt.resize(sys.tasks.size());
    for (std::size_t i = 0; i < rt.task_rt.size(); ++i) {
        auto& trt = rt.task_rt[i];
        trt.snd_buf.assign(static_cast<std::size_t>(max_msz), 0);
        for (std::size_t b = 0; b < trt.snd_buf.size(); ++b) {
            trt.snd_buf[b] = static_cast<std::uint8_t>(0x40u + i + b);
        }
        trt.rcv_buf.assign(static_cast<std::size_t>(max_msz), 0);
    }

    // The interpreter addresses objects by raw ID, so ownership goes
    // straight back to the kernel.
    api::System system(*rt.tk);
    auto handles = api::instantiate(system, sys);
    if (!handles.ok()) {
        sysc::report(sysc::Severity::fatal, who,
                     what + " instantiation failed: " +
                         api::er_describe(handles.er()));
    }
    handles->release_all();
    for (const auto& h : handles->tasks) rt.tasks.push_back(h.id());
    for (const auto& h : handles->semaphores) rt.sems.push_back(h.id());
    for (const auto& h : handles->eventflags) rt.flgs.push_back(h.id());
    for (const auto& h : handles->mutexes) rt.mtxs.push_back(h.id());
    for (const auto& h : handles->mailboxes) rt.mbxs.push_back(h.id());
    for (const auto& h : handles->msgbufs) rt.mbfs.push_back(h.id());
    for (const auto& h : handles->fixed_pools) rt.mpfs.push_back(h.id());
    for (const auto& h : handles->var_pools) rt.mpls.push_back(h.id());
    for (const auto& h : handles->cyclics) rt.cycs.push_back(h.id());
    for (const auto& h : handles->alarms) rt.alms.push_back(h.id());
    rt.intvecs = handles->interrupts;
}

/// Execute one op. `self` is the invoking task's spec index, -1 in
/// handler context. Handlers never block: their timeouts collapse to
/// TMO_POL and task-state ops (held blocks, message nodes) are skipped.
void exec_op(Runtime& rt, int self, const corpus::Op& op, bool handler) {
    TKernel& tk = *rt.tk;
    const ExecContext ctx = handler ? ExecContext::handler : ExecContext::task;
    const auto tmo = [&](std::int32_t t) { return handler ? TMO_POL : to_tmo(t); };
    switch (op.kind) {
        case OpKind::compute: {
            const std::uint64_t units =
                static_cast<std::uint64_t>(std::clamp(op.a, 1, 5000));
            tk.sim().SIM_WaitUnits(units, ctx);
            return;
        }
        case OpKind::delay:
            if (!handler) {
                tk.tk_dly_tsk(static_cast<RELTIM>(std::clamp(op.a, 1, 50)));
            }
            return;
        case OpKind::sleep:
            if (!handler) {
                tk.tk_slp_tsk(to_tmo(op.a));
            }
            return;
        case OpKind::wakeup:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_wup_tsk(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::can_wup:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_can_wup(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::rel_wai:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_rel_wai(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::suspend:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_sus_tsk(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::resume:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_rsm_tsk(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::frsm:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_frsm_tsk(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::chg_pri:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_chg_pri(rt.tasks[static_cast<std::size_t>(op.a)],
                              std::clamp(op.b, 0, max_priority));
            }
            return;
        case OpKind::rot_rdq:
            tk.tk_rot_rdq(std::clamp(op.a, 0, max_priority));
            return;
        case OpKind::sta_tsk:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_sta_tsk(rt.tasks[static_cast<std::size_t>(op.a)], op.b);
            }
            return;
        case OpKind::ter_tsk:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_ter_tsk(rt.tasks[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::ext_tsk:
            if (!handler) {
                tk.tk_ext_tsk();  // does not return
            }
            return;
        case OpKind::sem_wait:
            if (idx_ok(rt.sems, op.a)) {
                tk.tk_wai_sem(rt.sems[static_cast<std::size_t>(op.a)],
                              std::clamp(op.b, 1, 1 << 16), tmo(op.c));
            }
            return;
        case OpKind::sem_signal:
            if (idx_ok(rt.sems, op.a)) {
                tk.tk_sig_sem(rt.sems[static_cast<std::size_t>(op.a)],
                              std::clamp(op.b, 1, 1 << 16));
            }
            return;
        case OpKind::flg_set:
            if (idx_ok(rt.flgs, op.a)) {
                tk.tk_set_flg(rt.flgs[static_cast<std::size_t>(op.a)],
                              static_cast<UINT>(op.b));
            }
            return;
        case OpKind::flg_clr:
            if (idx_ok(rt.flgs, op.a)) {
                tk.tk_clr_flg(rt.flgs[static_cast<std::size_t>(op.a)],
                              static_cast<UINT>(op.b));
            }
            return;
        case OpKind::flg_wait:
            if (idx_ok(rt.flgs, op.a)) {
                static constexpr UINT modes[6] = {
                    TWF_ANDW,           TWF_ORW,
                    TWF_ANDW | TWF_CLR, TWF_ORW | TWF_CLR,
                    TWF_ANDW | TWF_BITCLR, TWF_ORW | TWF_BITCLR,
                };
                UINT got = 0;
                tk.tk_wai_flg(rt.flgs[static_cast<std::size_t>(op.a)],
                              static_cast<UINT>(op.b == 0 ? 1 : op.b),
                              modes[static_cast<std::size_t>(std::clamp(op.c, 0, 5))],
                              &got, tmo(op.d));
            }
            return;
        case OpKind::mtx_lock:
            if (idx_ok(rt.mtxs, op.a)) {
                tk.tk_loc_mtx(rt.mtxs[static_cast<std::size_t>(op.a)], tmo(op.b));
            }
            return;
        case OpKind::mtx_unlock:
            if (idx_ok(rt.mtxs, op.a)) {
                tk.tk_unl_mtx(rt.mtxs[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::mbx_send:
            if (idx_ok(rt.mbxs, op.a) && idx_ok(rt.mbx_pools, op.a)) {
                auto& pool = rt.mbx_pools[static_cast<std::size_t>(op.a)];
                if (!pool.free.empty()) {
                    T_MSG_PRI* node = pool.free.back();
                    pool.free.pop_back();
                    node->msgpri = std::clamp(op.b, 1, max_priority);
                    tk.tk_snd_mbx(rt.mbxs[static_cast<std::size_t>(op.a)], node);
                }
            }
            return;
        case OpKind::mbx_recv:
            if (!handler && self >= 0 && idx_ok(rt.mbxs, op.a) &&
                idx_ok(rt.mbx_pools, op.a)) {
                T_MSG* msg = nullptr;
                if (tk.tk_rcv_mbx(rt.mbxs[static_cast<std::size_t>(op.a)], &msg,
                                  tmo(op.b)) == E_OK &&
                    msg != nullptr) {
                    rt.mbx_pools[static_cast<std::size_t>(op.a)].free.push_back(
                        static_cast<T_MSG_PRI*>(msg));
                }
            }
            return;
        case OpKind::mbf_send:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mbfs, op.a)) {
                auto& buf = rt.task_rt[static_cast<std::size_t>(self)].snd_buf;
                const INT sz =
                    std::clamp(op.b, 1, static_cast<INT>(buf.size()));
                tk.tk_snd_mbf(rt.mbfs[static_cast<std::size_t>(op.a)], buf.data(),
                              sz, tmo(op.c));
            }
            return;
        case OpKind::mbf_recv:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mbfs, op.a)) {
                auto& buf = rt.task_rt[static_cast<std::size_t>(self)].rcv_buf;
                tk.tk_rcv_mbf(rt.mbfs[static_cast<std::size_t>(op.a)], buf.data(),
                              tmo(op.b));
            }
            return;
        case OpKind::mpf_get:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mpfs, op.a)) {
                void* blk = nullptr;
                if (tk.tk_get_mpf(rt.mpfs[static_cast<std::size_t>(op.a)], &blk,
                                  tmo(op.b)) == E_OK) {
                    rt.task_rt[static_cast<std::size_t>(self)].mpf_held.emplace_back(
                        static_cast<std::size_t>(op.a), blk);
                }
            }
            return;
        case OpKind::mpf_rel:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mpfs, op.a)) {
                auto& held = rt.task_rt[static_cast<std::size_t>(self)].mpf_held;
                auto it = std::find_if(held.begin(), held.end(), [&](const auto& h) {
                    return h.first == static_cast<std::size_t>(op.a);
                });
                if (it != held.end()) {
                    tk.tk_rel_mpf(rt.mpfs[it->first], it->second);
                    held.erase(it);
                }
            }
            return;
        case OpKind::mpl_get:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mpls, op.a)) {
                void* blk = nullptr;
                if (tk.tk_get_mpl(rt.mpls[static_cast<std::size_t>(op.a)],
                                  std::clamp(op.b, 1, 4096), &blk,
                                  tmo(op.c)) == E_OK) {
                    rt.task_rt[static_cast<std::size_t>(self)].mpl_held.emplace_back(
                        static_cast<std::size_t>(op.a), blk);
                }
            }
            return;
        case OpKind::mpl_rel:
            if (!handler && rt.task_rt_ok(self) && idx_ok(rt.mpls, op.a)) {
                auto& held = rt.task_rt[static_cast<std::size_t>(self)].mpl_held;
                auto it = std::find_if(held.begin(), held.end(), [&](const auto& h) {
                    return h.first == static_cast<std::size_t>(op.a);
                });
                if (it != held.end()) {
                    tk.tk_rel_mpl(rt.mpls[it->first], it->second);
                    held.erase(it);
                }
            }
            return;
        case OpKind::cyc_start:
            if (idx_ok(rt.cycs, op.a)) {
                tk.tk_sta_cyc(rt.cycs[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::cyc_stop:
            if (idx_ok(rt.cycs, op.a)) {
                tk.tk_stp_cyc(rt.cycs[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::alm_start:
            if (idx_ok(rt.alms, op.a)) {
                tk.tk_sta_alm(rt.alms[static_cast<std::size_t>(op.a)],
                              static_cast<RELTIM>(std::clamp(op.b, 1, 200)));
            }
            return;
        case OpKind::alm_stop:
            if (idx_ok(rt.alms, op.a)) {
                tk.tk_stp_alm(rt.alms[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::raise_int:
            if (idx_ok(rt.intvecs, op.a)) {
                tk.trigger_interrupt(rt.intvecs[static_cast<std::size_t>(op.a)]);
            }
            return;
        case OpKind::dsp_block: {
            // µ-ITRON critical section: dispatch disabled around a burst
            // of work (E_CTX from handlers, harmlessly).
            if (tk.tk_dis_dsp() == E_OK) {
                tk.sim().SIM_WaitUnits(
                    static_cast<std::uint64_t>(std::clamp(op.a, 1, 500)), ctx);
                tk.tk_ena_dsp();
            }
            return;
        }
        case OpKind::ras_tex:
            if (rt.task_idx_ok(op.a)) {
                tk.tk_ras_tex(rt.tasks[static_cast<std::size_t>(op.a)],
                              static_cast<UINT>(op.b == 0 ? 1 : op.b));
            }
            return;
        case OpKind::ref_poll: {
            switch (std::clamp(op.a, 0, 7)) {
                case 0: {
                    T_RSYS r;
                    tk.tk_ref_sys(&r);
                    return;
                }
                case 1: {
                    if (!rt.tasks.empty()) {
                        T_RTSK r;
                        tk.tk_ref_tsk(rt.tasks.front(), &r);
                    }
                    return;
                }
                case 2: {
                    if (!rt.sems.empty()) {
                        T_RSEM r;
                        tk.tk_ref_sem(rt.sems.front(), &r);
                    }
                    return;
                }
                case 3: {
                    if (!rt.flgs.empty()) {
                        T_RFLG r;
                        tk.tk_ref_flg(rt.flgs.front(), &r);
                    }
                    return;
                }
                case 4: {
                    if (!rt.mtxs.empty()) {
                        T_RMTX r;
                        tk.tk_ref_mtx(rt.mtxs.front(), &r);
                    }
                    return;
                }
                case 5: {
                    if (!rt.mbfs.empty()) {
                        T_RMBF r;
                        tk.tk_ref_mbf(rt.mbfs.front(), &r);
                    }
                    return;
                }
                case 6: {
                    SYSTIM t = 0;
                    tk.tk_get_tim(&t);
                    tk.tk_get_otm(&t);
                    return;
                }
                default: {
                    T_RVER r;
                    tk.tk_ref_ver(&r);
                    return;
                }
            }
        }
    }
}

void run_program(const std::shared_ptr<Runtime>& rt, int self,
                 const std::vector<corpus::Op>& ops, bool handler) {
    for (const corpus::Op& op : ops) {
        // Ops execute from a copy so a before_op rewrite (argument
        // corruption) never leaks into later iterations of the program.
        corpus::Op cur = op;
        if (rt->hooks.before_op) {
            rt->hooks.before_op(rt->op_index, cur, handler);
        }
        ++rt->op_index;
        exec_op(*rt, self, cur, handler);
    }
}

}  // namespace rtk::harness::fuzz
