// Core of the T-Kernel/OS model: construction, the central module of
// Fig 3 (Boot / Thread Dispatch / Interrupt Dispatch), service-call
// plumbing, blocking/release helpers and the timer machinery.
#include "tkernel/kernel.hpp"

#include <cstdint>
#include <exception>

#include "sysc/report.hpp"

namespace rtk::tkernel {

using sim::ExecContext;
using sim::ThreadKind;
using sysc::Time;

namespace {
/// T-THREAD priority bands: handlers outrank every task; the tick handler
/// outranks everything (it models the timer interrupt).
constexpr sim::Priority tick_thread_priority = -1'000'000;
constexpr sim::Priority external_int_priority_base = -1'000;
constexpr sim::Priority time_event_priority = -100;
}  // namespace

TKernel::TKernel(sysc::Kernel& sysc_kernel) : TKernel(sysc_kernel, Config{}) {}

TKernel::TKernel(sysc::Kernel& sysc_kernel, Config cfg)
    : sysc_(&sysc_kernel), cfg_(cfg) {
    sim::SimApi::Config sc;
    sc.quantum = cfg_.tick;
    sc.dispatch_cost = cfg_.dispatch_cost;
    sc.dispatch_energy_nj = cfg_.dispatch_energy_nj;
    sc.service_call_atomicity = cfg_.service_call_atomicity;
    sc.delayed_dispatching = cfg_.delayed_dispatching;
    sc.nested_interrupts = cfg_.nested_interrupts;
    sc.record_gantt = cfg_.record_gantt;
    if (cfg_.policy == SchedPolicy::round_robin) {
        sched_ = std::make_unique<sim::RoundRobinScheduler>();
    } else {
        sched_ = std::make_unique<sim::PriorityPreemptiveScheduler>();
    }
    api_ = std::make_unique<sim::SimApi>(*sysc_, *sched_, sc);

    // The tick handler T-THREAD: "Thread Dispatch activates the timer
    // handler inside the T-Kernel/OS" (paper Fig 3).
    tick_thread_ = &api_->SIM_CreateThread(
        "tkernel.tick", ThreadKind::interrupt_handler, tick_thread_priority, [this] {
            api_->SIM_WaitUnits(cfg_.timer_handler_cost_units, ExecContext::handler);
            timer_handler();
        });
}

TKernel::~TKernel() {
    // Kill the central-module processes first: they reference this object
    // and possibly external tick/IRQ events that may die before the
    // simulation kernel does.
    for (sysc::Process* p : central_procs_) {
        p->kill();
    }
}

// ---- boot -------------------------------------------------------------------

void TKernel::set_user_main(std::function<void()> usermain) {
    usermain_ = std::move(usermain);
}

void TKernel::power_on() {
    if (boot_scheduled_) {
        sysc::report(sysc::Severity::warning, "tkernel", "power_on() called twice");
        return;
    }
    boot_scheduled_ = true;
    auto& k = *sysc_;
    // Boot module: "responsible for kernel startup sequence upon receiving
    // H/W reset, i.e. initializing the kernel internal state and starting
    // the initialization task, that will consequently call the user main
    // entry to create & start tasks, handlers and allocate application
    // resources" (paper Fig 3).
    central_procs_.push_back(&k.spawn("tkernel.boot", [this] {
        booted_ = true;
        T_CTSK ct;
        ct.name = "init";
        ct.itskpri = cfg_.init_task_priority;
        ct.task = [this](INT, void*) {
            if (usermain_) {
                usermain_();
            }
        };
        init_task_id_ = tk_cre_tsk(ct);
        tk_sta_tsk(init_task_id_, 0);
    }));
    // Thread Dispatch module: sensitive to the system tick -- either the
    // internal timer or the BFM real-time clock (paper §5.1).
    central_procs_.push_back(&k.spawn("tkernel.thread_dispatch", [this] {
        for (;;) {
            if (external_tick_) {
                sysc::wait(*external_tick_);
            } else {
                sysc::wait(cfg_.tick);
            }
            api_->SIM_RaiseInterrupt(*tick_thread_);
        }
    }));
}

sysc::Event& TKernel::external_tick() {
    if (!external_tick_) {
        external_tick_.emplace(*sysc_, "tkernel.external_tick");
    }
    return *external_tick_;
}

void TKernel::attach_reset(sysc::Event& reset_release) {
    central_procs_.push_back(
        &sysc_->spawn("tkernel.reset_wire", [this, &reset_release] {
            sysc::wait(reset_release);
            power_on();
        }));
}

void TKernel::attach_interrupt_line(sysc::Event& irq, UINT intno) {
    // Interrupt Dispatch module: "identifies and responds to external
    // interrupts by calling a simulation API to notify their dedicated
    // interrupt service routines" (paper Fig 3).
    central_procs_.push_back(&sysc_->spawn(
        "tkernel.int_dispatch." + std::to_string(intno), [this, &irq, intno] {
            for (;;) {
                sysc::wait(irq);
                trigger_interrupt(intno);
            }
        }));
}

// ---- service-call plumbing ------------------------------------------------------

TKernel::ServiceSection::ServiceSection(TKernel& k, std::uint64_t extra_units)
    : k_(k), thread_(k.api_->self_or_null()) {
    if (thread_ != nullptr) {
        k_.api_->SIM_EnterService();
        active_ = true;
        k_.api_->SIM_WaitUnits(k_.cfg_.service_cost_units + extra_units,
                               ExecContext::service_call);
        // Service-call boundaries are the task-exception delivery points.
        if (!thread_->is_handler()) {
            if (auto* me = static_cast<TCB*>(thread_->user_data())) {
                k_.deliver_tex(*me);
            }
        }
    }
}

TKernel::ServiceSection::~ServiceSection() noexcept(false) {
    if (!active_) {
        return;
    }
    if (std::uncaught_exceptions() > 0) {
        active_ = false;
        k_.api_->SIM_AbandonService(*thread_);
    } else {
        end();
    }
}

void TKernel::ServiceSection::end() {
    if (active_) {
        active_ = false;
        k_.api_->SIM_ExitService();
    }
}

bool TKernel::in_task_context() const {
    sim::TThread* t = api_->self_or_null();
    return t != nullptr && !t->is_handler();
}

bool TKernel::in_handler_context() const {
    sim::TThread* t = api_->self_or_null();
    return t != nullptr && t->is_handler();
}

TCB* TKernel::current_tcb() const {
    sim::TThread* t = api_->self_or_null();
    if (t == nullptr || t->is_handler()) {
        return nullptr;
    }
    return static_cast<TCB*>(t->user_data());
}

TCB* TKernel::tcb_of(ID tskid) const {
    if (tskid == TSK_SELF) {
        return current_tcb();
    }
    return tasks_.find(tskid);
}

ER TKernel::check_task_id(ID tskid, TCB*& out) const {
    if (tskid < 0) {
        return E_ID;
    }
    out = tcb_of(tskid);
    if (out == nullptr) {
        return tskid == TSK_SELF ? E_CTX : E_NOEXS;
    }
    return E_OK;
}

// ---- blocking / release ----------------------------------------------------------

ER TKernel::block_current(TCB& me, WaitKind kind, ID obj, WaitQueue* queue,
                          TMO tmout, ER timeout_result, ServiceSection& svc) {
    me.wait_kind = kind;
    me.wait_obj = obj;
    me.wait_result = E_OK;
    me.timeout_result = timeout_result;
    if (queue != nullptr) {
        queue->enqueue(me);
    }
    if (tmout != TMO_FEVR) {
        arm_task_timeout(me, tmout);
    }
    // Block while still inside the atomic service section: leaving it
    // first would open a preemption point between enqueue and sleep in
    // which a releaser could run and the wakeup would be lost. A sleeping
    // task has no preemption points, so holding the section is harmless;
    // the guard is released by the caller's epilogue after the wake.
    (void)svc;
    api_->SIM_Sleep();
    cancel_task_timeout(me);
    me.wait_kind = WaitKind::none;
    me.wait_obj = 0;
    return me.wait_result;
}

void TKernel::release_wait(TCB& tcb, ER er) {
    cancel_task_timeout(tcb);
    if (tcb.queue != nullptr) {
        tcb.queue->remove(tcb);
    }
    // Clear the wait factor NOW: the released task may not run for a
    // while, and a second releaser (tk_rel_wai, another signal) must see
    // it as no-longer-waiting.
    tcb.wait_kind = WaitKind::none;
    tcb.wait_obj = 0;
    tcb.wait_result = er;
    api_->SIM_WakeUp(*tcb.thread);
}

void TKernel::flush_waiters(WaitQueue& queue) {
    while (TCB* w = queue.front()) {
        release_wait(*w, E_DLT);
    }
}

void TKernel::reevaluate_waiters(WaitKind kind, ID obj) {
    // An involuntary removal (timeout, tk_rel_wai, tk_ter_tsk, task
    // exception) or a tk_chg_pri reposition may have changed the head of
    // a wait queue whose release condition depends on queue order: the
    // new head can be satisfiable right now, and no future signal would
    // notice (signals only run their pass when resources arrive).
    switch (kind) {
        case WaitKind::semaphore:
            if (Semaphore* s = sems_.find(obj)) {
                sem_wake_pass(*s);
            }
            break;
        case WaitKind::msgbuf_snd:
        case WaitKind::msgbuf_rcv:
            if (MessageBuffer* m = mbfs_.find(obj)) {
                mbf_pump(*m);
            }
            break;
        case WaitKind::mempool_fixed:
            if (FixedPool* p = mpfs_.find(obj)) {
                mpf_serve(*p);
            }
            break;
        case WaitKind::mempool_var:
            if (VariablePool* p = mpls_.find(obj)) {
                mpl_serve(*p);
            }
            break;
        default:
            // Eventflags evaluate each waiter independently of queue
            // order; mailbox receivers only wait while no message is
            // queued; mutex hand-off happens at unlock only.
            break;
    }
}

// ---- timer machinery ---------------------------------------------------------------

SYSTIM TKernel::otm_ms() const {
    return (cfg_.tick * tick_count_).picoseconds() / 1'000'000'000ull;
}

SYSTIM TKernel::deadline_otm(RELTIM ms) const {
    // A relative timeout expires at the first tick at least `ms` later.
    return otm_ms() + (ms == 0 ? 1 : ms);
}

void TKernel::schedule_at(SYSTIM when_ms, std::uint64_t seq, std::function<void()> fire) {
    timer_queue_.schedule(when_ms, TimerEntry{seq, std::move(fire)});
}

void TKernel::arm_task_timeout(TCB& tcb, TMO tmout) {
    if (tmout <= 0) {
        return;  // TMO_FEVR handled by caller; TMO_POL never blocks
    }
    const std::uint64_t seq = ++tcb.timer_seq;
    const ID tid = tcb.id;
    schedule_at(deadline_otm(static_cast<RELTIM>(tmout)), seq, [this, tid, seq] {
        TCB* t = tasks_.find(tid);
        if (t == nullptr || t->timer_seq != seq || t->wait_kind == WaitKind::none) {
            return;  // stale entry
        }
        // A timed-out mutex waiter may deflate the owner's inherited
        // priority; remember the wait factor before clearing it.
        const WaitKind kind = t->wait_kind;
        const ID obj = t->wait_obj;
        Mutex* mtx = (kind == WaitKind::mutex) ? mtxs_.find(obj) : nullptr;
        release_wait(*t, t->timeout_result);
        if (mtx != nullptr && mtx->owner != nullptr) {
            recompute_priority(*mtx->owner);
        }
        reevaluate_waiters(kind, obj);
    });
}

void TKernel::cancel_task_timeout(TCB& tcb) {
    ++tcb.timer_seq;  // lazily invalidates any queued entry
}

void TKernel::timer_handler() {
    // Paper Fig 3: "The timer handler updates the system clock, checks for
    // cyclic, alarm events, or task resuming events in the timer queue, it
    // then calls simulation library APIs to start running a task/handler
    // or preempt the running task if a task of higher priority is ready."
    ++tick_count_;
    systim_ = static_cast<SYSTIM>(systim_base_ + static_cast<std::int64_t>(otm_ms()));
    const SYSTIM now = otm_ms();
    while (!timer_queue_.empty() && timer_queue_.next_at() <= now) {
        TimerEntry entry = timer_queue_.pop();
        entry.fire();
    }
    // Round robin: one system tick is one slice; the running task yields
    // to the FIFO's head whenever a competitor is ready (RTK-Spec I).
    if (cfg_.policy == SchedPolicy::round_robin) {
        sim::TThread* run = api_->running_task();
        if (run != nullptr && api_->scheduler().ready_count() > 0) {
            api_->SIM_RequestPreempt(*run);
        }
    }
    // Deferred deletion of tasks that called tk_exd_tsk.
    if (!exd_pending_.empty()) {
        auto pending = std::move(exd_pending_);
        exd_pending_.clear();
        for (ID tid : pending) {
            TCB* t = tasks_.find(tid);
            if (t != nullptr && t->thread->state() == sim::ThreadState::dormant) {
                api_->SIM_DeleteThread(*t->thread);
                tasks_.erase(tid);
            }
        }
    }
}

// ---- sanctioned fault-injection hooks ----------------------------------------

namespace {
// Bit flips stay inside the field's width; signed fields flip through
// their unsigned image so no flip is UB, only nonsense the kernel's own
// range checks then have to survive.
std::uint32_t flip_u32(std::uint32_t v, unsigned bit) {
    return v ^ (1u << (bit % 32));
}
INT flip_int(INT v, unsigned bit) {
    return static_cast<INT>(flip_u32(static_cast<std::uint32_t>(v), bit));
}
}  // namespace

bool TKernel::fault_flip_task_field(ID tskid, FaultTaskField field, unsigned bit) {
    TCB* t = tasks_.find(tskid);
    if (t == nullptr) {
        return false;
    }
    switch (field) {
        case FaultTaskField::wakeup_count:
            t->wakeup_count ^= 1ull << (bit % 64);
            return true;
        case FaultTaskField::texptn_pending:
            t->texptn_pending = flip_u32(t->texptn_pending, bit);
            return true;
        case FaultTaskField::wai_ptn:
            t->wai_ptn = flip_u32(t->wai_ptn, bit);
            return true;
        case FaultTaskField::ret_ptn:
            t->ret_ptn = flip_u32(t->ret_ptn, bit);
            return true;
        case FaultTaskField::req_count:
            t->req_count = flip_int(t->req_count, bit);
            return true;
        case FaultTaskField::stacd:
            t->stacd = flip_int(t->stacd, bit);
            return true;
    }
    return false;
}

bool TKernel::fault_flip_object_field(FaultObjectField field, ID objid,
                                      unsigned bit) {
    switch (field) {
        case FaultObjectField::sem_count: {
            Semaphore* s = sems_.find(objid);
            if (s == nullptr) {
                return false;
            }
            s->count = flip_int(s->count, bit);
            return true;
        }
        case FaultObjectField::sem_max: {
            Semaphore* s = sems_.find(objid);
            if (s == nullptr) {
                return false;
            }
            s->maxsem = flip_int(s->maxsem, bit);
            return true;
        }
        case FaultObjectField::flg_pattern: {
            EventFlag* f = flgs_.find(objid);
            if (f == nullptr) {
                return false;
            }
            f->pattern = flip_u32(f->pattern, bit);
            return true;
        }
    }
    return false;
}

bool TKernel::fault_skew_next_timer(std::int32_t delta_ms) {
    if (timer_queue_.empty()) {
        return false;
    }
    const SYSTIM at = timer_queue_.next_at();
    TimerEntry entry = timer_queue_.pop();
    const std::int64_t skewed =
        static_cast<std::int64_t>(at) + static_cast<std::int64_t>(delta_ms);
    timer_queue_.schedule(skewed < 0 ? 0 : static_cast<SYSTIM>(skewed),
                          std::move(entry));
    return true;
}

}  // namespace rtk::tkernel
