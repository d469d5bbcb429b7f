// RTK-Spec TRON -- the T-Kernel/OS simulation model (paper §2, Fig 1/3).
//
// "The T-Kernel/OS is a real time OS that inherits ITRON technology ...
// It employs a priority-based preemptive scheduling policy and supports
// several synchronization and communication mechanisms, including event
// flags, semaphores, mutexes, message buffers, and mailboxes. It provides
// a group of APIs for managing tasks, dynamic memory allocation (fixed
// and variable size pools), managing time (system time, cyclic, and alarm
// handling), interrupt handling, and system management."
//
// The kernel is built entirely from SIM_API programming constructs: every
// task and handler is a T-THREAD; service calls are atomic sections that
// consume service-context ETM/EEM; wait services block through SIM_Sleep
// and are released with Ew grants; the central module (Fig 3) consists of
// the Boot, Thread Dispatch (system tick -> timer handler) and Interrupt
// Dispatch processes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/sim.hpp"
#include "sysc/sysc.hpp"
#include "tkernel/objects.hpp"
#include "tkernel/tcb.hpp"
#include "tkernel/tk_types.hpp"

namespace rtk::tkernel {

class TKernel {
public:
    /// Scheduling policy of the kernel's external scheduler (paper §4:
    /// SIM_API "interacts directly with external schedulers"). The
    /// T-Kernel default is priority-based preemptive; round robin gives
    /// the RTK-Spec I style policy for differential testing.
    enum class SchedPolicy : std::uint8_t {
        priority_preemptive,
        round_robin,
    };

    struct Config {
        /// System tick driving the Thread Dispatch module; also the
        /// preemption quantum of SIM_API (paper: default resolution 1 ms).
        sysc::Time tick = sysc::Time::ms(1);
        /// ETM of the fixed per-service-call overhead, in cost-table work
        /// units (8051 machine cycles by default).
        std::uint64_t service_cost_units = 10;
        /// ETM of one timer-handler activation per tick.
        std::uint64_t timer_handler_cost_units = 20;
        /// ETM of one dispatch (context switch).
        sysc::Time dispatch_cost = sysc::Time::us(8);
        double dispatch_energy_nj = 400.0;
        /// Priority of the initial task that runs the user main.
        PRI init_task_priority = 1;
        /// SIM_API semantic toggles (ablation benches flip these).
        bool service_call_atomicity = true;
        bool delayed_dispatching = true;
        bool nested_interrupts = true;
        bool record_gantt = true;
        /// External scheduler policy driving task dispatch.
        SchedPolicy policy = SchedPolicy::priority_preemptive;
    };

    /// Context-explicit construction: builds the kernel model on
    /// `sysc_kernel`. Several TKernel stacks may coexist, one per
    /// sysc::Kernel, including on different host threads (see
    /// rtk::Simulation in src/harness).
    explicit TKernel(sysc::Kernel& sysc_kernel);
    TKernel(sysc::Kernel& sysc_kernel, Config cfg);
    ~TKernel();

    TKernel(const TKernel&) = delete;
    TKernel& operator=(const TKernel&) = delete;

    // ---- boot (paper Fig 3: Boot module) -----------------------------------
    /// The user main entry: runs inside the initial task after kernel
    /// startup; creates & starts tasks, handlers and resources.
    void set_user_main(std::function<void()> usermain);
    /// Release the H/W reset: schedules the boot sequence at current time.
    void power_on();
    /// Wire boot to an external reset signal (BFM integration).
    void attach_reset(sysc::Event& reset_release);
    /// Drive the system tick from an external source (the BFM's real-time
    /// clock, paper §5.1) instead of the internal timer: thread dispatch
    /// then waits on the returned event, which the source notifies on
    /// every tick. The event belongs to this kernel, so the dispatch
    /// process waiting on it is killed before it dies. Call before
    /// power_on(); the source period must equal config().tick.
    sysc::Event& external_tick();
    bool booted() const { return booted_; }

    // ========================================================================
    // Task management
    // ========================================================================
    ID tk_cre_tsk(const T_CTSK& pk);
    ER tk_del_tsk(ID tskid);
    ER tk_sta_tsk(ID tskid, INT stacd);
    /// Exit the invoking task (normal end of its cycle).
    [[noreturn]] void tk_ext_tsk();
    /// Exit and delete the invoking task.
    [[noreturn]] void tk_exd_tsk();
    ER tk_ter_tsk(ID tskid);
    ER tk_chg_pri(ID tskid, PRI tskpri);  ///< TSK_SELF allowed
    ER tk_rot_rdq(PRI tskpri);
    ID tk_get_tid() const;  ///< 0 in task-independent context
    ER tk_rel_wai(ID tskid);
    ER tk_slp_tsk(TMO tmout);
    ER tk_wup_tsk(ID tskid);
    INT tk_can_wup(ID tskid);  ///< >=0: cancelled count; <0: error
    ER tk_sus_tsk(ID tskid);
    ER tk_rsm_tsk(ID tskid);
    ER tk_frsm_tsk(ID tskid);
    ER tk_dly_tsk(RELTIM dlytim);
    ER tk_ref_tsk(ID tskid, T_RTSK* pk) const;

    // ---- task exception handling ----
    /// Define (or, with an empty handler, undefine) the exception handler
    /// of `tskid`. Defining enables exception handling.
    ER tk_def_tex(ID tskid, const T_DTEX& pk);
    /// Raise exception pattern bits on `tskid`. A waiting target is
    /// released with E_DISWAI; the handler runs in the target's context
    /// at its next task-level execution point (service-call boundary).
    ER tk_ras_tex(ID tskid, UINT rasptn);
    ER tk_ena_tex();  ///< invoking task only
    ER tk_dis_tex();  ///< invoking task only
    ER tk_ref_tex(ID tskid, T_RTEX* pk) const;

    // ========================================================================
    // Synchronisation & communication
    // ========================================================================
    // -- semaphore --
    ID tk_cre_sem(const T_CSEM& pk);
    ER tk_del_sem(ID semid);
    ER tk_sig_sem(ID semid, INT cnt);
    ER tk_wai_sem(ID semid, INT cnt, TMO tmout);
    ER tk_ref_sem(ID semid, T_RSEM* pk) const;

    // -- event flag --
    ID tk_cre_flg(const T_CFLG& pk);
    ER tk_del_flg(ID flgid);
    ER tk_set_flg(ID flgid, UINT setptn);
    ER tk_clr_flg(ID flgid, UINT clrptn);  ///< pattern &= clrptn
    ER tk_wai_flg(ID flgid, UINT waiptn, UINT wfmode, UINT* p_flgptn, TMO tmout);
    ER tk_ref_flg(ID flgid, T_RFLG* pk) const;

    // -- mailbox --
    ID tk_cre_mbx(const T_CMBX& pk);
    ER tk_del_mbx(ID mbxid);
    ER tk_snd_mbx(ID mbxid, T_MSG* pk_msg);
    ER tk_rcv_mbx(ID mbxid, T_MSG** ppk_msg, TMO tmout);
    ER tk_ref_mbx(ID mbxid, T_RMBX* pk) const;

    // -- mutex --
    ID tk_cre_mtx(const T_CMTX& pk);
    ER tk_del_mtx(ID mtxid);
    ER tk_loc_mtx(ID mtxid, TMO tmout);
    ER tk_unl_mtx(ID mtxid);
    ER tk_ref_mtx(ID mtxid, T_RMTX* pk) const;

    // -- message buffer --
    ID tk_cre_mbf(const T_CMBF& pk);
    ER tk_del_mbf(ID mbfid);
    ER tk_snd_mbf(ID mbfid, const void* msg, INT msgsz, TMO tmout);
    /// Returns received size (>=0) or error (<0).
    INT tk_rcv_mbf(ID mbfid, void* msg, TMO tmout);
    ER tk_ref_mbf(ID mbfid, T_RMBF* pk) const;

    // ========================================================================
    // Memory pools
    // ========================================================================
    ID tk_cre_mpf(const T_CMPF& pk);
    ER tk_del_mpf(ID mpfid);
    ER tk_get_mpf(ID mpfid, void** p_blf, TMO tmout);
    ER tk_rel_mpf(ID mpfid, void* blf);
    ER tk_ref_mpf(ID mpfid, T_RMPF* pk) const;

    ID tk_cre_mpl(const T_CMPL& pk);
    ER tk_del_mpl(ID mplid);
    ER tk_get_mpl(ID mplid, INT blksz, void** p_blk, TMO tmout);
    ER tk_rel_mpl(ID mplid, void* blk);
    ER tk_ref_mpl(ID mplid, T_RMPL* pk) const;

    // ========================================================================
    // Time management
    // ========================================================================
    ER tk_set_tim(SYSTIM tim);
    ER tk_get_tim(SYSTIM* tim) const;
    ER tk_get_otm(SYSTIM* tim) const;  ///< operating time since boot

    ID tk_cre_cyc(const T_CCYC& pk);
    ER tk_del_cyc(ID cycid);
    ER tk_sta_cyc(ID cycid);
    ER tk_stp_cyc(ID cycid);
    ER tk_ref_cyc(ID cycid, T_RCYC* pk) const;

    ID tk_cre_alm(const T_CALM& pk);
    ER tk_del_alm(ID almid);
    ER tk_sta_alm(ID almid, RELTIM almtim);
    ER tk_stp_alm(ID almid);
    ER tk_ref_alm(ID almid, T_RALM* pk) const;

    // ========================================================================
    // Interrupt management (paper Fig 3: Interrupt Dispatch module)
    // ========================================================================
    /// Define the handler for external interrupt `intno`.
    ER tk_def_int(UINT intno, const T_DINT& pk);
    ER tk_undef_int(UINT intno);
    /// Deliver external interrupt `intno` (called by the BFM interrupt
    /// controller or test drivers).
    ER trigger_interrupt(UINT intno);
    ER enable_int(UINT intno);
    ER disable_int(UINT intno);
    /// Wire an external IRQ event source to vector `intno`: the Interrupt
    /// Dispatch module (Fig 3) identifies and responds to it.
    void attach_interrupt_line(sysc::Event& irq, UINT intno);

    // ========================================================================
    // System management
    // ========================================================================
    ER tk_ref_ver(T_RVER* pk) const;
    ER tk_ref_sys(T_RSYS* pk) const;
    ER tk_dis_dsp();
    ER tk_ena_dsp();

    // ---- introspection for T-Kernel/DS, tests and benches -------------------
    /// The simulation kernel this model is built on.
    sysc::Kernel& kernel() { return *sysc_; }
    const sysc::Kernel& kernel() const { return *sysc_; }
    sim::SimApi& sim() { return *api_; }
    const sim::SimApi& sim() const { return *api_; }
    const Config& config() const { return cfg_; }
    SYSTIM systim() const { return systim_; }
    std::uint64_t tick_count() const { return tick_count_; }

    const Registry<TCB>& tasks() const { return tasks_; }
    const Registry<Semaphore>& semaphores() const { return sems_; }
    const Registry<EventFlag>& eventflags() const { return flgs_; }
    const Registry<Mailbox>& mailboxes() const { return mbxs_; }
    const Registry<Mutex>& mutexes() const { return mtxs_; }
    const Registry<MessageBuffer>& message_buffers() const { return mbfs_; }
    const Registry<FixedPool>& fixed_pools() const { return mpfs_; }
    const Registry<VariablePool>& variable_pools() const { return mpls_; }
    const Registry<CyclicHandler>& cyclics() const { return cycs_; }
    const Registry<AlarmHandler>& alarms() const { return alms_; }
    const std::map<UINT, InterruptVector>& interrupt_vectors() const { return ints_; }

    /// TCB of the invoking task; nullptr in task-independent context.
    TCB* current_tcb() const;
    TCB* find_task(ID tskid) const { return tasks_.find(tskid); }

    // ========================================================================
    // Sanctioned fault-injection hooks (rtk::harness::fault)
    // ========================================================================
    // The observer contract (sim/observer.hpp) forbids calling service
    // entry points from callbacks, so the fault injector gets these
    // explicit mutation hooks instead: each one flips plain bookkeeping
    // state and returns without scheduling, blocking or dispatching --
    // the corrupted value takes effect when the regular machinery next
    // reads it. Only fields whose corruption cannot index out of bounds
    // are exposed (no priorities, no pointers, no buffer sizes).

    /// Plain TCB bookkeeping fields safe to corrupt in place.
    enum class FaultTaskField : std::uint8_t {
        wakeup_count,    ///< queued tk_wup_tsk requests
        texptn_pending,  ///< raised-but-undelivered exception bits
        wai_ptn,         ///< eventflag: awaited pattern
        ret_ptn,         ///< eventflag: pattern at release
        req_count,       ///< semaphore: requested count
        stacd,           ///< start code passed by tk_sta_tsk
    };
    /// Plain kernel-object fields safe to corrupt in place.
    enum class FaultObjectField : std::uint8_t {
        sem_count,    ///< Semaphore::count
        sem_max,      ///< Semaphore::maxsem
        flg_pattern,  ///< EventFlag::pattern
    };

    /// Flip bit `bit` (masked to the field width) of `field` in task
    /// `tskid`. Returns false when the task does not exist.
    bool fault_flip_task_field(ID tskid, FaultTaskField field, unsigned bit);
    /// Flip bit `bit` of `field` in object `objid` of the matching class.
    /// Returns false when the object does not exist.
    bool fault_flip_object_field(FaultObjectField field, ID objid, unsigned bit);
    /// Skew the earliest timer-queue entry (timeout / cyclic / alarm
    /// firing) by `delta_ms`; an entry skewed into the past fires on the
    /// next tick. Returns false when the queue is empty.
    bool fault_skew_next_timer(std::int32_t delta_ms);

private:
    friend class ServiceSection;

    // ---- service-call plumbing ----
    /// Enter/exit one atomic service call: consumes the service ETM.
    class ServiceSection {
    public:
        ServiceSection(TKernel& k, std::uint64_t extra_units = 0);
        /// Exception-safe: abandons the section (depth decrement only)
        /// when destroyed during stack unwind -- running preemption
        /// checks while a thread is being killed or exiting would
        /// re-suspend a coroutine that is mid-unwind.
        ///
        /// noexcept(false): the end-of-section preemption check may park
        /// the task (deferred preemption lands at the service boundary),
        /// and a parked task may be killed by tk_ter_tsk -- the resulting
        /// CoroutineKilled must unwind through this destructor.
        ~ServiceSection() noexcept(false);
        /// Leave the atomic section early (before blocking).
        void end();
        ServiceSection(const ServiceSection&) = delete;
        ServiceSection& operator=(const ServiceSection&) = delete;

    private:
        TKernel& k_;
        sim::TThread* thread_ = nullptr;
        bool active_ = false;
    };

    bool in_task_context() const;
    bool in_handler_context() const;

    /// Block the current task on `queue` (nullptr for sleep/delay).
    /// Returns the wait result set by the releasing party.
    ER block_current(TCB& me, WaitKind kind, ID obj, WaitQueue* queue, TMO tmout,
                     ER timeout_result, ServiceSection& svc);
    /// Release `tcb` from its wait with result `er`.
    void release_wait(TCB& tcb, ER er);
    /// Release every waiter of a deleted object with E_DLT.
    void flush_waiters(WaitQueue& queue);
    /// Re-run the wake-up pass of the object a waiter was involuntarily
    /// removed from (timeout, tk_rel_wai, tk_ter_tsk, task exception) or
    /// repositioned in (tk_chg_pri): the removal/reorder may expose a
    /// now-satisfiable head waiter that no future signal would serve.
    void reevaluate_waiters(WaitKind kind, ID obj);

    // ---- timer machinery (Thread Dispatch / timer handler, Fig 3) ----
    struct TimerEntry {
        std::uint64_t seq;
        std::function<void()> fire;
    };
    void arm_task_timeout(TCB& tcb, TMO tmout);
    void cancel_task_timeout(TCB& tcb);
    void schedule_at(SYSTIM when_ms, std::uint64_t seq, std::function<void()> fire);
    void timer_handler();  ///< runs in the tick handler T-THREAD
    /// (Re)schedule the next activation of cyclic handler `cycid` for
    /// activation epoch `seq`.
    void rearm_cyclic(ID cycid, std::uint64_t seq);
    SYSTIM otm_ms() const;
    /// Operating-time instant `ms` milliseconds from now, in the timer
    /// queue's monotonic domain.
    SYSTIM deadline_otm(RELTIM ms) const;

    // ---- mutex helpers ----
    void apply_inheritance(Mutex& m);
    void unlock_mutex_internal(Mutex& m, TCB& owner);

    // ---- task helpers ----
    void task_cleanup(TCB& tcb);  ///< mutex release etc. on exit/termination
    /// Run the pending exception handler of the invoking task, if any
    /// (called at service-call boundaries -- the delivery points).
    void deliver_tex(TCB& me);
    void recompute_priority(TCB& tcb);
    PRI highest_waiter_priority(const Mutex& m) const;
    void transfer_mutex(Mutex& m);
    TCB* tcb_of(ID tskid) const;  ///< resolves TSK_SELF
    ER check_task_id(ID tskid, TCB*& out) const;

    // ---- sync-object wake passes ----
    void mbf_pump(MessageBuffer& m);
    /// Wake satisfiable semaphore waiters per TA_FIRST/TA_CNT.
    void sem_wake_pass(Semaphore& s);
    /// Hand free blocks/extents to pool waiters strictly in queue order.
    void mpf_serve(FixedPool& p);
    void mpl_serve(VariablePool& p);

    sysc::Kernel* sysc_;
    Config cfg_;

    Registry<TCB> tasks_;
    Registry<Semaphore> sems_;
    Registry<EventFlag> flgs_;
    Registry<Mailbox> mbxs_;
    Registry<Mutex> mtxs_;
    Registry<MessageBuffer> mbfs_;
    Registry<FixedPool> mpfs_;
    Registry<VariablePool> mpls_;
    Registry<CyclicHandler> cycs_;
    Registry<AlarmHandler> alms_;
    std::map<UINT, InterruptVector> ints_;

    // Timer queue keyed by absolute system time [ms]: a binary min-heap
    // whose (time, insertion order) key preserves FIFO firing among
    // entries due on the same tick; stale entries are dropped at fire
    // time by the per-object sequence counters captured in `fire`.
    sim::TimerQueue<SYSTIM, TimerEntry> timer_queue_;

    SYSTIM systim_ = 0;               ///< settable system time [ms]
    std::int64_t systim_base_ = 0;    ///< systim = base + operating time
    std::uint64_t tick_count_ = 0;
    std::vector<ID> exd_pending_;     ///< tasks awaiting deferred deletion

    std::function<void()> usermain_;
    std::optional<sysc::Event> external_tick_;
    sim::TThread* tick_thread_ = nullptr;
    std::vector<sysc::Process*> central_procs_;  ///< Boot/Dispatch/wires
    ID init_task_id_ = 0;
    bool booted_ = false;
    bool boot_scheduled_ = false;

    // Declared last so member destruction unwinds SIM_API (and with it
    // every task coroutine) FIRST: the ExitCleanup guards on those stacks
    // run task_cleanup, which touches the TCBs and the mutex registry
    // above. sched_ precedes api_ because the unwinding tasks still call
    // into the scheduler. Do not reorder.
    std::unique_ptr<sim::Scheduler> sched_;
    std::unique_ptr<sim::SimApi> api_;
};

}  // namespace rtk::tkernel
