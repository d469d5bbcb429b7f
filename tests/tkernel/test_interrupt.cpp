// Interrupt management tests: vector definition, delivery, masking,
// nesting by priority, delayed dispatching at kernel level.
#include <gtest/gtest.h>

#include "tkernel/tkernel.hpp"

namespace rtk::tkernel {
namespace {

using sysc::Time;

class IntTest : public ::testing::Test {
protected:
    sysc::Kernel k;
    TKernel tk{k};

    void boot_and_run(std::function<void()> body, Time horizon = Time::ms(200)) {
        tk.set_user_main(std::move(body));
        tk.power_on();
        k.run_until(horizon);
    }
};

TEST_F(IntTest, DefineAndTrigger) {
    int hits = 0;
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [&](void*) { ++hits; };
        EXPECT_EQ(tk.tk_def_int(3, d), E_OK);
        EXPECT_EQ(tk.tk_def_int(3, d), E_OBJ);  // already defined
        EXPECT_EQ(tk.trigger_interrupt(3), E_OK);
        EXPECT_EQ(tk.trigger_interrupt(99), E_NOEXS);
        tk.tk_dly_tsk(10);
    });
    EXPECT_EQ(hits, 1);
}

TEST_F(IntTest, HandlerReceivesVectorNumber) {
    std::uintptr_t got = 0;
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [&](void* exinf) { got = reinterpret_cast<std::uintptr_t>(exinf); };
        tk.tk_def_int(7, d);
        tk.trigger_interrupt(7);
        tk.tk_dly_tsk(5);
    });
    EXPECT_EQ(got, 7u);
}

TEST_F(IntTest, DisableMasksDelivery) {
    int hits = 0;
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [&](void*) { ++hits; };
        tk.tk_def_int(1, d);
        EXPECT_EQ(tk.disable_int(1), E_OK);
        tk.trigger_interrupt(1);
        tk.tk_dly_tsk(5);
        EXPECT_EQ(hits, 0);
        EXPECT_EQ(tk.enable_int(1), E_OK);
        tk.trigger_interrupt(1);
        tk.tk_dly_tsk(5);
    });
    EXPECT_EQ(hits, 1);
}

TEST_F(IntTest, UndefineRequiresInactive) {
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [](void*) {};
        tk.tk_def_int(2, d);
        EXPECT_EQ(tk.tk_undef_int(2), E_OK);
        EXPECT_EQ(tk.tk_undef_int(2), E_NOEXS);
        EXPECT_EQ(tk.trigger_interrupt(2), E_NOEXS);
    });
}

TEST_F(IntTest, HigherPriorityIrqNestsIntoLower) {
    std::vector<std::string> log;
    // IRQs come from the board side (a plain process), with the second
    // one guaranteed to land while handler 0 is still executing.
    k.spawn("board", [&] {
        sysc::wait(Time::ms(5));
        tk.trigger_interrupt(0);
        sysc::wait(Time::ms(1));  // handler 0 runs 2 ms
        tk.trigger_interrupt(1);
    });
    boot_and_run([&] {
        T_DINT lo;
        lo.intpri = 5;
        lo.inthdr = [&](void*) {
            log.push_back("lo_enter");
            tk.sim().SIM_Wait(Time::ms(2), sim::ExecContext::handler);
            log.push_back("lo_exit");
        };
        tk.tk_def_int(0, lo);
        T_DINT hi;
        hi.intpri = 1;
        hi.inthdr = [&](void*) { log.push_back("hi"); };
        tk.tk_def_int(1, hi);
        tk.tk_dly_tsk(20);
    });
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], "lo_enter");
    EXPECT_EQ(log[1], "hi");
    EXPECT_EQ(log[2], "lo_exit");
}

TEST_F(IntTest, IsrWakesTaskViaDelayedDispatch) {
    Time isr_done, task_woke;
    boot_and_run([&] {
        T_CSEM cs;
        ID sem = tk.tk_cre_sem(cs);
        T_CTSK ct;
        ct.name = "hi";
        ct.itskpri = 1;
        ct.task = [&](INT, void*) {
            tk.tk_wai_sem(sem, 1, TMO_FEVR);
            task_woke = sysc::now();
        };
        tk.tk_sta_tsk(tk.tk_cre_tsk(ct), 0);
        T_DINT d;
        d.inthdr = [&](void*) {
            tk.tk_sig_sem(sem, 1);  // wakes hi, but dispatch is delayed
            tk.sim().SIM_Wait(Time::us(500), sim::ExecContext::handler);
            isr_done = sysc::now();
        };
        tk.tk_def_int(0, d);
        tk.tk_dly_tsk(5);
        tk.trigger_interrupt(0);
        tk.tk_dly_tsk(20);
    });
    EXPECT_GE(task_woke, isr_done);  // switch happened after handler return
    EXPECT_LE(task_woke - isr_done, Time::us(200));
}

TEST_F(IntTest, AttachInterruptLineDeliversEvents) {
    int hits = 0;
    sysc::Event irq(k, "board.irq");
    tk.attach_interrupt_line(irq, 4);
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [&](void*) { ++hits; };
        tk.tk_def_int(4, d);
        tk.tk_slp_tsk(50);
    });
    // Fire the line from the testbench between runs.
    irq.notify();
    k.run_until(Time::ms(250));
    EXPECT_EQ(hits, 1);
}

TEST_F(IntTest, VectorStatisticsTracked) {
    boot_and_run([&] {
        T_DINT d;
        d.inthdr = [](void*) {};
        tk.tk_def_int(0, d);
        tk.trigger_interrupt(0);
        tk.tk_dly_tsk(3);
        tk.trigger_interrupt(0);
        tk.tk_dly_tsk(3);
    });
    const auto& vec = tk.interrupt_vectors().at(0);
    EXPECT_EQ(vec.deliveries, 2u);
}

TEST_F(IntTest, DefIntValidatesHandler) {
    boot_and_run([&] {
        T_DINT d;  // empty handler
        EXPECT_EQ(tk.tk_def_int(0, d), E_PAR);
    });
}

}  // namespace
}  // namespace rtk::tkernel
