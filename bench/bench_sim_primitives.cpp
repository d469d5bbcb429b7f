// Micro-benchmarks of the simulation substrate primitives
// (google-benchmark): event notification, context switch, SIM_Wait
// quantum processing, service call overhead and full kernel tick cost.
// These justify the claim that RTOS-level simulation runs orders of
// magnitude faster than ISS co-simulation.
#include <benchmark/benchmark.h>

#include "api/expected.hpp"
#include "sim/sim.hpp"
#include "sysc/sysc.hpp"
#include "tkernel/tkernel.hpp"

using namespace rtk;
using sysc::Time;

namespace {

void BM_EventNotifyWake(benchmark::State& state) {
    sysc::Kernel k;
    sysc::Event ping(k, "ping");
    std::uint64_t wakes = 0;
    k.spawn("waiter", [&] {
        for (;;) {
            sysc::wait(ping);
            ++wakes;
        }
    });
    k.run_until(Time::us(1));
    for (auto _ : state) {
        ping.notify();
        k.step_delta();
    }
    benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_EventNotifyWake);

void BM_CoroutineContextSwitch(benchmark::State& state) {
    sysc::Kernel k;
    sysc::Event a(k, "a"), b(k, "b");
    k.spawn("ping", [&] {
        for (;;) {
            sysc::wait(a);
            b.notify();
        }
    });
    k.spawn("pong", [&] {
        for (;;) {
            sysc::wait(b);
        }
    });
    k.run_until(Time::us(1));
    for (auto _ : state) {
        a.notify();
        k.step_delta();  // two process switches per iteration
    }
}
BENCHMARK(BM_CoroutineContextSwitch);

void BM_TimedWaitQuantum(benchmark::State& state) {
    sysc::Kernel k;
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    auto& t = api.SIM_CreateThread("t", sim::ThreadKind::task, 5, [&] {
        for (;;) {
            api.SIM_Wait(Time::ms(1), sim::ExecContext::task);
        }
    });
    api.SIM_StartThread(t);
    for (auto _ : state) {
        k.run_for(Time::ms(1));  // one quantum: wait + preemption check
    }
}
BENCHMARK(BM_TimedWaitQuantum);

void BM_ServiceCallOverhead(benchmark::State& state) {
    sysc::Kernel k;
    tkernel::TKernel tk{k};
    tkernel::ID sem = 0;
    tk.set_user_main([&] {
        tkernel::T_CSEM cs;
        cs.isemcnt = 1 << 30;
        cs.maxsem = 1 << 30;
        sem = tk.tk_cre_sem(cs);
        api::Status::from_er(sem).expect("create bench semaphore");
        for (;;) {
            // The measured operation itself: a polling wait per iteration
            // (E_TMOUT once the huge initial count is drained is fine).
            (void)tk.tk_wai_sem(sem, 1, tkernel::TMO_POL);
        }
    });
    tk.power_on();
    k.run_until(Time::us(100));
    for (auto _ : state) {
        k.run_for(Time::us(50));  // several complete service calls
    }
}
BENCHMARK(BM_ServiceCallOverhead);

void BM_FullKernelTick(benchmark::State& state) {
    // Cost of one system tick: Thread Dispatch -> tick ISR -> timer
    // handler, with an idle task set.
    sysc::Kernel k;
    tkernel::TKernel tk{k};
    tk.set_user_main([&] {
        tkernel::T_CTSK ct;
        ct.name = "idle";
        ct.itskpri = 100;
        ct.task = [&](tkernel::INT, void*) {
            for (;;) {
                tk.sim().SIM_Wait(Time::ms(10), sim::ExecContext::task);
            }
        };
        const tkernel::ID tid = tk.tk_cre_tsk(ct);
        api::Status::from_er(tid).expect("create idle task");
        api::Status::from_er(tk.tk_sta_tsk(tid, 0)).expect("start idle task");
    });
    tk.power_on();
    k.run_until(Time::ms(2));
    for (auto _ : state) {
        k.run_for(Time::ms(1));
    }
    state.counters["sim_ticks"] = static_cast<double>(tk.tick_count());
}
BENCHMARK(BM_FullKernelTick);

void BM_InterruptDelivery(benchmark::State& state) {
    sysc::Kernel k;
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    auto& isr = api.SIM_CreateThread("isr", sim::ThreadKind::interrupt_handler,
                                     -10, [] {});
    for (auto _ : state) {
        api.SIM_RaiseInterrupt(isr);
        k.run();
    }
    state.counters["deliveries"] =
        static_cast<double>(api.total_interrupt_deliveries());
}
BENCHMARK(BM_InterruptDelivery);

void BM_GanttRecording(benchmark::State& state) {
    sysc::Kernel k;
    sim::GanttRecorder g;
    std::uint64_t i = 0;
    for (auto _ : state) {
        g.add_slice(1, "t", sim::ExecContext::task, Time::us(i), Time::us(i + 1),
                    1.0);
        ++i;
    }
    benchmark::DoNotOptimize(g.segments().size());
}
BENCHMARK(BM_GanttRecording);

}  // namespace

BENCHMARK_MAIN();
