// Multi-instance isolation of the context-explicit API: several
// Simulations nested in one thread, one per host thread, and the
// determinism contract (identical spec + seed => bit-identical runs).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/harness.hpp"
#include "tkernel/tkernel.hpp"
#include "scratch_dir.hpp"

namespace rtk::harness {
namespace {

using sysc::Time;
using tkernel::ID;
using tkernel::INT;
using tkernel::T_CSEM;
using tkernel::T_CTSK;
using tkernel::TKernel;

/// Ping-pong workload: producer signals a semaphore every 2 ms, consumer
/// burns annotated work per item. Deterministic for a fixed spec.
void pingpong(Simulation& sim, const ScenarioSpec& spec) {
    TKernel& tk = sim.os();
    const std::uint64_t units = 50 + spec.seed % 100;
    sim.set_user_main([&tk, units] {
        T_CSEM cs;
        cs.name = "items";
        const ID sem = tk.tk_cre_sem(cs);
        T_CTSK prod;
        prod.name = "prod";
        prod.itskpri = 10;
        prod.task = [&tk, sem](INT, void*) {
            for (int i = 0; i < 10; ++i) {
                tk.tk_dly_tsk(2);
                tk.tk_sig_sem(sem, 1);
            }
        };
        tk.tk_sta_tsk(tk.tk_cre_tsk(prod), 0);
        T_CTSK cons;
        cons.name = "cons";
        cons.itskpri = 5;
        cons.task = [&tk, sem, units](INT, void*) {
            for (int i = 0; i < 10; ++i) {
                if (tk.tk_wai_sem(sem, 1, tkernel::TMO_FEVR) != tkernel::E_OK) {
                    return;
                }
                tk.sim().SIM_WaitUnits(units, sim::ExecContext::task);
            }
        };
        tk.tk_sta_tsk(tk.tk_cre_tsk(cons), 0);
    });
}

ScenarioSpec pingpong_spec(std::uint64_t seed) {
    ScenarioSpec s;
    s.name = "pingpong/" + std::to_string(seed);
    s.seed = seed;
    s.duration = Time::ms(40);
    s.workload = &pingpong;
    return s;
}

TEST(Simulation, BootsAndRunsUserMain) {
    Simulation sim;
    bool main_ran = false;
    sim.set_user_main([&] { main_ran = true; });
    sim.power_on();
    sim.run_for(Time::ms(5));
    EXPECT_TRUE(main_ran);
    EXPECT_TRUE(sim.os().booted());
    EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(Simulation, TwoInstancesInOneThreadAreIsolated) {
    Simulation a;
    Simulation b(Simulation::Config{});
    int a_items = 0;
    int b_items = 0;
    auto workload = [](TKernel& tk, int& counter, tkernel::RELTIM period) {
        tk.set_user_main([&tk, &counter, period] {
            T_CTSK ct;
            ct.name = "worker";
            ct.itskpri = 5;
            ct.task = [&tk, &counter, period](INT, void*) {
                for (;;) {
                    tk.tk_dly_tsk(period);
                    ++counter;
                }
            };
            tk.tk_sta_tsk(tk.tk_cre_tsk(ct), 0);
        });
    };
    workload(a.os(), a_items, 1);
    workload(b.os(), b_items, 2);
    a.power_on();
    b.power_on();
    // Interleave execution: each kernel advances only its own clock.
    for (int step = 0; step < 5; ++step) {
        a.run_for(Time::ms(2));
        b.run_for(Time::ms(4));
    }
    EXPECT_EQ(a.now(), Time::ms(10));
    EXPECT_EQ(b.now(), Time::ms(20));
    EXPECT_NEAR(a_items, 9, 1);   // ~1 wake/ms over 10 ms (boot offset)
    EXPECT_NEAR(b_items, 9, 1);   // ~1 wake/2ms over 20 ms
    // Thread registries are disjoint.
    EXPECT_EQ(a.sim().threads().size(), 3u);  // tick handler + init + worker
    EXPECT_EQ(b.sim().threads().size(), 3u);
}

TEST(Simulation, ManyKernelsAcrossManyThreads) {
    // One Simulation per host thread, all running concurrently; under
    // ASan/TSan this is the multi-instance safety net.
    constexpr int n = 4;
    std::vector<ScenarioResult> results(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([i, &results] {
            results[static_cast<std::size_t>(i)] =
                run_scenario(pingpong_spec(static_cast<std::uint64_t>(i)));
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    for (const auto& r : results) {
        EXPECT_TRUE(r.passed) << r.name << ": " << r.error;
        EXPECT_GT(r.stats.dispatches, 0u);
        EXPECT_EQ(r.sim_time, Time::ms(40));
    }
    // Different seeds produce different behaviour...
    EXPECT_NE(results[0].fingerprint, results[1].fingerprint);
}

TEST(Simulation, IdenticalSpecsAreBitIdenticalAcrossThreads) {
    // The same spec run on the main thread and on two worker threads
    // must fingerprint identically.
    const ScenarioSpec spec = pingpong_spec(7);
    const ScenarioResult local = run_scenario(spec);
    ScenarioResult worker1;
    ScenarioResult worker2;
    std::thread t1([&] { worker1 = run_scenario(spec); });
    std::thread t2([&] { worker2 = run_scenario(spec); });
    t1.join();
    t2.join();
    ASSERT_TRUE(local.passed) << local.error;
    EXPECT_EQ(local.fingerprint, worker1.fingerprint);
    EXPECT_EQ(local.fingerprint, worker2.fingerprint);
    EXPECT_EQ(local.stats.dispatches, worker1.stats.dispatches);
    EXPECT_EQ(local.stats.total_cet, worker1.stats.total_cet);
    EXPECT_EQ(local.stats.total_cee_nj, worker1.stats.total_cee_nj);
}

TEST(Simulation, SerialAndParallelBatchesAreBitIdentical) {
    std::vector<ScenarioSpec> specs;
    for (std::uint64_t s = 0; s < 8; ++s) {
        specs.push_back(pingpong_spec(s));
    }
    const BatchReport serial = ScenarioRunner(ScenarioRunner::Options{1}).run(specs);
    const BatchReport parallel =
        ScenarioRunner(ScenarioRunner::Options{4}).run(specs);
    ASSERT_EQ(serial.results.size(), specs.size());
    ASSERT_EQ(parallel.results.size(), specs.size());
    EXPECT_EQ(parallel.threads, 4u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(serial.results[i].passed) << serial.results[i].error;
        EXPECT_EQ(serial.results[i].fingerprint, parallel.results[i].fingerprint)
            << specs[i].name;
        EXPECT_EQ(serial.results[i].stats.dispatches,
                  parallel.results[i].stats.dispatches);
        EXPECT_EQ(serial.results[i].sim_time, parallel.results[i].sim_time);
    }
}

TEST(Simulation, VcdTraceIsBitIdenticalSerialVsParallel) {
    auto slurp = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const test_support::ScratchDir scratch;
    ScenarioSpec serial_spec = pingpong_spec(3);
    serial_spec.vcd_path = scratch.path("serial.vcd");
    ScenarioSpec parallel_spec = pingpong_spec(3);
    parallel_spec.vcd_path = scratch.path("parallel.vcd");

    const BatchReport serial =
        ScenarioRunner(ScenarioRunner::Options{1}).run({serial_spec});
    const BatchReport parallel = ScenarioRunner(ScenarioRunner::Options{2})
                                     .run({parallel_spec, pingpong_spec(4)});
    ASSERT_TRUE(serial.results[0].passed) << serial.results[0].error;
    ASSERT_TRUE(parallel.results[0].passed) << parallel.results[0].error;
    const std::string a = slurp(serial_spec.vcd_path);
    const std::string b = slurp(parallel_spec.vcd_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);  // byte-for-byte
}

TEST(Simulation, RetainedObjectsLiveForTheWholeRun) {
    auto marker = std::make_shared<int>(0);
    std::weak_ptr<int> weak = marker;
    {
        Simulation sim;
        sim.retain(marker);
        marker.reset();
        EXPECT_FALSE(weak.expired());  // kept alive by the simulation
        sim.power_on();
        sim.run_for(Time::ms(1));
    }
    EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace rtk::harness
