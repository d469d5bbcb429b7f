#include <gtest/gtest.h>

#include <vector>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

class ProcessTest : public ::testing::Test {
protected:
    Kernel k;
};

TEST_F(ProcessTest, RunsAtTimeZero) {
    bool ran = false;
    k.spawn("p", [&] { ran = true; });
    k.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(k.now(), Time::zero());
}

TEST_F(ProcessTest, FifoOrderIsDeterministic) {
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        k.spawn("p" + std::to_string(i), [&order, i] { order.push_back(i); });
    }
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(ProcessTest, WaitAdvancesTime) {
    Time t1, t2;
    k.spawn("p", [&] {
        wait(Time::ms(1));
        t1 = now();
        wait(Time::us(500));
        t2 = now();
    });
    k.run();
    EXPECT_EQ(t1, Time::ms(1));
    EXPECT_EQ(t2, Time::us(1500));
}

TEST_F(ProcessTest, StateTransitions) {
    Event e(k, "e");
    Process& p = k.spawn("p", [&] { wait(e); });
    EXPECT_EQ(p.state(), Process::State::runnable);
    k.run_until(Time::us(1));
    EXPECT_EQ(p.state(), Process::State::waiting);
    e.notify();
    k.run_until(Time::us(2));
    EXPECT_EQ(p.state(), Process::State::terminated);
    EXPECT_TRUE(p.terminated());
}

TEST_F(ProcessTest, TerminatedEventFires) {
    bool observed = false;
    Process& p = k.spawn("p", [] { wait(Time::ms(1)); });
    k.spawn("watcher", [&] {
        wait(p.terminated_event());
        observed = true;
    });
    k.run();
    EXPECT_TRUE(observed);
}

TEST_F(ProcessTest, KillUnwindsRaii) {
    bool destroyed = false;
    Process& p = k.spawn("p", [&] {
        struct Sentinel {
            bool* flag;
            ~Sentinel() { *flag = true; }
        } s{&destroyed};
        for (;;) {
            wait(Time::ms(1));
        }
    });
    k.run_until(Time::ms(5));
    EXPECT_FALSE(destroyed);
    p.kill();
    EXPECT_TRUE(destroyed);
    EXPECT_TRUE(p.terminated());
}

TEST_F(ProcessTest, KillBeforeFirstRunIsClean) {
    bool ran = false;
    Process& p = k.spawn("p", [&] { ran = true; });
    p.kill();
    k.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(p.terminated());
}

TEST_F(ProcessTest, SuicideViaKill) {
    bool after = false;
    k.spawn("p", [&] {
        current_process().kill();
        after = true;  // unreachable
    });
    k.run();
    EXPECT_FALSE(after);
}

TEST_F(ProcessTest, ExceptionPropagatesToRun) {
    k.spawn("p", [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(k.run(), std::runtime_error);
}

TEST_F(ProcessTest, FindProcessByName) {
    Process& p = k.spawn("needle", [] {});
    EXPECT_EQ(k.find_process("needle"), &p);
    EXPECT_EQ(k.find_process("missing"), nullptr);
    EXPECT_EQ(k.process_count(), 1u);
}

TEST_F(ProcessTest, SpawnDuringSimulationRunsInSameTimestep) {
    Time child_ran_at = Time::max();
    k.spawn("parent", [&] {
        wait(Time::ms(2));
        Kernel::current().spawn("child", [&] { child_ran_at = now(); });
    });
    k.run();
    EXPECT_EQ(child_ran_at, Time::ms(2));
}

TEST_F(ProcessTest, WaitDeltaResumesWithoutTimeAdvance) {
    int phase = 0;
    k.spawn("p", [&] {
        phase = 1;
        wait_delta();
        phase = 2;
    });
    k.step_delta();
    EXPECT_EQ(phase, 1);
    k.run();
    EXPECT_EQ(phase, 2);
    EXPECT_EQ(k.now(), Time::zero());
}

TEST_F(ProcessTest, WaitOutsideProcessIsFatal) {
    EXPECT_THROW(wait(Time::ms(1)), SimError);
}

TEST_F(ProcessTest, NestedWaitsDeepInCallStack) {
    // The stackful-coroutine requirement: wait() from nested frames.
    std::function<void(int)> recurse = [&](int depth) {
        if (depth == 0) {
            wait(Time::us(10));
            return;
        }
        recurse(depth - 1);
    };
    Time done;
    k.spawn("deep", [&] {
        recurse(50);
        done = now();
    });
    k.run();
    EXPECT_EQ(done, Time::us(10));
}

TEST_F(ProcessTest, ManyProcessesInterleaveDeterministically) {
    std::vector<std::pair<Time, int>> log;
    for (int i = 0; i < 10; ++i) {
        k.spawn("p" + std::to_string(i), [&log, i] {
            for (int r = 0; r < 3; ++r) {
                wait(Time::us(static_cast<std::uint64_t>(i + 1)));
                log.emplace_back(now(), i);
            }
        });
    }
    k.run();
    EXPECT_EQ(log.size(), 30u);
    // Log must be sorted by time (stable interleaving).
    for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_LE(log[i - 1].first, log[i].first);
    }
}

}  // namespace
}  // namespace rtk::sysc
