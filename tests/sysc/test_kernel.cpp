#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

class KernelTest : public ::testing::Test {
protected:
    Kernel k;
};

TEST_F(KernelTest, RunUntilSetsNowEvenWithoutActivity) {
    k.run_until(Time::ms(7));
    EXPECT_EQ(k.now(), Time::ms(7));
}

TEST_F(KernelTest, RunUntilProcessesActivityAtBoundary) {
    bool fired = false;
    Event e(k, "e");
    k.spawn("w", [&] {
        wait(e);
        fired = true;
    });
    e.notify(Time::ms(5));
    k.run_until(Time::ms(5));
    EXPECT_TRUE(fired);
}

TEST_F(KernelTest, RunUntilDoesNotProcessBeyondBoundary) {
    bool fired = false;
    Event e(k, "e");
    k.spawn("w", [&] {
        wait(e);
        fired = true;
    });
    e.notify(Time::ms(5) + Time::ps(1));
    k.run_until(Time::ms(5));
    EXPECT_FALSE(fired);
    k.run();
    EXPECT_TRUE(fired);
}

TEST_F(KernelTest, RunForIsRelative) {
    k.run_until(Time::ms(2));
    k.run_for(Time::ms(3));
    EXPECT_EQ(k.now(), Time::ms(5));
}

TEST_F(KernelTest, RunIntoThePastIsFatal) {
    k.run_until(Time::ms(10));
    EXPECT_THROW(k.run_until(Time::ms(5)), SimError);
}

TEST_F(KernelTest, StopEndsRunEarly) {
    int laps = 0;
    k.spawn("looper", [&] {
        for (;;) {
            wait(Time::ms(1));
            if (++laps == 3) {
                Kernel::current().stop();
            }
        }
    });
    k.run_until(Time::sec(1));
    EXPECT_EQ(laps, 3);
    EXPECT_EQ(k.now(), Time::ms(3));
}

TEST_F(KernelTest, IdleReportsNoActivity) {
    EXPECT_TRUE(k.idle());
    Event e(k, "e");
    k.spawn("w", [&] { wait(e); });
    k.run_until(Time::us(1));
    EXPECT_TRUE(k.idle());  // waiting process with no pending notification
    e.notify(Time::ms(1));
    EXPECT_FALSE(k.idle());
}

TEST_F(KernelTest, NextActivityAt) {
    EXPECT_EQ(k.next_activity_at(), Time::max());
    Event e(k, "e");
    e.notify(Time::ms(4));
    EXPECT_EQ(k.next_activity_at(), Time::ms(4));
}

TEST_F(KernelTest, DeltaCountAdvancesPerDeltaCycle) {
    Event e(k, "e");
    k.spawn("w", [&] {
        for (int i = 0; i < 3; ++i) {
            wait(e);
        }
    });
    const auto d0 = k.delta_count();
    for (int i = 0; i < 3; ++i) {
        e.notify_delta();
        k.run();
    }
    EXPECT_GE(k.delta_count(), d0 + 3);
}

TEST_F(KernelTest, TimestepHooksRunAfterDeltas) {
    int hooks = 0;
    k.add_timestep_hook([&](Time) { ++hooks; });
    k.spawn("p", [] { wait(Time::ms(1)); });
    k.run();
    EXPECT_GE(hooks, 2);  // initial delta + wake at 1 ms
}

// ---- timed-wait elision ----------------------------------------------------
//
// wait(d) may advance the clock in place instead of a scheduler round
// trip. Each test pins the (process, time, delta_count) log of the
// un-elided schedule, worked out by hand from the evaluate -> update ->
// delta-notify cycle: a delta cycle in which a process ran ends with
// ++delta_count, and a process that finishes queues its terminated
// event, which keeps a later wait in the same cycle from eliding.

struct Mark {
    std::string who;
    Time at;
    std::uint64_t delta;
    bool operator==(const Mark&) const = default;
};

void PrintTo(const Mark& m, std::ostream* os) {
    *os << m.who << "@" << m.at.picoseconds() << "ps/d" << m.delta;
}

class WaitElisionTest : public ::testing::Test {
protected:
    void mark(const char* who) { log.push_back({who, k.now(), k.delta_count()}); }

    Kernel k;
    std::vector<Mark> log;
};

TEST_F(WaitElisionTest, LoneTimedWaitsKeepTheUnelidedLog) {
    k.spawn("a", [&] {
        wait(Time::ms(3));
        mark("a");
    });
    k.spawn("b", [&] {
        for (int i = 0; i < 4; ++i) {
            wait(Time::ms(1));
            mark("b");
        }
    });
    k.run();
    // b's waits to 1 and 2 ms may elide (a's wake at 3 ms is later); its
    // wait to 3 ms ties with a's older entry, so a runs first.
    EXPECT_EQ(log, (std::vector<Mark>{{"b", Time::ms(1), 1},
                                      {"b", Time::ms(2), 2},
                                      {"a", Time::ms(3), 3},
                                      {"b", Time::ms(3), 3},
                                      {"b", Time::ms(4), 4}}));
    EXPECT_EQ(k.now(), Time::ms(4));
    EXPECT_EQ(k.delta_count(), 5u);
}

TEST_F(WaitElisionTest, AnOlderEntryAtTheWakeTimeRunsFirst) {
    Event e(k, "e");
    k.spawn("a", [&] {
        wait(e);
        mark("a");
    });
    k.spawn("b", [&] {
        e.notify(Time::ms(5));
        wait(Time::ms(5));  // ties with e's entry, which is older
        mark("b");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"a", Time::ms(5), 1}, {"b", Time::ms(5), 1}}));
    EXPECT_EQ(k.delta_count(), 2u);
}

TEST_F(WaitElisionTest, WakeExactlyAtTheRunUntilLimitResumes) {
    k.spawn("p", [&] {
        wait(Time::ms(5));
        mark("p");
        wait(Time::ms(1));
        mark("p");
    });
    k.run_until(Time::ms(5));
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::ms(5), 1}}));
    EXPECT_EQ(k.now(), Time::ms(5));
    EXPECT_EQ(k.delta_count(), 2u);
}

TEST_F(WaitElisionTest, WakeOnePicosecondPastTheLimitStaysSuspended) {
    const Time wake = Time::ms(5) + Time::ps(1);
    Process& p = k.spawn("p", [&] {
        wait(wake);
        mark("p");
        wait(Time::ms(1));  // run() has no limit: this one may elide
        mark("p");
    });
    k.run_until(Time::ms(5));
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(k.now(), Time::ms(5));
    EXPECT_EQ(k.delta_count(), 1u);
    EXPECT_EQ(p.state(), Process::State::waiting);
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"p", wake, 1}, {"p", wake + Time::ms(1), 2}}));
    EXPECT_EQ(k.delta_count(), 3u);
}

TEST_F(WaitElisionTest, PendingStopEndsTheRunBeforeTheWait) {
    k.spawn("p", [&] {
        mark("p");
        k.stop();
        wait(Time::ms(1));
        mark("p");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::zero(), 0}}));
    EXPECT_EQ(k.now(), Time::zero());
    EXPECT_EQ(k.delta_count(), 1u);
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::zero(), 0}, {"p", Time::ms(1), 1}}));
}

TEST_F(WaitElisionTest, DeltaBudgetOfOneExhaustsAtTheSameCount) {
    k.set_delta_budget(1);
    k.spawn("p", [&] {
        for (;;) {
            mark("p");
            wait(Time::ms(1));
        }
    });
    k.run_until(Time::ms(10));
    EXPECT_TRUE(k.delta_budget_exhausted());
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::zero(), 0}}));
    EXPECT_EQ(k.now(), Time::zero());
    EXPECT_EQ(k.delta_count(), 1u);
}

TEST_F(WaitElisionTest, DeltaBudgetOfTwoExhaustsAtTheSameCount) {
    k.set_delta_budget(2);
    k.spawn("p", [&] {
        for (;;) {
            mark("p");
            wait(Time::ms(1));
        }
    });
    k.run_until(Time::ms(10));
    EXPECT_TRUE(k.delta_budget_exhausted());
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::zero(), 0}, {"p", Time::ms(1), 1}}));
    EXPECT_EQ(k.now(), Time::ms(1));
    EXPECT_EQ(k.delta_count(), 2u);
}

TEST_F(WaitElisionTest, PendingDeltaNotifyRunsBeforeTheWake) {
    Event e(k, "e");
    k.spawn("q", [&] {
        wait(e);
        mark("q");
    });
    k.spawn("p", [&] {
        e.notify_delta();
        wait(Time::ms(1));
        mark("p");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"q", Time::zero(), 1}, {"p", Time::ms(1), 2}}));
    EXPECT_EQ(k.delta_count(), 3u);
}

TEST_F(WaitElisionTest, PendingSignalWriteUpdatesBeforeTheWake) {
    Signal<int> s(k, "s", 0);
    int seen = -1;
    k.spawn("q", [&] {
        wait(s.value_changed_event());
        seen = s.read();
        mark("q");
    });
    k.spawn("p", [&] {
        s.write(7);
        wait(Time::ms(1));
        mark("p");
    });
    k.run();
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(log, (std::vector<Mark>{{"q", Time::zero(), 1}, {"p", Time::ms(1), 2}}));
    EXPECT_EQ(s.last_change(), Time::zero());
}

TEST_F(WaitElisionTest, TimestepHookSeesEveryCycle) {
    std::vector<std::pair<Time, std::uint64_t>> cycles;
    k.add_timestep_hook([&](Time t) { cycles.emplace_back(t, k.delta_count()); });
    k.spawn("p", [&] {
        for (int i = 0; i < 3; ++i) {
            wait(Time::ms(1));
            mark("p");
        }
    });
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::ms(1), 1},
                                      {"p", Time::ms(2), 2},
                                      {"p", Time::ms(3), 3}}));
    EXPECT_EQ(cycles, (std::vector<std::pair<Time, std::uint64_t>>{
                          {Time::zero(), 1}, {Time::ms(1), 2}, {Time::ms(2), 3}, {Time::ms(3), 4}}));
}

TEST_F(WaitElisionTest, StepDeltaNeverAdvancesTime) {
    k.spawn("p", [&] {
        wait(Time::ms(1));
        mark("p");
    });
    EXPECT_TRUE(k.step_delta());
    EXPECT_EQ(k.now(), Time::zero());
    EXPECT_EQ(k.delta_count(), 1u);
    EXPECT_FALSE(k.step_delta());  // the wake is a timed entry, not a delta
    EXPECT_EQ(k.now(), Time::zero());
    EXPECT_TRUE(log.empty());
    k.run();
    EXPECT_EQ(log, (std::vector<Mark>{{"p", Time::ms(1), 1}}));
}

// ---- timed-queue determinism (indexed min-heap) ----------------------------

TEST_F(KernelTest, EqualTimestampNotificationsTriggerInNotifyOrder) {
    // The heap's (time, order) key must reproduce the multimap's FIFO
    // among equal timestamps: processes wake in notification order.
    std::vector<int> order;
    std::vector<std::unique_ptr<Event>> events;
    for (int i = 0; i < 8; ++i) {
        events.push_back(std::make_unique<Event>(k, "e" + std::to_string(i)));
        Event* e = events.back().get();
        k.spawn("w" + std::to_string(i), [&order, e, i] {
            wait(*e);
            order.push_back(i);
        });
    }
    // Notify in a scrambled order; all at the same instant.
    const int scrambled[] = {5, 2, 7, 0, 3, 6, 1, 4};
    for (int i : scrambled) {
        events[static_cast<std::size_t>(i)]->notify(Time::ms(2));
    }
    k.run();
    EXPECT_EQ(order, (std::vector<int>{5, 2, 7, 0, 3, 6, 1, 4}));
}

TEST_F(KernelTest, CancelledTimedNotificationNeverFiresAndClearsActivity) {
    Event e(k, "e");
    bool fired = false;
    k.spawn("w", [&] {
        wait(e);
        fired = true;
    });
    k.run_until(Time::us(1));  // let the process block on the event
    e.notify(Time::ms(2));
    e.cancel();
    EXPECT_EQ(k.next_activity_at(), Time::max());  // stale entry pruned
    EXPECT_TRUE(k.idle());
    k.run_until(Time::ms(10));
    EXPECT_FALSE(fired);
}

TEST_F(KernelTest, RenotifyAfterCancelReusesTheSlotAtTheNewTime) {
    Event e(k, "e");
    Time fired_at;
    k.spawn("w", [&] {
        wait(e);
        fired_at = now();
    });
    e.notify(Time::ms(2));
    e.cancel();
    e.notify(Time::ms(7));  // later than the cancelled one: must win
    k.run();
    EXPECT_EQ(fired_at, Time::ms(7));
    EXPECT_EQ(k.now(), Time::ms(7));
}

TEST_F(KernelTest, ManyTimedNotificationsFireInTimestampOrder) {
    std::vector<int> fired;
    std::vector<std::unique_ptr<Event>> events;
    // Deterministically shuffled deadlines 1..32 ms.
    for (int i = 0; i < 32; ++i) {
        events.push_back(std::make_unique<Event>(k, "e" + std::to_string(i)));
        Event* e = events.back().get();
        const int ms = 1 + (i * 11) % 32;
        k.spawn("w" + std::to_string(i), [&fired, e, ms] {
            wait(*e);
            fired.push_back(ms);
        });
        e->notify(Time::ms(static_cast<std::uint64_t>(ms)));
    }
    k.run();
    ASSERT_EQ(fired.size(), 32u);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LT(fired[i - 1], fired[i]);
    }
}

TEST_F(KernelTest, DestructionWithLiveProcessesIsClean) {
    // Regression: destroying a kernel with suspended processes (including
    // ones holding timed notifications) must not touch freed queues.
    auto inner = std::make_unique<Kernel>();
    auto e = std::make_unique<Event>(*inner, "e");
    inner->spawn("a", [&] {
        for (;;) {
            wait(*e);
        }
    });
    inner->spawn("b", [] {
        for (;;) {
            wait(Time::ms(1));
        }
    });
    inner->run_until(Time::ms(3));
    e.reset();      // event dies first (waiter deregistered with a warning)
    inner.reset();  // then the kernel; must not crash
    SUCCEED();
}

// ---- multi-instance lifecycle (context-explicit API) ------------------------

TEST_F(KernelTest, KernelsDestroyedInAnyOrderKeepRunningTheirOwnProcesses) {
    // Three kernels on one thread, each with a ticking process and an
    // event-driven one. Destroying the middle kernel, then the oldest,
    // must leave the survivors advancing only their own processes.
    struct World {
        Kernel kernel;
        Event go{kernel, "go"};
        int ticks = 0;
        int woken = 0;
        const Kernel* seen = nullptr;
        Process* waiter = nullptr;
        ~World() { waiter->kill(); }  // before `go` dies under it
    };
    std::vector<std::unique_ptr<World>> worlds;
    for (int i = 0; i < 3; ++i) {
        worlds.push_back(std::make_unique<World>());
        World* w = worlds.back().get();
        w->kernel.spawn("tick", [w] {
            for (;;) {
                wait(Time::ms(1));
                ++w->ticks;
                w->seen = &Kernel::current();
            }
        });
        w->waiter = &w->kernel.spawn("waiter", [w] {
            for (;;) {
                wait(w->go);
                ++w->woken;
            }
        });
    }
    auto advance = [&](Time until) {
        for (auto& w : worlds) {
            if (w) {
                w->go.notify(Time::us(500));
                w->kernel.run_until(until);
            }
        }
    };
    advance(Time::ms(2));
    worlds[1].reset();  // the middle kernel dies first
    advance(Time::ms(4));
    EXPECT_EQ(worlds[0]->ticks, 4);
    EXPECT_EQ(worlds[0]->woken, 2);
    EXPECT_EQ(worlds[0]->seen, &worlds[0]->kernel);
    worlds[0].reset();  // then the oldest
    advance(Time::ms(6));

    const World& last = *worlds[2];
    EXPECT_EQ(last.ticks, 6);
    EXPECT_EQ(last.woken, 3);
    EXPECT_EQ(last.seen, &last.kernel);
    EXPECT_EQ(last.kernel.now(), Time::ms(6));
    EXPECT_EQ(k.process_count(), 0u);  // nothing leaked onto the fixture
    worlds[2].reset();
}

TEST_F(KernelTest, RunBindsTheExecutingKernelAsCurrent) {
    // Two live kernels on one thread: while `k` runs, current() inside
    // its processes must resolve to it, not to the more recently
    // constructed kernel.
    Kernel newer;
    const Kernel* seen = nullptr;
    k.spawn("probe", [&] {
        wait(Time::ms(1));
        seen = &Kernel::current();
    });
    k.run_until(Time::ms(2));
    EXPECT_EQ(seen, &k);
}

TEST_F(KernelTest, SpawnBindsTheOwningKernel) {
    Kernel newer;
    // Spawning on `k` while `newer` is the most recent kernel: the
    // process and its internal events must belong to `k`.
    bool ran = false;
    k.spawn("w", [&] {
        wait(Time::ms(1));
        ran = true;
    });
    k.run_until(Time::ms(2));
    EXPECT_TRUE(ran);
    EXPECT_TRUE(newer.idle());
    EXPECT_EQ(newer.process_count(), 0u);
}

TEST(KernelThreadTest, BuiltOnOneThreadRunsAndDiesOnAnother) {
    // A kernel belongs to no thread: thread A builds it with processes,
    // events, a signal and a clock; thread B runs it, then destroys it
    // with processes still suspended (their stacks unwind on B).
    struct World {
        Kernel kernel;
        Event go{kernel, "go"};
        Signal<int> level{kernel, "level", 0};
        Clock clk{kernel, "clk", Time::us(100)};
        std::vector<Time> woke;
        int last_level = -1;
        const Kernel* seen = nullptr;
        std::vector<Process*> listeners;
        ~World() {
            for (Process* p : listeners) {
                p->kill();  // before the events they wait on die
            }
        }
    };
    std::unique_ptr<World> world;
    std::thread a([&world] {
        world = std::make_unique<World>();
        World* w = world.get();
        w->kernel.spawn("driver", [w] {
            for (int i = 1; i <= 3; ++i) {
                wait(Time::ms(1));
                w->level.write(i);
                w->go.notify();
            }
        });
        w->listeners.push_back(&w->kernel.spawn("waiter", [w] {
            for (;;) {
                wait(w->go);
                w->woke.push_back(now());
                w->seen = &Kernel::current();
            }
        }));
        w->listeners.push_back(&w->kernel.spawn("sampler", [w] {
            for (;;) {
                wait(w->level.value_changed_event());
                w->last_level = w->level.read();
            }
        }));
    });
    a.join();

    std::vector<Time> woke;
    int last_level = -1;
    bool seen_own_kernel = false;
    std::uint64_t posedges = 0;
    std::thread b([&] {
        world->kernel.run_until(Time::ms(5));
        woke = world->woke;
        last_level = world->last_level;
        seen_own_kernel = world->seen == &world->kernel;
        posedges = world->clk.posedge_count();
        world.reset();
    });
    b.join();

    EXPECT_EQ(world, nullptr);
    EXPECT_EQ(woke, (std::vector<Time>{Time::ms(1), Time::ms(2), Time::ms(3)}));
    EXPECT_EQ(last_level, 3);
    EXPECT_TRUE(seen_own_kernel);
    EXPECT_EQ(posedges, 51u);  // edges at 0, 100 us, ..., 5 ms
}

TEST(KernelContextDeathTest, CurrentOutsideAnyRunIsFatal) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A live kernel that is not running does not make current() answer.
    Kernel idle;
    std::vector<std::string> fatals;
    auto prev = set_report_handler([&](Severity sev, std::string_view, std::string_view msg) {
        if (sev == Severity::fatal) {
            fatals.emplace_back(msg);
        }
    });
    EXPECT_THROW(Kernel::current(), SimError);
    set_report_handler(std::move(prev));
    ASSERT_EQ(fatals.size(), 1u);
    EXPECT_EQ(fatals[0], "no simulation kernel is running on this thread");
    // Unhandled, the fatal report ends the program.
    EXPECT_DEATH([]() noexcept { (void)Kernel::current(); }(),
                 "no simulation kernel is running on this thread");
}

}  // namespace
}  // namespace rtk::sysc
