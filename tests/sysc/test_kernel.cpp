#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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
