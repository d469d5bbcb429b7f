#include <gtest/gtest.h>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

class EventTest : public ::testing::Test {
protected:
    Kernel k;
};

TEST_F(EventTest, ImmediateNotificationWakesWaiterSameTimestamp) {
    Event e(k, "e");
    Time woke_at = Time::max();
    k.spawn("waiter", [&] {
        wait(e);
        woke_at = now();
    });
    k.spawn("notifier", [&] {
        wait(Time::us(5));
        e.notify();
    });
    k.run();
    EXPECT_EQ(woke_at, Time::us(5));
}

TEST_F(EventTest, TimedNotificationArrivesAtRightTime) {
    Event e(k, "e");
    Time woke_at;
    k.spawn("waiter", [&] {
        wait(e);
        woke_at = now();
    });
    e.notify(Time::ms(3));
    k.run();
    EXPECT_EQ(woke_at, Time::ms(3));
}

TEST_F(EventTest, EarlierNotificationOverridesLater) {
    Event e(k, "e");
    Time woke_at;
    int wakes = 0;
    k.spawn("waiter", [&] {
        wait(e);
        woke_at = now();
        ++wakes;
    });
    e.notify(Time::ms(10));
    e.notify(Time::ms(2));  // earlier wins
    k.run();
    EXPECT_EQ(woke_at, Time::ms(2));
    EXPECT_EQ(wakes, 1);
}

TEST_F(EventTest, LaterNotificationIsIgnoredWhileEarlierPends) {
    Event e(k, "e");
    Time woke_at;
    k.spawn("waiter", [&] {
        wait(e);
        woke_at = now();
    });
    e.notify(Time::ms(2));
    e.notify(Time::ms(10));  // ignored
    k.run();
    EXPECT_EQ(woke_at, Time::ms(2));
}

TEST_F(EventTest, CancelRemovesPendingNotification) {
    Event e(k, "e");
    bool woke = false;
    k.spawn("waiter", [&] {
        wait(e);
        woke = true;
    });
    e.notify(Time::ms(1));
    e.cancel();
    k.run_until(Time::ms(10));
    EXPECT_FALSE(woke);
}

TEST_F(EventTest, DeltaNotificationWakesWithoutTimeAdvance) {
    Event e(k, "e");
    bool woke = false;
    std::uint64_t woke_delta = 0;
    k.spawn("waiter", [&] {
        wait(e);
        woke = true;
        woke_delta = k.delta_count();
    });
    e.notify_delta();
    k.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(k.now(), Time::zero());
}

TEST_F(EventTest, ZeroDelayNotifyIsDelta) {
    Event e(k, "e");
    bool woke = false;
    k.spawn("waiter", [&] {
        wait(e);
        woke = true;
    });
    e.notify(Time::zero());
    k.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(k.now(), Time::zero());
}

TEST_F(EventTest, MultipleWaitersAllWake) {
    Event e(k, "e");
    int woke = 0;
    for (int i = 0; i < 5; ++i) {
        k.spawn("w" + std::to_string(i), [&] {
            wait(e);
            ++woke;
        });
    }
    e.notify(Time::us(1));
    k.run();
    EXPECT_EQ(woke, 5);
}

TEST_F(EventTest, NotifyWithoutWaitersIsLost) {
    Event e(k, "e");
    e.notify();  // immediate, nobody waiting: lost per SystemC semantics
    bool woke = false;
    k.spawn("late", [&] {
        wait(Time::ms(1), e);
        woke = (now() < Time::ms(1));
    });
    k.run();
    EXPECT_FALSE(woke);
}

TEST_F(EventTest, WaitAnyReturnsWinningIndex) {
    Event a(k, "a"), b(k, "b");
    std::size_t winner = 99;
    k.spawn("waiter", [&] { winner = wait_any({&a, &b}); });
    b.notify(Time::us(1));
    k.run();
    EXPECT_EQ(winner, 1u);
}

TEST_F(EventTest, WaitAnyDeregistersFromLosers) {
    Event a(k, "a"), b(k, "b");
    k.spawn("waiter", [&] { wait_any({&a, &b}); });
    a.notify(Time::us(1));
    k.run();
    EXPECT_FALSE(a.has_waiters());
    EXPECT_FALSE(b.has_waiters());
}

TEST_F(EventTest, TimedWaitTimesOut) {
    Event e(k, "e");
    bool got_event = true;
    k.spawn("waiter", [&] { got_event = wait(Time::ms(5), e); });
    k.run();
    EXPECT_FALSE(got_event);
    EXPECT_EQ(k.now(), Time::ms(5));
}

TEST_F(EventTest, TimedWaitGetsEventBeforeTimeout) {
    Event e(k, "e");
    bool got_event = false;
    k.spawn("waiter", [&] { got_event = wait(Time::ms(5), e); });
    e.notify(Time::ms(2));
    k.run_until(Time::ms(20));
    EXPECT_TRUE(got_event);
}

TEST_F(EventTest, PendingStateIsObservable) {
    Event e(k, "e");
    EXPECT_EQ(e.pending(), Event::Pending::none);
    e.notify(Time::ms(1));
    EXPECT_EQ(e.pending(), Event::Pending::timed);
    EXPECT_EQ(e.pending_at(), Time::ms(1));
    e.cancel();
    EXPECT_EQ(e.pending(), Event::Pending::none);
    e.notify_delta();
    EXPECT_EQ(e.pending(), Event::Pending::delta);
}

TEST_F(EventTest, NotifyFromOutsideProcessContextWorks) {
    Event e(k, "e");
    bool woke = false;
    k.spawn("waiter", [&] {
        wait(e);
        woke = true;
    });
    k.run_until(Time::ms(1));
    e.notify();  // from the testbench, between run calls
    k.run_until(Time::ms(2));
    EXPECT_TRUE(woke);
}

}  // namespace
}  // namespace rtk::sysc
