#include <gtest/gtest.h>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

class SignalTest : public ::testing::Test {
protected:
    Kernel k;
};

TEST_F(SignalTest, InitialValue) {
    Signal<int> s(k, "s", 42);
    EXPECT_EQ(s.read(), 42);
}

TEST_F(SignalTest, WriteTakesEffectInUpdatePhase) {
    Signal<int> s(k, "s", 0);
    int seen_during_eval = -1;
    k.spawn("writer", [&] {
        s.write(7);
        seen_during_eval = s.read();  // evaluate phase: old value visible
    });
    k.run();
    EXPECT_EQ(seen_during_eval, 0);
    EXPECT_EQ(s.read(), 7);
}

TEST_F(SignalTest, LastWriteWins) {
    Signal<int> s(k, "s", 0);
    k.spawn("writer", [&] {
        s.write(1);
        s.write(2);
        s.write(3);
    });
    k.run();
    EXPECT_EQ(s.read(), 3);
}

TEST_F(SignalTest, ValueChangedEventFires) {
    Signal<int> s(k, "s", 0);
    int observed = -1;
    k.spawn("watcher", [&] {
        wait(s.value_changed_event());
        observed = s.read();
    });
    k.spawn("writer", [&] {
        wait(Time::us(1));
        s.write(9);
    });
    k.run();
    EXPECT_EQ(observed, 9);
}

TEST_F(SignalTest, NoEventWhenValueUnchanged) {
    Signal<int> s(k, "s", 5);
    bool woke = false;
    k.spawn("watcher", [&] {
        wait(s.value_changed_event());
        woke = true;
    });
    k.spawn("writer", [&] { s.write(5); });  // same value
    k.run_until(Time::ms(1));
    EXPECT_FALSE(woke);
    EXPECT_EQ(s.change_count(), 0u);
}

TEST_F(SignalTest, BoolEdges) {
    Signal<bool> s(k, "s", false);
    int pos = 0, neg = 0;
    k.spawn("pos", [&] {
        for (;;) {
            wait(s.posedge_event());
            ++pos;
        }
    });
    k.spawn("neg", [&] {
        for (;;) {
            wait(s.negedge_event());
            ++neg;
        }
    });
    k.spawn("driver", [&] {
        for (int i = 0; i < 3; ++i) {
            wait(Time::us(1));
            s.write(true);
            wait(Time::us(1));
            s.write(false);
        }
    });
    k.run_until(Time::ms(1));
    EXPECT_EQ(pos, 3);
    EXPECT_EQ(neg, 3);
}

TEST_F(SignalTest, ChangeCountAndTimestamp) {
    Signal<int> s(k, "s", 0);
    k.spawn("writer", [&] {
        wait(Time::ms(2));
        s.write(1);
        wait(Time::ms(2));
        s.write(2);
    });
    k.run();
    EXPECT_EQ(s.change_count(), 2u);
    EXPECT_EQ(s.last_change(), Time::ms(4));
}

TEST_F(SignalTest, ReadersSeeNewValueOneDeltalater) {
    Signal<int> s(k, "s", 0);
    std::vector<int> seen;
    k.spawn("watcher", [&] {
        for (int i = 0; i < 2; ++i) {
            wait(s.value_changed_event());
            seen.push_back(s.read());
        }
    });
    k.spawn("writer", [&] {
        s.write(10);
        wait(Time::us(1));
        s.write(20);
    });
    k.run();
    EXPECT_EQ(seen, (std::vector<int>{10, 20}));
}

}  // namespace
}  // namespace rtk::sysc
