#include <gtest/gtest.h>

#include "sysc/sysc.hpp"

namespace rtk::sysc {
namespace {

class ClockTest : public ::testing::Test {
protected:
    Kernel k;
};

TEST_F(ClockTest, PosedgeCountMatchesPeriods) {
    Clock clk(k, "clk", Time::us(10));
    k.run_until(Time::us(95));
    // Posedges at 0, 10, ..., 90 -> 10 edges.
    EXPECT_EQ(clk.posedge_count(), 10u);
}

TEST_F(ClockTest, EdgesObservableViaEvents) {
    Clock clk(k, "clk", Time::us(10));
    std::vector<Time> edges;
    k.spawn("watch", [&] {
        for (int i = 0; i < 3; ++i) {
            wait(clk.posedge_event());
            edges.push_back(now());
        }
    });
    k.run_until(Time::us(100));
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0], Time::zero());
    EXPECT_EQ(edges[1], Time::us(10));
    EXPECT_EQ(edges[2], Time::us(20));
}

TEST_F(ClockTest, DutyCycle) {
    Clock clk(k, "clk", Time::us(10), 30);  // high 3 us, low 7 us
    Time high_end, low_end;
    k.spawn("watch", [&] {
        wait(clk.signal().negedge_event());
        high_end = now();
        wait(clk.signal().posedge_event());
        low_end = now();
    });
    k.run_until(Time::us(50));
    EXPECT_EQ(high_end, Time::us(3));
    EXPECT_EQ(low_end, Time::us(10));
}

TEST_F(ClockTest, StartDelay) {
    Clock clk(k, "clk", Time::us(10), 50, Time::us(7));
    Time first_edge;
    k.spawn("watch", [&] {
        wait(clk.posedge_event());
        first_edge = now();
    });
    k.run_until(Time::us(30));
    EXPECT_EQ(first_edge, Time::us(7));
}

TEST_F(ClockTest, ZeroPeriodIsFatal) {
    EXPECT_THROW(Clock(k, "bad", Time::zero()), SimError);
}

TEST_F(ClockTest, BadDutyIsFatal) {
    EXPECT_THROW(Clock(k, "bad", Time::us(1), 0), SimError);
    EXPECT_THROW(Clock(k, "bad2", Time::us(1), 100), SimError);
}

}  // namespace
}  // namespace rtk::sysc
