// Widget layer tests: host-cost model, refresh-from-bus wiring,
// step/animate mode availability, frame limiting.
#include <gtest/gtest.h>

#include "bfm/bfm.hpp"
#include "gui/gui.hpp"
#include "sim/sim.hpp"
#include "sysc/sysc.hpp"

namespace rtk::gui {
namespace {

using sysc::Time;

TEST(HostCostModel, BurnsDeterministically) {
    HostCostModel m(1000);
    EXPECT_EQ(m.iterations(), 1000u);
    // Two burns return the same hash (pure function of iterations).
    EXPECT_EQ(m.burn(), m.burn());
    m.set_iterations(0);
    m.burn();  // zero work is fine
}

class WidgetTest : public ::testing::Test {
protected:
    sysc::Kernel k;
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
};

struct CountingWidget final : Widget {
    int renders = 0;
    explicit CountingWidget(const sysc::Kernel& k) : Widget(k, "counting", 10) {}
    std::string render() override {
        ++renders;
        return "r" + std::to_string(renders);
    }
};

TEST_F(WidgetTest, RefreshBurnsAndRenders) {
    CountingWidget w(k);
    w.refresh();
    w.refresh();
    EXPECT_EQ(w.renders, 2);
    EXPECT_EQ(w.refresh_count(), 2u);
    EXPECT_EQ(w.host_work_done(), 20u);
    EXPECT_EQ(w.last_rendering(), "r2");
}

TEST_F(WidgetTest, FrameLimiterSkipsHastyRefreshes) {
    CountingWidget w(k);
    w.set_min_interval(Time::ms(10));
    k.spawn("drv", [&] {
        w.refresh();            // t=0: accepted
        w.refresh();            // same instant: skipped
        sysc::wait(Time::ms(5));
        w.refresh();            // too soon: skipped
        sysc::wait(Time::ms(5));
        w.refresh();            // t=10: accepted
    });
    k.run();
    EXPECT_EQ(w.refresh_count(), 2u);
    EXPECT_EQ(w.skipped_count(), 2u);
}

TEST_F(WidgetTest, LcdWidgetRendersFrame) {
    bfm::Bfm8051 board(api);
    LcdWidget w(k, board.lcd());
    sim::TThread& t = api.SIM_CreateThread("drv", sim::ThreadKind::task, 5, [&] {
        board.lcd_print(0, 0, "HELLO");
    });
    api.SIM_StartThread(t);
    k.run_until(Time::ms(10));
    w.refresh();
    EXPECT_NE(w.last_rendering().find("HELLO"), std::string::npos);
    EXPECT_NE(w.last_rendering().find("+----------------+"), std::string::npos);
}

TEST_F(WidgetTest, SsdAndKeypadWidgets) {
    bfm::Bfm8051 board(api);
    SsdWidget sw(k, board.ssd());
    KeypadWidget kw(k, board.keypad());
    board.keypad().press(5);
    sw.refresh();
    kw.refresh();
    EXPECT_NE(kw.last_rendering().find("5"), std::string::npos);
    EXPECT_EQ(sw.last_rendering().front(), '[');
}

TEST_F(WidgetTest, KeypadScriptInjectsEvents) {
    bfm::Bfm8051 board(api);
    KeypadWidget kw(k, board.keypad());
    kw.play_script(k, {{Time::ms(5), 2, true}, {Time::ms(10), 2, false}});
    k.run_until(Time::ms(7));
    EXPECT_TRUE(board.keypad().is_pressed(2));
    k.run_until(Time::ms(12));
    EXPECT_FALSE(board.keypad().is_pressed(2));
    EXPECT_EQ(kw.injected_events(), 2u);
}

TEST_F(WidgetTest, ModeAvailability) {
    GanttWidget gw(api, Time::ms(10), Time::ms(1));
    EnergyDistributionWidget ew(api);
    EXPECT_TRUE(gw.available_in(Mode::step));
    EXPECT_FALSE(gw.available_in(Mode::animate));
    EXPECT_FALSE(ew.available_in(Mode::step));
    EXPECT_TRUE(ew.available_in(Mode::animate));
}

TEST_F(WidgetTest, FrontendDrivesWidgetFromBusAccess) {
    bfm::Bfm8051 board(api);
    Frontend fe(Mode::animate);
    LcdWidget lw(k, board.lcd());
    fe.add(lw);
    fe.drive_from_bus(board.bus(), bfm::Bfm8051::lcd_base, 0x10, lw);
    sim::TThread& t = api.SIM_CreateThread("drv", sim::ThreadKind::task, 5, [&] {
        board.lcd_print(0, 0, "X");
        board.bus().write_xdata(0x0100, 1);  // non-LCD access: no refresh
    });
    api.SIM_StartThread(t);
    k.run_until(Time::ms(5));
    EXPECT_GT(lw.refresh_count(), 0u);
    const auto count = lw.refresh_count();
    EXPECT_GT(fe.total_refreshes(), 0u);
    EXPECT_EQ(fe.total_refreshes(), count);
}

TEST_F(WidgetTest, FrontendSkipsUnavailableWidgets) {
    bfm::Bfm8051 board(api);
    Frontend fe(Mode::animate);  // animate: Gantt unavailable
    GanttWidget gw(api, Time::ms(10), Time::ms(1));
    fe.add(gw);
    fe.drive_from_bus(board.bus(), 0, 0x100, gw);
    board.bus().write_xdata(0x10, 1);
    EXPECT_EQ(gw.refresh_count(), 0u);
    EXPECT_EQ(fe.render_all().find("gantt"), std::string::npos);
}

TEST_F(WidgetTest, AnimatePeriodicRefresh) {
    bfm::Bfm8051 board(api);
    Frontend fe(Mode::animate);
    EnergyDistributionWidget ew(api);
    fe.add(ew);
    fe.animate(k, ew, Time::ms(10));
    k.run_until(Time::ms(55));
    EXPECT_EQ(ew.refresh_count(), 5u);
    EXPECT_NE(ew.last_rendering().find("battery"), std::string::npos);
}

TEST_F(WidgetTest, GanttWidgetShowsRecentWindow) {
    GanttWidget gw(api, Time::ms(100), Time::ms(1));
    sim::TThread& t = api.SIM_CreateThread("busy", sim::ThreadKind::task, 5, [&] {
        api.SIM_Wait(Time::ms(5), sim::ExecContext::task);
    });
    api.SIM_StartThread(t);
    k.run();
    gw.refresh();
    EXPECT_NE(gw.last_rendering().find("busy"), std::string::npos);
    EXPECT_NE(gw.last_rendering().find("#"), std::string::npos);
}

}  // namespace
}  // namespace rtk::gui
