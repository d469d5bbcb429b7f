// Integration: the co-simulation framework of Fig 5 -- RTC-driven tick,
// interrupt dispatch through the BFM controller, GUI widgets driven by
// BFM accesses, VCD probing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/videogame.hpp"
#include "gui/gui.hpp"

namespace rtk {
namespace {

using namespace tkernel;
using sysc::Time;

// Every co-simulation here must also tear down cleanly: a warning (say,
// an event destroyed while a process still waits on it) fails the test.
class CosimTest : public ::testing::Test {
protected:
    void SetUp() override {
        prev_ = sysc::set_report_handler(
            [this](sysc::Severity sev, std::string_view id, std::string_view msg) {
                if (sev == sysc::Severity::warning || sev == sysc::Severity::error) {
                    reports_.push_back(std::string(id) + ": " + std::string(msg));
                }
            });
    }
    void TearDown() override {
        sysc::set_report_handler(std::move(prev_));
        for (const std::string& r : reports_) {
            ADD_FAILURE() << "unexpected report: " << r;
        }
    }

private:
    sysc::ReportHandler prev_;
    std::vector<std::string> reports_;
};

TEST_F(CosimTest, RtcDrivesKernelTick) {
    sysc::Kernel k;
    TKernel tk{k};
    bfm::Bfm8051 bfm(tk.sim());
    bfm.rtc().drive(tk.external_tick());
    tk.set_user_main([] {});
    tk.power_on();
    k.run_until(Time::ms(50));
    // Kernel ticks track RTC ticks (1 ms resolution); the in-flight tick
    // at the horizon may not have been processed yet.
    EXPECT_GE(tk.tick_count() + 1, bfm.rtc().tick_count());
    EXPECT_LE(tk.tick_count(), bfm.rtc().tick_count());
    EXPECT_GE(tk.tick_count(), 49u);
}

TEST_F(CosimTest, BfmInterruptReachesKernelHandler) {
    sysc::Kernel k;
    TKernel tk{k};
    bfm::Bfm8051 bfm(tk.sim());
    bfm.intc().set_sink([&tk](unsigned line, bool) { tk.trigger_interrupt(line); });
    int hits = 0;
    tk.set_user_main([&] {
        T_DINT d;
        d.inthdr = [&](void*) { ++hits; };
        tk.tk_def_int(bfm::InterruptController::line_ext0, d);
    });
    tk.power_on();
    k.run_until(Time::ms(10));
    bfm.keypad().press(0);  // raises /INT0 through the controller
    k.run_until(Time::ms(20));
    EXPECT_EQ(hits, 1);
}

TEST_F(CosimTest, WidgetsRefreshAtBfmAccessRate) {
    sysc::Kernel k;
    TKernel tk{k};
    bfm::Bfm8051 bfm(tk.sim());
    app::GameConfig cfg;
    cfg.physics_period_ms = 20;
    app::VideoGame game(tk, bfm, cfg);
    app::VideoGame::wire(tk, bfm);
    game.install();
    gui::Frontend fe(gui::Mode::animate);
    gui::LcdWidget lw(k, bfm.lcd(), 100);
    fe.add(lw);
    fe.drive_from_bus(bfm.bus(), bfm::Bfm8051::lcd_base, 0x10, lw);
    lw.set_min_interval(Time::ms(20));  // one refresh per frame burst
    tk.power_on();
    k.run_until(Time::sec(1));
    // ~50 frames, one accepted refresh each (the rest frame-limited).
    EXPECT_GE(lw.refresh_count(), 40u);
    EXPECT_LE(lw.refresh_count(), 60u);
    EXPECT_GT(lw.skipped_count(), lw.refresh_count());
}

TEST_F(CosimTest, WaveformProbesBfmSignals) {
    const std::string path = "cosim_probe.vcd";
    {
        sysc::Kernel k;
        sim::PriorityPreemptiveScheduler sched;
        sim::SimApi api{k, sched};
        bfm::Bfm8051 bfm(api);
        sysc::TraceFile tf(k, path);
        tf.trace(bfm.pio().p0(), "P0");
        tf.trace(bfm.pio().p2(), "P2");
        tf.trace(bfm.pio().ale(), "ALE");
        sim::TThread& t = api.SIM_CreateThread("drv", sim::ThreadKind::task, 5, [&] {
            bfm.pio().select(1, 1);
            bfm.pio().data_write(0x55);
            api.SIM_Wait(Time::us(10), sim::ExecContext::task);
            bfm.pio().select(3, 0);
            bfm.pio().data_write(0x02);
        });
        api.SIM_StartThread(t);
        k.run_until(Time::ms(5));
        tf.flush();
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        const std::string vcd = ss.str();
        EXPECT_NE(vcd.find("P0"), std::string::npos);
        EXPECT_NE(vcd.find("ALE"), std::string::npos);
        EXPECT_NE(vcd.find("b1010101 "), std::string::npos);  // 0x55 on P0
    }
    std::remove(path.c_str());
}

TEST_F(CosimTest, StepModeGanttMatchesAnimateModeAccounting) {
    // Step mode (run in 1 ms increments) and animate mode (single run)
    // must produce identical simulated results.
    auto run = [](bool step) {
        sysc::Kernel k;
        TKernel tk{k};
        bfm::Bfm8051 bfm(tk.sim());
        app::VideoGame game(tk, bfm);
        app::VideoGame::wire(tk, bfm);
        game.install();
        tk.power_on();
        if (step) {
            for (int i = 0; i < 500; ++i) {
                k.run_for(Time::ms(1));  // paper's "step of system tick"
            }
        } else {
            k.run_until(Time::ms(500));
        }
        return std::make_tuple(game.frames_rendered(), game.score(),
                               tk.sim().total_dispatches(),
                               tk.sim().gantt().total_busy_time());
    };
    EXPECT_EQ(run(true), run(false));
}

TEST_F(CosimTest, SerialLoopToHost) {
    sysc::Kernel k;
    TKernel tk{k};
    bfm::Bfm8051 bfm(tk.sim());
    tk.set_user_main([&] {
        // Send a status string over the UART, polling TI via the BFM.
        for (char c : std::string("RDY")) {
            while (!bfm.serial_send(static_cast<std::uint8_t>(c))) {
                tk.tk_dly_tsk(1);
            }
            tk.tk_dly_tsk(2);  // > frame time at 9600 baud
        }
    });
    tk.power_on();
    k.run_until(Time::ms(50));
    EXPECT_EQ(bfm.serial().transmitted(), "RDY");
}

}  // namespace
}  // namespace rtk
