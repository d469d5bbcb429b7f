// Fig 6 reproduction: the Execution Time/Energy Trace widget.
//
// Runs the video-game co-simulation in step mode (the paper: the trace
// display "is available in step mode") and renders the Gantt chart with
// per-context patterns: task dispatching, interrupt handling, preemption
// and BFM accesses are all visible, as in the paper's screenshot.
#include <cstdio>

#include "app/videogame.hpp"
#include "bench_util.hpp"
#include "gui/gui.hpp"

using namespace rtk;
using sysc::Time;

int main() {
    std::puts("Fig 6: Execution Time/Energy Trace (step mode)\n");

    sysc::Kernel k;
    tkernel::TKernel tk{k};
    bfm::Bfm8051 board(tk.sim());
    app::GameConfig gc;
    gc.physics_period_ms = 20;  // busier trace
    app::VideoGame game(tk, board, gc);
    app::VideoGame::wire(tk, board);
    game.install();

    gui::Frontend fe(gui::Mode::step);
    gui::GanttWidget trace(tk.sim(), Time::ms(60), Time::us(500));
    fe.add(trace);

    // Scripted keypresses create interrupt activity in the window.
    gui::KeypadWidget pad(k, board.keypad());
    fe.add(pad);
    pad.play_script(k, {{Time::ms(105), app::VideoGame::key_right, true},
                     {Time::ms(125), app::VideoGame::key_right, false},
                     {Time::ms(143), app::VideoGame::key_left, true},
                     {Time::ms(160), app::VideoGame::key_left, false}});

    tk.power_on();
    // Step mode: "we advance simulation in step of system tick (1ms)".
    for (int step = 0; step < 170; ++step) {
        k.run_for(Time::ms(1));
    }
    trace.refresh();

    std::puts("legend: S startup | o OS service | # task basic block | "
              "H handler | B BFM access | . idle\n");
    std::fputs(trace.last_rendering().c_str(), stdout);

    // Energy per segment, as the widget colors segments by context.
    std::puts("\nper-context totals over the window:");
    bench::Table t({"context", "busy time [ms]", "energy [uJ]"});
    double ctx_cee[sim::exec_context_count] = {};
    Time ctx_cet[sim::exec_context_count] = {};
    for (const auto& seg : tk.sim().gantt().segments()) {
        const auto c = static_cast<std::size_t>(seg.ctx);
        ctx_cet[c] += seg.end - seg.start;
        ctx_cee[c] += seg.energy_nj;
    }
    for (std::size_t c = 0; c < sim::exec_context_count; ++c) {
        t.add_row({sim::to_string(static_cast<sim::ExecContext>(c)),
                   bench::fmt(ctx_cet[c].to_ms(), 3),
                   bench::fmt(ctx_cee[c] * 1e-3, 2)});
    }
    t.print();

    std::printf("\nmarkers: dispatches=%llu preemptions=%llu irq-enter=%llu "
                "sleeps=%llu wakeups=%llu\n",
                static_cast<unsigned long long>(
                    tk.sim().gantt().marker_count(sim::GanttRecorder::MarkerKind::dispatch)),
                static_cast<unsigned long long>(
                    tk.sim().gantt().marker_count(sim::GanttRecorder::MarkerKind::preemption)),
                static_cast<unsigned long long>(
                    tk.sim().gantt().marker_count(sim::GanttRecorder::MarkerKind::interrupt_enter)),
                static_cast<unsigned long long>(
                    tk.sim().gantt().marker_count(sim::GanttRecorder::MarkerKind::sleep)),
                static_cast<unsigned long long>(
                    tk.sim().gantt().marker_count(sim::GanttRecorder::MarkerKind::wakeup)));
    return 0;
}
