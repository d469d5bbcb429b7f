// The full case study of the paper (§5): RTK-Spec TRON + i8051 BFM +
// video-game application + virtual-prototype widgets.
//
//   $ ./videogame [seconds]
//
// Reproduces the Fig 5 co-simulator: the BFM's real-time clock drives the
// kernel tick, the keypad raises /INT0 through the interrupt controller,
// the game tasks render through the LCD/SSD drivers, and the GUI widgets
// refresh on BFM accesses. Prints the virtual prototype state, the energy
// distribution (Fig 7) and the DS listing (Fig 8) at the end.
#include <cstdio>
#include <cstdlib>

#include "api/api.hpp"
#include "app/videogame.hpp"
#include "gui/gui.hpp"
#include "harness/simulation.hpp"
#include "tkds/tkds.hpp"

using namespace rtk;
using sysc::Time;

int main(int argc, char** argv) {
    const unsigned seconds = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 2;

    Simulation sim;
    tkernel::TKernel& tk = sim.os();
    bfm::Bfm8051 board(tk.sim());

    app::VideoGame game(tk, board);
    app::VideoGame::wire(tk, board);  // RTC -> tick, intc -> interrupt dispatch
    game.install();

    // Virtual prototype: widgets wrap the peripherals (animate mode).
    gui::Frontend fe(gui::Mode::animate);
    gui::LcdWidget lcd_w(sim.kernel(), board.lcd());
    gui::SsdWidget ssd_w(sim.kernel(), board.ssd());
    gui::KeypadWidget pad_w(sim.kernel(), board.keypad());
    gui::EnergyDistributionWidget energy_w(tk.sim());
    fe.add(lcd_w);
    fe.add(ssd_w);
    fe.add(pad_w);
    fe.add(energy_w);
    fe.drive_from_bus(board.bus(), bfm::Bfm8051::lcd_base, 0x10, lcd_w);
    fe.drive_from_bus(board.bus(), bfm::Bfm8051::ssd_base, 0x10, ssd_w);
    fe.animate(sim.kernel(), energy_w, Time::ms(250));

    // Scripted player: nudge the paddle left/right through the match.
    std::vector<gui::KeypadWidget::ScriptEvent> script;
    for (unsigned s = 0; s < seconds; ++s) {
        const Time base = Time::sec(s);
        script.push_back({base + Time::ms(200), app::VideoGame::key_right, true});
        script.push_back({base + Time::ms(260), app::VideoGame::key_right, false});
        script.push_back({base + Time::ms(600), app::VideoGame::key_left, true});
        script.push_back({base + Time::ms(660), app::VideoGame::key_left, false});
    }
    pad_w.play_script(sim.kernel(), std::move(script));

    sim.power_on();
    sim.run_until(Time::sec(seconds));

    std::printf("=== virtual system prototype after %u s ===\n", seconds);
    std::fputs(fe.render_all().c_str(), stdout);
    std::printf("\nframes=%llu dropped=%llu score=%u misses=%u rounds=%u keys=%llu\n",
                static_cast<unsigned long long>(game.frames_rendered()),
                static_cast<unsigned long long>(game.frames_dropped()), game.score(),
                game.misses(), game.rounds(),
                static_cast<unsigned long long>(game.key_events()));

    std::puts("\n=== T-Kernel/DS listing (Fig 8) ===");
    std::fputs(tkds::render_listing(tk).c_str(), stdout);

    // Where did every game task end up? (api wait-cause pretty-printers;
    // the game's object graph itself was built through api::SystemBuilder
    // -- see app::VideoGame::setup.)
    std::puts("\n=== final task states (rtk::api view) ===");
    const tkernel::ID ids[] = {game.lcd_task(), game.keypad_task(),
                               game.ssd_task(), game.idle_task()};
    for (tkernel::ID id : ids) {
        if (id == 0) {
            continue;
        }
        tkernel::T_RTSK r{};
        if (tk.tk_ref_tsk(id, &r) == tkernel::E_OK) {
            std::printf("  task %-2d %s\n", id,
                        api::describe_task_state(r).c_str());
        }
    }
    return 0;
}
