// Fig 4 reproduction: interaction with BFM-wrapped H/W peripherals.
//
// Exercises every BFM driver-call class from an application task, prints
// the per-call cycle/energy budget table ("Each BFM Call will be
// associated with a cycle budget ... and an estimation on the energy
// consumed during that BFM access"), and dumps a VCD waveform of the
// multiplexed parallel port -- the paper's "monitoring H/W by probing
// signals ... in a waveform viewer".
#include <cstdio>

#include "bench_util.hpp"
#include "bfm/bfm.hpp"
#include "sim/sim.hpp"
#include "sysc/sysc.hpp"

using namespace rtk;
using sysc::Time;

int main() {
    std::puts("Fig 4: BFM driver calls -- cycle budgets and waveform probe\n");

    sysc::Kernel k;
    sim::PriorityPreemptiveScheduler sched;
    sim::SimApi api{k, sched};
    bfm::Bfm8051 board(api);

    sysc::TraceFile vcd(k, "fig4_bfm.vcd");
    vcd.trace(board.pio().p0(), "P0_data");
    vcd.trace(board.pio().p2(), "P2_select");
    vcd.trace(board.pio().ale(), "ALE");

    struct Probe {
        const char* call;
        std::uint64_t cycles;
        double energy_nj;
    };
    std::vector<Probe> probes;

    auto& task = api.SIM_CreateThread("driver_task", sim::ThreadKind::task, 5, [&] {
        auto measure = [&](const char* name, auto fn) {
            const Time t0 = api.self().token().cet(sim::ExecContext::bfm_access);
            const double e0 = api.self().token().cee_nj(sim::ExecContext::bfm_access);
            fn();
            const Time t1 = api.self().token().cet(sim::ExecContext::bfm_access);
            const double e1 = api.self().token().cee_nj(sim::ExecContext::bfm_access);
            probes.push_back({name,
                              (t1 - t0) / api.costs().at(sim::ExecContext::bfm_access).time_per_unit,
                              e1 - e0});
        };
        measure("xdata write (MOVX)", [&] { board.bus().write_xdata(0x0100, 0x42); });
        measure("xdata read (MOVX)", [&] { (void)board.bus().read_xdata(0x0100); });
        measure("LCD putc (busy-poll + data)", [&] { board.lcd_putc('A'); });
        measure("LCD command (clear)", [&] { board.lcd_clear(); });
        measure("keypad full matrix scan", [&] { (void)board.keypad_scan(); });
        measure("SSD show 4 digits", [&] { board.ssd_show(1234); });
        measure("serial send (status poll + SBUF)", [&] { (void)board.serial_send('K'); });

        // Drive the multiplexed port for the waveform.
        api.SIM_Wait(Time::us(50), sim::ExecContext::task);
        board.pio().select(1, 1);
        board.pio().data_write(0xA5);
        api.SIM_Wait(Time::us(20), sim::ExecContext::task);
        board.pio().select(3, 1);
        board.pio().data_write(0x3C);
        api.SIM_Wait(Time::us(20), sim::ExecContext::task);
    });
    api.SIM_StartThread(task);
    k.run_until(Time::ms(20));  // bounded: the BFM's RTC ticks forever
    vcd.flush();

    bench::Table t({"BFM call (driver model)", "machine cycles", "energy [nJ]"});
    for (const auto& p : probes) {
        t.add_row({p.call, std::to_string(p.cycles), bench::fmt(p.energy_nj, 0)});
    }
    t.print();

    std::printf("\ntotal BFM accesses: %llu, bus cycles: %llu\n",
                static_cast<unsigned long long>(board.bus().access_count()),
                static_cast<unsigned long long>(board.bus().cycles_consumed()));
    std::printf("waveform written to fig4_bfm.vcd (%llu value changes) -- "
                "open with any VCD viewer\n",
                static_cast<unsigned long long>(vcd.value_changes_written()));
    std::printf("task CET in bfm context: %s\n",
                task.token().cet(sim::ExecContext::bfm_access).to_string().c_str());
    return 0;
}
