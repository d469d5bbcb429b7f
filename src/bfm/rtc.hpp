// Real-time clock of the BFM: "Real Time Clock driving the kernel Central
// Module with default timing resolution = 1 ms" (paper §5.1).
//
// Exposes the tick as an event, can notify a consumer's tick input
// (TKernel::external_tick) with it, and has a small register window (tick
// counter) as a memory-mapped device.
#pragma once

#include <cstdint>

#include "bfm/device.hpp"
#include "sysc/event.hpp"
#include "sysc/time.hpp"

namespace rtk::sysc {
class Process;
}

namespace rtk::bfm {

class RealTimeClock final : public Device {
public:
    /// Context-explicit form: tick process and event live on `kernel`.
    explicit RealTimeClock(sysc::Kernel& kernel,
                           sysc::Time resolution = sysc::Time::ms(1));
    ~RealTimeClock() override;

    sysc::Event& tick_event() { return tick_; }
    /// Also notify `tick_input` on every tick. The consumer owns that
    /// event and must outlive the clock, so no waiter is ever left on an
    /// event that dies first.
    void drive(sysc::Event& tick_input) { sink_ = &tick_input; }
    sysc::Time resolution() const { return resolution_; }
    std::uint64_t tick_count() const { return count_; }

    // Device window: offsets 0..3 read the 32-bit tick counter (LE);
    // writing offset 0 clears it.
    const std::string& name() const override { return name_; }
    std::uint8_t read(std::uint16_t offset) override;
    void write(std::uint16_t offset, std::uint8_t value) override;

private:
    std::string name_ = "rtc";
    sysc::Time resolution_;
    sysc::Event tick_;
    sysc::Event* sink_ = nullptr;
    std::uint64_t count_ = 0;
    sysc::Process* proc_ = nullptr;
};

}  // namespace rtk::bfm
