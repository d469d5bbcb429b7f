// rtk::sysc::Clock -- free-running clock source (sc_clock analogue).
// Drives a Signal<bool>; the paper's BFM real-time clock and the kernel
// system tick are built from this.
#pragma once

#include <cstdint>
#include <string>

#include "sysc/signal.hpp"
#include "sysc/time.hpp"

namespace rtk::sysc {

class Process;

class Clock {
public:
    /// Generator process and signal live on `kernel`; duty_percent is
    /// the high fraction in percent (1..99).
    Clock(Kernel& kernel, std::string name, Time period, unsigned duty_percent = 50,
          Time start_delay = Time::zero());
    ~Clock();

    Clock(const Clock&) = delete;
    Clock& operator=(const Clock&) = delete;

    bool read() const { return sig_.read(); }
    Signal<bool>& signal() { return sig_; }
    Event& posedge_event() { return sig_.posedge_event(); }
    Event& negedge_event() { return sig_.negedge_event(); }

    Time period() const { return period_; }
    std::uint64_t posedge_count() const { return posedge_count_; }

private:
    std::string name_;
    Time period_;
    Time high_time_;
    Time low_time_;
    Time start_delay_;
    Signal<bool> sig_;
    std::uint64_t posedge_count_ = 0;
    Process* proc_ = nullptr;
};

}  // namespace rtk::sysc
