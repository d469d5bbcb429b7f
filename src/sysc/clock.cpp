#include "sysc/clock.hpp"

#include "sysc/kernel.hpp"
#include "sysc/process.hpp"
#include "sysc/report.hpp"

namespace rtk::sysc {

Clock::~Clock() {
    proc_->kill();  // the generator references this object
}

Clock::Clock(Kernel& kernel, std::string name, Time period, unsigned duty_percent,
             Time start_delay)
    : name_(std::move(name)),
      period_(period),
      start_delay_(start_delay),
      sig_(kernel, name_) {
    if (period.is_zero()) {
        report(Severity::fatal, "clock", "clock '" + name_ + "' with zero period");
    }
    if (duty_percent == 0 || duty_percent >= 100) {
        report(Severity::fatal, "clock", "clock '" + name_ + "' duty cycle out of range");
    }
    high_time_ = period * duty_percent / 100;
    low_time_ = period - high_time_;
    proc_ = &kernel.spawn(name_ + ".gen", [this] {
        if (!start_delay_.is_zero()) {
            wait(start_delay_);
        }
        for (;;) {
            sig_.write(true);
            ++posedge_count_;
            wait(high_time_);
            sig_.write(false);
            wait(low_time_);
        }
    });
}

}  // namespace rtk::sysc
