#include "sysc/event.hpp"

#include <algorithm>

#include "sysc/kernel.hpp"
#include "sysc/process.hpp"
#include "sysc/report.hpp"

namespace rtk::sysc {

Event::Event(Kernel& kernel, std::string name)
    : kernel_(&kernel), name_(std::move(name)) {}

Event::~Event() {
    if (!waiters_.empty()) {
        report(Severity::warning, "event",
               "event '" + name_ + "' destroyed while " +
                   std::to_string(waiters_.size()) + " process(es) wait on it");
        for (Process* p : waiters_) {
            auto& wl = p->waiting_on_;
            wl.erase(std::remove(wl.begin(), wl.end(), this), wl.end());
        }
        waiters_.clear();
    }
    kernel_->forget_event(*this);
}

void Event::notify() {
    cancel();  // immediate is the earliest notification; it wins
    trigger();
}

void Event::notify_delta() {
    if (pending_ == Pending::delta) {
        return;  // already pending at the earliest schedulable point
    }
    cancel();
    pending_ = Pending::delta;
    kernel_->schedule_delta(*this);
}

void Event::notify(Time delay) {
    if (delay.is_zero()) {
        notify_delta();
        return;
    }
    const Time at = kernel_->now() + delay;
    if (pending_ == Pending::delta) {
        return;  // pending delta is earlier than any timed notification
    }
    if (pending_ == Pending::timed && pending_at_ <= at) {
        return;  // earlier pending timed notification survives
    }
    cancel();
    pending_ = Pending::timed;
    pending_at_ = at;
    kernel_->schedule_timed(*this, at);
}

void Event::cancel() {
    // Lazy cancellation: clearing pending_ marks any queued kernel entry
    // (delta slot or timed-heap slot) stale; the kernel drops it when it
    // surfaces, or reuses the timed slot on the next notify(Time).
    pending_ = Pending::none;
}

void Event::trigger() {
    pending_ = Pending::none;
    // Move out first: waking a process deregisters it from all events it
    // waits on, mutating waiters_ of *other* events, not this local copy.
    std::vector<Process*> woken;
    woken.swap(waiters_);
    for (Process* p : woken) {
        kernel_->make_runnable(*p, this);
    }
}

}  // namespace rtk::sysc
