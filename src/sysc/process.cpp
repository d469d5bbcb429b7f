#include "sysc/process.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sysc/kernel.hpp"
#include "sysc/report.hpp"

namespace rtk::sysc {

Process::Process(Kernel& kernel, std::string name, std::function<void()> body,
                 std::size_t stack_bytes, std::uint64_t id)
    : kernel_(kernel),
      name_(std::move(name)),
      id_(id),
      coro_(std::move(body), stack_bytes, &kernel.stack_pool()),
      timeout_ev_(kernel, name_ + ".timeout"),
      terminated_ev_(kernel, name_ + ".terminated") {}

void Process::kill() {
    kernel_.kill_process(*this);
}

// ---- wait API --------------------------------------------------------------

namespace {

Process& require_current_process() {
    Kernel& k = Kernel::current();
    Process* p = k.running_process();
    if (p == nullptr) {
        report(Severity::fatal, "wait", "wait() called outside a simulation process");
    }
    return *p;
}

}  // namespace

void wait(Event& e) {
    Event* const set[] = {&e};
    Kernel::current().do_wait(set);
}

void wait(Time d) {
    Process& p = require_current_process();
    if (p.kernel_.try_elide_wait(p, d)) {
        return;
    }
    p.timeout_ev_.notify(d);
    Event* const set[] = {&p.timeout_ev_};
    p.kernel_.do_wait(set);
}

bool wait(Time d, Event& e) {
    Process& p = require_current_process();
    p.timeout_ev_.notify(d);
    Event* const set[] = {&p.timeout_ev_, &e};
    p.kernel_.do_wait(set);
    const bool got_event = (p.triggered_by_ == &e);
    if (got_event) {
        p.timeout_ev_.cancel();
    }
    return got_event;
}

std::size_t wait_any(const std::vector<Event*>& events) {
    Process& p = require_current_process();
    Kernel::current().do_wait(events);
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i] == p.triggered_by_) {
            return i;
        }
    }
    report(Severity::fatal, "wait", "wait_any(): triggering event not in the wait set");
    return events.size();
}

std::size_t wait_any(Time d, const std::vector<Event*>& events) {
    Process& p = require_current_process();
    p.timeout_ev_.notify(d);
    std::vector<Event*> set = events;
    set.push_back(&p.timeout_ev_);
    Kernel::current().do_wait(set);
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i] == p.triggered_by_) {
            p.timeout_ev_.cancel();
            return i;
        }
    }
    return events.size();  // timeout
}

void wait_delta() {
    Process& p = require_current_process();
    p.timeout_ev_.notify_delta();
    Event* const set[] = {&p.timeout_ev_};
    p.kernel_.do_wait(set);
}

Time now() {
    return Kernel::current().now();
}

Process& current_process() {
    return require_current_process();
}

}  // namespace rtk::sysc
