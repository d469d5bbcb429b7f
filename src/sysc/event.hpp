// rtk::sysc::Event -- sc_event analogue with immediate, delta and timed
// notification and SystemC's "earliest notification wins" override rule.
//
// Lifetime contract: an Event belongs to the Kernel its constructor names
// and must not outlive it (the usual structure -- kernel first, modules
// owning events inside -- satisfies this naturally). An event should also
// outlive the processes that wait on it: destroying one with waiters
// left is reported as a warning.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sysc/time.hpp"

namespace rtk::sysc {

class Kernel;
class Process;

class Event {
public:
    explicit Event(Kernel& kernel, std::string name = {});
    ~Event();

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /// Immediate notification: waiting processes become runnable within
    /// the current evaluation phase. Cancels any pending notification
    /// (immediate is the earliest possible time).
    void notify();

    /// Delta notification: waiting processes wake in the next delta cycle.
    void notify_delta();

    /// Timed notification after `delay`; a zero delay degenerates to a
    /// delta notification. Per IEEE 1666, if a notification is already
    /// pending only the earlier of the two survives.
    void notify(Time delay);

    /// Cancel a pending delta/timed notification (immediate cannot be
    /// cancelled -- it has already happened).
    void cancel();

    const std::string& name() const { return name_; }
    bool has_waiters() const { return !waiters_.empty(); }
    std::size_t waiter_count() const { return waiters_.size(); }

    enum class Pending : std::uint8_t { none, delta, timed };
    Pending pending() const { return pending_; }
    /// Absolute time of the pending timed notification (valid when
    /// pending() == Pending::timed).
    Time pending_at() const { return pending_at_; }

private:
    friend class Kernel;
    friend class Process;

    /// Wake every waiting process (used by the kernel at trigger time).
    void trigger();

    /// "Not in the kernel's timed heap" sentinel for timed_index_.
    static constexpr std::size_t timed_npos = static_cast<std::size_t>(-1);

    Kernel* kernel_;
    std::string name_;
    std::vector<Process*> waiters_;
    Pending pending_ = Pending::none;
    Time pending_at_{};
    // Kernel-owned O(1) membership bookkeeping: slot in the kernel's
    // indexed timed-event heap (timed_npos when absent; an event has at
    // most one heap entry, repositioned in place on re-notification), and
    // whether the event is queued for the current delta-notify phase.
    std::size_t timed_index_ = timed_npos;
    bool in_delta_queue_ = false;
};

}  // namespace rtk::sysc
