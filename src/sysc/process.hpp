// rtk::sysc::Process -- SC_THREAD analogue: a named stackful-coroutine
// simulation process with dynamic sensitivity.
//
// Processes are created through Kernel::spawn() and owned by the kernel.
// The T-THREAD model of the reproduced paper (src/sim/tthread.hpp) wraps
// exactly one Process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sysc/coroutine.hpp"
#include "sysc/event.hpp"
#include "sysc/time.hpp"

namespace rtk::sysc {

class Kernel;

class Process {
public:
    enum class State : std::uint8_t {
        created,     ///< spawned, body not yet entered
        runnable,    ///< queued for execution in the current/next evaluate phase
        running,     ///< currently executing on its coroutine stack
        waiting,     ///< blocked on one or more events
        terminated,  ///< body returned or process killed
    };

    const std::string& name() const { return name_; }
    std::uint64_t id() const { return id_; }
    State state() const { return state_; }
    bool terminated() const { return state_ == State::terminated; }

    /// Notified (delta) when the process terminates.
    Event& terminated_event() { return terminated_ev_; }

    /// Asynchronously kill the process: its stack unwinds with RAII intact
    /// the moment it would next run (immediately if suspended).
    void kill();

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

private:
    friend class Kernel;
    friend class Event;
    friend void wait(Time);
    friend bool wait(Time, Event&);
    friend std::size_t wait_any(const std::vector<Event*>&);
    friend std::size_t wait_any(Time, const std::vector<Event*>&);
    friend void wait_delta();

    Process(Kernel& kernel, std::string name, std::function<void()> body,
            std::size_t stack_bytes, std::uint64_t id);

    Kernel& kernel_;
    std::string name_;
    std::uint64_t id_;
    Coroutine coro_;
    State state_ = State::created;
    bool in_runnable_ = false;  ///< queued in the kernel's evaluate queue
    std::vector<Event*> waiting_on_;
    Event* triggered_by_ = nullptr;
    Event timeout_ev_;     ///< private event backing timed waits
    Event terminated_ev_;
};

/// Options for Kernel::spawn.
struct SpawnOptions {
    std::size_t stack_bytes = Coroutine::default_stack_bytes;
};

// ---- wait API (valid only inside a process) -------------------------------

/// Suspend until `e` is notified.
void wait(Event& e);

/// Suspend for a simulated duration. When no other process, queued
/// update, delta notification or timed entry can act before now()+d
/// (and no stop(), timestep hook, run_until limit or delta budget would
/// see the cycle end), the kernel elides the wait: it advances the clock
/// in place and counts the skipped delta cycle, without a coroutine
/// switch. The run is the same either way, delta_count() included.
void wait(Time d);

/// Suspend until `e` or until `d` elapses; returns true if the event fired
/// before the timeout.
bool wait(Time d, Event& e);

/// Suspend until any of `events` fires; returns the index of the winner.
std::size_t wait_any(const std::vector<Event*>& events);

/// As wait_any but bounded by a timeout; returns the index of the event
/// that fired, or events.size() on timeout.
std::size_t wait_any(Time d, const std::vector<Event*>& events);

/// Suspend for one delta cycle (SystemC wait(SC_ZERO_TIME)).
void wait_delta();

/// Current simulation time of the active kernel.
Time now();

/// The process currently executing (fatal if called outside a process).
Process& current_process();

}  // namespace rtk::sysc
