// rtk::sysc::Kernel -- the discrete-event simulation kernel.
//
// Implements the SystemC scheduler semantics the reproduced paper relies
// on: evaluate -> update -> delta-notification cycles, timed notification
// queue, deterministic FIFO ordering of runnable processes, and stepped
// execution (run_until / run_for) used for the paper's "step mode".
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sysc/event.hpp"
#include "sysc/process.hpp"
#include "sysc/stack_pool.hpp"
#include "sysc/time.hpp"

namespace rtk::sysc {

/// Implemented by primitive channels (signals) that need an update phase.
class UpdateListener {
public:
    virtual ~UpdateListener() = default;
    virtual void perform_update() = 0;
};

class Kernel {
public:
    Kernel() = default;
    ~Kernel();

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    /// The kernel executing on the calling thread: bound for the duration
    /// of run()/run_until()/step_delta() and process teardown, so the free
    /// wait()/now() in process bodies resolve to the kernel driving them,
    /// even with several kernels alive on one thread. A fatal report
    /// outside any run. Everything else names its kernel explicitly, so a
    /// kernel belongs to no thread: it may be built on one thread and run
    /// and destroyed on another.
    static Kernel& current();

    /// Create a new simulation process; it becomes runnable immediately.
    Process& spawn(std::string name, std::function<void()> body,
                   SpawnOptions opts = {});

    /// Run until no activity remains (or stop() is called).
    void run();

    /// Run all activity with timestamp <= t, then set now() == t.
    void run_until(Time t);

    /// Run for a further duration d (run_until(now() + d)).
    void run_for(Time d);

    /// Execute a single delta cycle; returns true if any process ran.
    bool step_delta();

    /// Request the run loop to return after the current delta cycle.
    void stop() { stop_requested_ = true; }

    /// Livelock guard: allow at most `n` further delta cycles across all
    /// subsequent run()/run_until()/run_for() calls (0 disables the
    /// budget). When the budget runs out the run loop returns without
    /// advancing the clock to the step end, delta_budget_exhausted()
    /// turns true, and later run calls return immediately -- so a
    /// harness can classify the simulation as hung instead of spinning.
    void set_delta_budget(std::uint64_t n) {
        delta_budget_ = n;
        delta_budget_exhausted_ = false;
    }
    bool delta_budget_exhausted() const { return delta_budget_exhausted_; }

    /// Monotonic simulated time. Also the timestamp source for every
    /// observer event, which `trace::Recorder` delta-encodes into
    /// `.rtktrace` captures — it never goes backwards within a run.
    Time now() const { return now_; }
    /// Total delta cycles executed; stamped into the trace footer as a
    /// cheap whole-run progress fingerprint.
    std::uint64_t delta_count() const { return delta_count_; }
    Process* running_process() const { return current_process_; }
    std::size_t process_count() const { return processes_.size(); }

    /// True when no runnable process, no pending delta/timed notification.
    bool idle() const;

    /// Time of the earliest pending timed notification, or Time::max().
    Time next_activity_at() const;

    /// Find a process by name (nullptr if absent); for debug tooling.
    Process* find_process(const std::string& name) const;

    /// Register a primitive channel for the current update phase.
    void request_update(UpdateListener& listener);

    /// Hook invoked after every completed delta cycle (trace writers).
    void add_timestep_hook(std::function<void(Time)> hook);

    /// Recycling allocator for process coroutine stacks; every process
    /// spawned on this kernel borrows its stack here.
    StackPool& stack_pool() { return stack_pool_; }

    // ---- internal interface for Event / Process / wait() ----
    void schedule_delta(Event& e);
    void schedule_timed(Event& e, Time at);
    void forget_event(Event& e);
    void make_runnable(Process& p, Event* cause);
    void do_wait(const std::vector<Event*>& events);
    void kill_process(Process& p);

private:
    /// RAII binding of this kernel as the thread's executing kernel,
    /// around every entry into the simulation.
    class Bind {
    public:
        explicit Bind(Kernel& k);
        ~Bind();
        Bind(const Bind&) = delete;
        Bind& operator=(const Bind&) = delete;

    private:
        Kernel* prev_;
    };

    /// One slot of the indexed binary min-heap holding timed
    /// notifications, ordered by (at, order) -- `order` reproduces the
    /// deterministic FIFO among equal timestamps. Each Event owns at most
    /// one slot and tracks it in Event::timed_index_, so rescheduling
    /// repositions in place and ~Event removes its entry in O(log n).
    struct TimedEntry {
        Time at;
        std::uint64_t order;
        Event* event;
    };

    void run_loop(Time limit);
    bool crunch();  ///< one evaluate+update+delta-notify cycle
    void run_process(Process& p);
    void advance_to(Time t);

    // ---- timed-heap plumbing (operates on the mutable timed_) ----
    static bool timed_before(const TimedEntry& a, const TimedEntry& b);
    void timed_set_index(std::size_t i) const;
    void timed_sift_up(std::size_t i) const;
    void timed_sift_down(std::size_t i) const;
    void timed_erase_at(std::size_t i) const;
    /// Drop stale top entries (cancelled / superseded notifications) and
    /// return the earliest fresh one, or nullptr. Logically const: stale
    /// entries are invisible to all observers.
    const TimedEntry* first_fresh_timed() const;

    Time now_{};
    std::uint64_t delta_count_ = 0;
    std::uint64_t next_process_id_ = 1;
    std::uint64_t timed_order_ = 0;
    bool stop_requested_ = false;
    std::uint64_t delta_budget_ = 0;  ///< remaining deltas; 0 = unlimited
    bool delta_budget_exhausted_ = false;

    /// Declared before processes_: dying processes hand their coroutine
    /// stacks back to the pool, so it must outlive them.
    StackPool stack_pool_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::deque<Process*> runnable_;
    std::vector<Event*> delta_queue_;
    mutable std::vector<TimedEntry> timed_;  ///< indexed binary min-heap
    std::vector<UpdateListener*> update_queue_;
    std::vector<std::function<void(Time)>> timestep_hooks_;

    Process* current_process_ = nullptr;
};

}  // namespace rtk::sysc
