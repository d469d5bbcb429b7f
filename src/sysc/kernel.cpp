#include "sysc/kernel.hpp"

#include <algorithm>
#include <cstdint>

#include "sysc/report.hpp"

namespace rtk::sysc {

namespace {
// The kernel executing on this thread (see Kernel::current()).
thread_local Kernel* t_active = nullptr;
}  // namespace

Kernel::Bind::Bind(Kernel& k) : prev_(t_active) {
    t_active = &k;
}

Kernel::Bind::~Bind() {
    t_active = prev_;
}

Kernel::~Kernel() {
    // Kill suspended processes so their coroutine stacks unwind with RAII
    // intact, then destroy them while the kernel queues (which their event
    // destructors deregister from) are still alive. The unwinding stacks
    // may call now()/wait machinery, so bind this kernel for the duration.
    Bind bind(*this);
    for (auto& p : processes_) {
        try {
            kill_process(*p);
        } catch (...) {
            // teardown: drop exceptions from unwinding bodies
        }
    }
    processes_.clear();
}

Kernel& Kernel::current() {
    if (t_active == nullptr) {
        report(Severity::fatal, "kernel", "no simulation kernel is running on this thread");
    }
    return *t_active;
}

Process& Kernel::spawn(std::string name, std::function<void()> body, SpawnOptions opts) {
    auto proc = std::unique_ptr<Process>(new Process(
        *this, std::move(name), std::move(body), opts.stack_bytes, next_process_id_++));
    Process& ref = *proc;
    processes_.push_back(std::move(proc));
    ref.state_ = Process::State::runnable;
    ref.in_runnable_ = true;
    runnable_.push_back(&ref);
    return ref;
}

bool Kernel::idle() const {
    return runnable_.empty() && delta_queue_.empty() && update_queue_.empty() &&
           first_fresh_timed() == nullptr;
}

Time Kernel::next_activity_at() const {
    if (!runnable_.empty() || !delta_queue_.empty() || !update_queue_.empty()) {
        return now_;
    }
    const TimedEntry* top = first_fresh_timed();
    return top == nullptr ? Time::max() : top->at;
}

// ---- timed-event heap -------------------------------------------------------
//
// Indexed binary min-heap keyed by (time, insertion order): push and
// index-removal are O(log n), the earliest-entry lookup is O(1). Every
// Event holds at most one slot (Event::timed_index_); re-notification
// repositions that slot in place, and cancellation stays lazy (the seq /
// pending flags on the event mark the slot stale) until the entry
// surfaces at the top or the event dies.

bool Kernel::timed_before(const TimedEntry& a, const TimedEntry& b) {
    return a.at < b.at || (a.at == b.at && a.order < b.order);
}

void Kernel::timed_set_index(std::size_t i) const {
    timed_[i].event->timed_index_ = i;
}

void Kernel::timed_sift_up(std::size_t i) const {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!timed_before(timed_[i], timed_[parent])) {
            break;
        }
        std::swap(timed_[i], timed_[parent]);
        timed_set_index(i);
        timed_set_index(parent);
        i = parent;
    }
}

void Kernel::timed_sift_down(std::size_t i) const {
    for (;;) {
        std::size_t best = i;
        const std::size_t l = 2 * i + 1;
        const std::size_t r = 2 * i + 2;
        if (l < timed_.size() && timed_before(timed_[l], timed_[best])) {
            best = l;
        }
        if (r < timed_.size() && timed_before(timed_[r], timed_[best])) {
            best = r;
        }
        if (best == i) {
            return;
        }
        std::swap(timed_[i], timed_[best]);
        timed_set_index(i);
        timed_set_index(best);
        i = best;
    }
}

void Kernel::timed_erase_at(std::size_t i) const {
    timed_[i].event->timed_index_ = Event::timed_npos;
    const std::size_t last = timed_.size() - 1;
    if (i != last) {
        timed_[i] = timed_[last];
        timed_set_index(i);
        timed_.pop_back();
        timed_sift_down(i);
        timed_sift_up(i);
    } else {
        timed_.pop_back();
    }
}

const Kernel::TimedEntry* Kernel::first_fresh_timed() const {
    while (!timed_.empty() &&
           timed_.front().event->pending_ != Event::Pending::timed) {
        timed_erase_at(0);  // stale: cancelled or superseded notification
    }
    return timed_.empty() ? nullptr : &timed_.front();
}

Process* Kernel::find_process(const std::string& name) const {
    for (const auto& p : processes_) {
        if (p->name() == name) {
            return p.get();
        }
    }
    return nullptr;
}

void Kernel::request_update(UpdateListener& listener) {
    update_queue_.push_back(&listener);
}

void Kernel::add_timestep_hook(std::function<void(Time)> hook) {
    timestep_hooks_.push_back(std::move(hook));
}

void Kernel::schedule_delta(Event& e) {
    if (e.in_delta_queue_) {
        return;  // a single queue slot serves any number of re-notifies
    }
    e.in_delta_queue_ = true;
    delta_queue_.push_back(&e);
}

void Kernel::schedule_timed(Event& e, Time at) {
    if (e.timed_index_ == Event::timed_npos) {
        timed_.push_back(TimedEntry{at, timed_order_++, &e});
        e.timed_index_ = timed_.size() - 1;
        timed_sift_up(timed_.size() - 1);
        return;
    }
    // Reposition the event's existing slot (fresh insertion order keeps
    // FIFO-among-equal-times identical to scheduling a new entry).
    const std::size_t i = e.timed_index_;
    timed_[i].at = at;
    timed_[i].order = timed_order_++;
    timed_sift_down(i);
    timed_sift_up(i);
}

void Kernel::forget_event(Event& e) {
    // Destructor-only path. Membership flags make the common case (event
    // not queued anywhere) O(1); the delta scan runs only for an event
    // dying with a delta notification in flight.
    if (e.in_delta_queue_) {
        delta_queue_.erase(std::remove(delta_queue_.begin(), delta_queue_.end(), &e),
                           delta_queue_.end());
        e.in_delta_queue_ = false;
    }
    if (e.timed_index_ != Event::timed_npos) {
        timed_erase_at(e.timed_index_);
    }
}

void Kernel::make_runnable(Process& p, Event* cause) {
    if (p.state_ == Process::State::terminated) {
        return;
    }
    // Deregister from every event in the wait set (or-semantics).
    for (Event* e : p.waiting_on_) {
        auto& ws = e->waiters_;
        ws.erase(std::remove(ws.begin(), ws.end(), &p), ws.end());
    }
    p.waiting_on_.clear();
    p.triggered_by_ = cause;
    p.state_ = Process::State::runnable;
    if (!p.in_runnable_) {
        p.in_runnable_ = true;
        runnable_.push_back(&p);
    }
}

void Kernel::do_wait(const std::vector<Event*>& events) {
    Process* p = current_process_;
    if (p == nullptr) {
        report(Severity::fatal, "kernel", "wait() outside any simulation process");
    }
    if (events.empty()) {
        report(Severity::fatal, "kernel", "wait() on an empty event set would never wake");
    }
    p->waiting_on_ = events;
    for (Event* e : events) {
        e->waiters_.push_back(p);
    }
    p->state_ = Process::State::waiting;
    p->coro_.yield();  // throws CoroutineKilled on kill
}

void Kernel::kill_process(Process& p) {
    if (p.state_ == Process::State::terminated) {
        return;
    }
    // The unwinding coroutine stack may call the free now()/wait() (RAII
    // guards, observers), which resolve through current().
    Bind bind(*this);
    // Deregister from events and the runnable queue. The queue scan runs
    // only when the process is actually queued (O(1) membership flag) so
    // the idle()/next_activity_at() observers never see the dead entry.
    for (Event* e : p.waiting_on_) {
        auto& ws = e->waiters_;
        ws.erase(std::remove(ws.begin(), ws.end(), &p), ws.end());
    }
    p.waiting_on_.clear();
    if (p.in_runnable_) {
        runnable_.erase(std::remove(runnable_.begin(), runnable_.end(), &p),
                        runnable_.end());
        p.in_runnable_ = false;
    }

    const bool suicide = (current_process_ == &p);
    p.state_ = Process::State::terminated;
    p.terminated_ev_.notify_delta();
    p.coro_.kill();
    if (suicide) {
        p.coro_.yield();  // throws CoroutineKilled; never returns
    }
    if (p.coro_.started() && !p.coro_.finished()) {
        Process* saved = current_process_;
        current_process_ = &p;
        p.coro_.resume();  // unwind the suspended stack now
        current_process_ = saved;
    }
}

void Kernel::run_process(Process& p) {
    current_process_ = &p;
    p.state_ = Process::State::running;
    try {
        p.coro_.resume();
    } catch (...) {
        // An exception escaped the process body: mark it dead and let the
        // caller of run() observe the error.
        p.state_ = Process::State::terminated;
        p.terminated_ev_.notify_delta();
        current_process_ = nullptr;
        throw;
    }
    current_process_ = nullptr;
    if (p.coro_.finished() && p.state_ != Process::State::terminated) {
        p.state_ = Process::State::terminated;
        p.terminated_ev_.notify_delta();
    }
}

bool Kernel::crunch() {
    bool any = false;
    // Evaluate phase: run processes in deterministic FIFO wake order.
    while (!runnable_.empty()) {
        Process* p = runnable_.front();
        runnable_.pop_front();
        p->in_runnable_ = false;
        if (p->state_ != Process::State::runnable) {
            continue;  // killed or re-dispatched since queued
        }
        any = true;
        run_process(*p);
    }
    // Update phase (primitive channels).
    auto updates = std::move(update_queue_);
    update_queue_.clear();
    for (UpdateListener* u : updates) {
        any = true;
        u->perform_update();
    }
    // Delta-notification phase.
    auto deltas = std::move(delta_queue_);
    delta_queue_.clear();
    for (Event* e : deltas) {
        e->in_delta_queue_ = false;  // re-notifies from trigger() re-queue
        if (e->pending_ == Event::Pending::delta) {
            any = true;
            e->trigger();
        }
    }
    if (any) {
        ++delta_count_;
        for (auto& hook : timestep_hooks_) {
            hook(now_);
        }
    }
    return any;
}

void Kernel::advance_to(Time t) {
    now_ = t;
    // Detach every entry due at <= t in (time, order) heap order, then
    // trigger the fresh ones. An event with pending_ == timed always has
    // its single heap slot at pending_at_, so the pending flag alone
    // distinguishes fresh entries from lazily-cancelled ones.
    std::vector<Event*> due;
    while (!timed_.empty() && !(t < timed_.front().at)) {
        due.push_back(timed_.front().event);
        timed_erase_at(0);
    }
    for (Event* e : due) {
        if (e->pending_ == Event::Pending::timed) {
            e->trigger();
        }
    }
}

void Kernel::run_loop(Time limit) {
    Bind bind(*this);  // model code inside processes resolves current() to us
    stop_requested_ = false;
    if (delta_budget_exhausted_) {
        return;
    }
    for (;;) {
        while (crunch()) {
            if (stop_requested_) {
                return;
            }
            if (delta_budget_ != 0 && --delta_budget_ == 0) {
                delta_budget_exhausted_ = true;
                return;
            }
        }
        if (stop_requested_) {
            return;
        }
        // Advance to the earliest *fresh* timed notification.
        const TimedEntry* top = first_fresh_timed();
        if (top == nullptr || top->at > limit) {
            return;
        }
        advance_to(top->at);
    }
}

void Kernel::run() {
    run_loop(Time::max());
}

void Kernel::run_until(Time t) {
    if (t < now_) {
        report(Severity::fatal, "kernel", "run_until() into the past");
    }
    run_loop(t);
    if (!stop_requested_ && !delta_budget_exhausted_ && t != Time::max()) {
        now_ = t;  // step semantics: the clock always reaches the step end
    }
}

void Kernel::run_for(Time d) {
    run_until(now_ + d);
}

bool Kernel::step_delta() {
    Bind bind(*this);
    return crunch();
}

}  // namespace rtk::sysc
