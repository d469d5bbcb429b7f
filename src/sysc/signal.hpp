// rtk::sysc::Signal<T> -- sc_signal analogue: a primitive channel with
// evaluate/update semantics. Writes take effect in the update phase of the
// current delta cycle; value_changed_event() is a delta notification, so
// readers observe the new value one delta later, exactly as in SystemC.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "sysc/event.hpp"
#include "sysc/kernel.hpp"

namespace rtk::sysc {

template <typename T>
class Signal : public UpdateListener {
    static_assert(std::is_copy_assignable_v<T>, "signal payload must be copyable");

public:
    /// The signal and its edge events belong to `kernel`.
    Signal(Kernel& kernel, std::string name, T init = T{})
        : kernel_(&kernel),
          name_(std::move(name)),
          cur_(init),
          next_(init),
          changed_(kernel, name_ + ".changed"),
          posedge_(kernel, name_ + ".pos"),
          negedge_(kernel, name_ + ".neg") {}

    Signal(const Signal&) = delete;
    Signal& operator=(const Signal&) = delete;

    const T& read() const { return cur_; }
    operator const T&() const { return cur_; }

    /// Schedule `v` to become the signal value in the update phase.
    /// Last write in an evaluation phase wins (SystemC semantics).
    void write(const T& v) {
        next_ = v;
        if (!update_requested_) {
            update_requested_ = true;
            kernel_->request_update(*this);
        }
    }

    Signal& operator=(const T& v) {
        write(v);
        return *this;
    }

    Event& value_changed_event() { return changed_; }
    Event& posedge_event() requires std::same_as<T, bool> { return posedge_; }
    Event& negedge_event() requires std::same_as<T, bool> { return negedge_; }

    const std::string& name() const { return name_; }
    Time last_change() const { return last_change_; }
    std::uint64_t change_count() const { return change_count_; }

    void perform_update() override {
        update_requested_ = false;
        if (next_ == cur_) {
            return;
        }
        const T old = cur_;
        cur_ = next_;
        last_change_ = kernel_->now();
        ++change_count_;
        changed_.notify_delta();
        if constexpr (std::same_as<T, bool>) {
            if (!old && cur_) {
                posedge_.notify_delta();
            } else if (old && !cur_) {
                negedge_.notify_delta();
            }
        }
    }

private:
    Kernel* kernel_;
    std::string name_;
    T cur_;
    T next_;
    bool update_requested_ = false;
    Time last_change_{};
    std::uint64_t change_count_ = 0;
    Event changed_;
    Event posedge_;
    Event negedge_;
};

}  // namespace rtk::sysc
