// Scheduler policy tests (external schedulers of SIM_API).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/sim.hpp"
#include "sysc/sysc.hpp"

namespace rtk::sim {
namespace {

using sysc::Time;

class SchedulerPolicyTest : public ::testing::Test {
protected:
    sysc::Kernel k;
};

TEST_F(SchedulerPolicyTest, PrioritySchedulerPicksHighestFirst) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    std::vector<std::string> order;
    auto mk = [&](const char* name, Priority p) -> TThread& {
        return api.SIM_CreateThread(name, ThreadKind::task, p,
                                    [&order, name] { order.push_back(name); });
    };
    TThread& a = mk("a", 30);
    TThread& b = mk("b", 10);
    TThread& c = mk("c", 20);
    api.SIM_DisableDispatch();
    api.SIM_StartThread(a);
    api.SIM_StartThread(b);
    api.SIM_StartThread(c);
    api.SIM_EnableDispatch();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"b", "c", "a"}));
}

TEST_F(SchedulerPolicyTest, FifoWithinPriority) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    std::vector<std::string> order;
    auto mk = [&](const char* name) -> TThread& {
        return api.SIM_CreateThread(name, ThreadKind::task, 5,
                                    [&order, name] { order.push_back(name); });
    };
    TThread& a = mk("x");
    TThread& b = mk("y");
    TThread& c = mk("z");
    api.SIM_DisableDispatch();
    api.SIM_StartThread(a);
    api.SIM_StartThread(b);
    api.SIM_StartThread(c);
    api.SIM_EnableDispatch();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"x", "y", "z"}));
}

TEST_F(SchedulerPolicyTest, ReadySnapshotAndCounts) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    TThread& a = api.SIM_CreateThread("a", ThreadKind::task, 5, [] {});
    TThread& b = api.SIM_CreateThread("b", ThreadKind::task, 3, [] {});
    api.SIM_DisableDispatch();
    api.SIM_StartThread(a);
    api.SIM_StartThread(b);
    EXPECT_EQ(s.ready_count(), 2u);
    auto snap = s.ready_snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0], &b);  // higher priority first
    EXPECT_EQ(snap[1], &a);
    api.SIM_EnableDispatch();
    k.run();
    EXPECT_EQ(s.ready_count(), 0u);
}

TEST_F(SchedulerPolicyTest, RemoveTakesThreadOutOfReadyQueue) {
    PriorityPreemptiveScheduler s;
    TThread* dummy = nullptr;
    SimApi api{k, s};
    TThread& a = api.SIM_CreateThread("a", ThreadKind::task, 5, [] {});
    (void)dummy;
    api.SIM_DisableDispatch();
    api.SIM_StartThread(a);
    EXPECT_EQ(s.ready_count(), 1u);
    s.remove(a);
    EXPECT_EQ(s.ready_count(), 0u);
    EXPECT_EQ(s.pick(), nullptr);
}

TEST_F(SchedulerPolicyTest, RoundRobinIsFifoAcrossPriorities) {
    RoundRobinScheduler s;
    SimApi api{k, s};
    std::vector<std::string> order;
    auto mk = [&](const char* name, Priority p) -> TThread& {
        return api.SIM_CreateThread(name, ThreadKind::task, p,
                                    [&order, name] { order.push_back(name); });
    };
    TThread& a = mk("a", 30);  // priorities ignored
    TThread& b = mk("b", 1);
    api.SIM_DisableDispatch();
    api.SIM_StartThread(a);
    api.SIM_StartThread(b);
    api.SIM_EnableDispatch();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
    EXPECT_FALSE(s.should_preempt(a));
}

TEST_F(SchedulerPolicyTest, PolicyNames) {
    EXPECT_EQ(PriorityPreemptiveScheduler{}.policy_name(), "priority-preemptive");
    EXPECT_EQ(RoundRobinScheduler{}.policy_name(), "round-robin");
}

// Property sweep: with N tasks of random-ish priorities, the priority
// scheduler always runs them in non-decreasing priority order.
class PriorityOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(PriorityOrderSweep, TasksCompleteInPriorityOrder) {
    sysc::Kernel k;
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    const int n = GetParam();
    std::vector<Priority> done_order;
    std::vector<TThread*> threads;
    for (int i = 0; i < n; ++i) {
        const Priority p = 1 + (i * 7 + 3) % 50;  // deterministic pseudo-random
        threads.push_back(&api.SIM_CreateThread(
            "t" + std::to_string(i), ThreadKind::task, p, [&done_order, p, &api] {
                api.SIM_Wait(Time::us(100), ExecContext::task);
                done_order.push_back(p);
            }));
    }
    api.SIM_DisableDispatch();
    for (auto* t : threads) {
        api.SIM_StartThread(*t);
    }
    api.SIM_EnableDispatch();
    k.run();
    ASSERT_EQ(done_order.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < done_order.size(); ++i) {
        EXPECT_LE(done_order[i - 1], done_order[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PriorityOrderSweep, ::testing::Values(2, 5, 13, 40));

// ---- ordering invariants, pinned across both policies ----------------------
//
// These drive the Scheduler objects directly (make_ready/pick/remove/
// rotate on threads that never execute) so the intrusive refactor stays
// pinned to the seed container semantics: FIFO within priority, tk_rot_rdq
// rotation, chg_pri tail-requeue.

enum class Policy { priority, round_robin };

const char* policy_name(Policy p) {
    return p == Policy::priority ? "PriorityPreemptive" : "RoundRobin";
}

// Keeps the listed test names readable (gtest would dump the enum bytes).
void PrintTo(Policy p, std::ostream* os) {
    *os << policy_name(p);
}

class SchedulerInvariantTest : public ::testing::TestWithParam<Policy> {
protected:
    SchedulerInvariantTest() {
        if (GetParam() == Policy::priority) {
            sched_ = std::make_unique<PriorityPreemptiveScheduler>();
        } else {
            sched_ = std::make_unique<RoundRobinScheduler>();
        }
        api_ = std::make_unique<SimApi>(k_, *sched_);
    }

    TThread& mk(const std::string& name, Priority p) {
        return api_->SIM_CreateThread(name, ThreadKind::task, p, [] {});
    }

    std::vector<TThread*> drain() {
        std::vector<TThread*> out;
        while (TThread* t = sched_->pick()) {
            out.push_back(t);
        }
        return out;
    }

    sysc::Kernel k_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<SimApi> api_;
};

TEST_P(SchedulerInvariantTest, FifoWithinOnePriorityAcrossInterleavedOps) {
    TThread& a = mk("a", 5);
    TThread& b = mk("b", 5);
    TThread& c = mk("c", 5);
    sched_->make_ready(a);
    sched_->make_ready(b);
    EXPECT_EQ(sched_->pick(), &a);   // a leaves the head...
    sched_->make_ready(c);
    sched_->make_ready(a);           // ...and re-queues behind c
    EXPECT_EQ(drain(), (std::vector<TThread*>{&b, &c, &a}));
}

TEST_P(SchedulerInvariantTest, RotateMovesHeadToTail) {
    TThread& a = mk("a", 5);
    TThread& b = mk("b", 5);
    TThread& c = mk("c", 5);
    sched_->make_ready(a);
    sched_->make_ready(b);
    sched_->make_ready(c);
    sched_->rotate(5);
    EXPECT_EQ(drain(), (std::vector<TThread*>{&b, &c, &a}));
}

TEST_P(SchedulerInvariantTest, RotateOfSingletonOrAbsentQueueIsNoop) {
    TThread& a = mk("a", 5);
    sched_->make_ready(a);
    sched_->rotate(5);    // one element: unchanged
    sched_->rotate(9);    // empty level: no-op
    sched_->rotate(-3);   // out of range: no-op
    EXPECT_EQ(drain(), (std::vector<TThread*>{&a}));
}

TEST_P(SchedulerInvariantTest, RemoveFromMiddlePreservesNeighbourOrder) {
    TThread& a = mk("a", 5);
    TThread& b = mk("b", 5);
    TThread& c = mk("c", 5);
    TThread& d = mk("d", 5);
    sched_->make_ready(a);
    sched_->make_ready(b);
    sched_->make_ready(c);
    sched_->make_ready(d);
    sched_->remove(b);
    sched_->remove(d);
    EXPECT_EQ(sched_->ready_count(), 2u);
    EXPECT_EQ(drain(), (std::vector<TThread*>{&a, &c}));
    sched_->remove(a);  // absent: no-op, as before the refactor
    EXPECT_EQ(sched_->ready_count(), 0u);
}

TEST_P(SchedulerInvariantTest, PeekMatchesPickWithoutDequeuing) {
    TThread& a = mk("a", 7);
    TThread& b = mk("b", 4);
    sched_->make_ready(a);
    sched_->make_ready(b);
    TThread* peeked = sched_->peek();
    EXPECT_EQ(sched_->ready_count(), 2u);
    EXPECT_EQ(sched_->pick(), peeked);
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerInvariantTest,
                         ::testing::Values(Policy::priority, Policy::round_robin),
                         [](const auto& param_info) {
                             return std::string(policy_name(param_info.param));
                         });

// ---- priority-policy-specific invariants -----------------------------------

TEST_F(SchedulerPolicyTest, ChangedPriorityRequeuesAtTailOfNewLevel) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    TThread& a = api.SIM_CreateThread("a", ThreadKind::task, 5, [] {});
    TThread& b = api.SIM_CreateThread("b", ThreadKind::task, 5, [] {});
    TThread& c = api.SIM_CreateThread("c", ThreadKind::task, 9, [] {});
    s.make_ready(a);
    s.make_ready(b);
    s.make_ready(c);
    // µ-ITRON chg_pri: c joins priority 5 at the *end* of that queue.
    api.SIM_SetCurrentPriority(c, 5);  // dormant: updates priority only
    s.priority_changed(c);
    EXPECT_EQ(s.pick(), &a);
    EXPECT_EQ(s.pick(), &b);
    EXPECT_EQ(s.pick(), &c);
    // And a same-level change also tail-requeues (a behind b).
    s.make_ready(a);
    s.make_ready(b);
    s.priority_changed(a);
    EXPECT_EQ(s.pick(), &b);
    EXPECT_EQ(s.pick(), &a);
}

TEST_F(SchedulerPolicyTest, RotateAffectsOnlyTheNamedPriorityLevel) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    TThread& hi1 = api.SIM_CreateThread("hi1", ThreadKind::task, 3, [] {});
    TThread& hi2 = api.SIM_CreateThread("hi2", ThreadKind::task, 3, [] {});
    TThread& lo1 = api.SIM_CreateThread("lo1", ThreadKind::task, 8, [] {});
    TThread& lo2 = api.SIM_CreateThread("lo2", ThreadKind::task, 8, [] {});
    s.make_ready(hi1);
    s.make_ready(hi2);
    s.make_ready(lo1);
    s.make_ready(lo2);
    s.rotate(8);
    EXPECT_EQ(s.pick(), &hi1);
    EXPECT_EQ(s.pick(), &hi2);
    EXPECT_EQ(s.pick(), &lo2);  // rotated
    EXPECT_EQ(s.pick(), &lo1);
}

// tk_rot_rdq under the RTK-Spec I (round-robin) policy must rotate the
// slice instead of silently no-opping (the seed inherited the base-class
// stub; pinned here via SIM_RotateReadyQueue).
TEST_F(SchedulerPolicyTest, RoundRobinRotateViaSimApi) {
    RoundRobinScheduler s;
    SimApi api{k, s};
    TThread& a = api.SIM_CreateThread("a", ThreadKind::task, 10, [] {});
    TThread& b = api.SIM_CreateThread("b", ThreadKind::task, 20, [] {});
    TThread& c = api.SIM_CreateThread("c", ThreadKind::task, 30, [] {});
    s.make_ready(a);
    s.make_ready(b);
    s.make_ready(c);
    api.SIM_RotateReadyQueue(10);
    EXPECT_EQ(s.pick(), &b);
    EXPECT_EQ(s.pick(), &c);
    EXPECT_EQ(s.pick(), &a);
}

// Mass make_ready/pick with interleaved removes at scale: the intrusive
// structures must keep exact FIFO-within-priority order when hundreds of
// threads churn (regression net for node-linking bugs).
TEST_F(SchedulerPolicyTest, LargePopulationKeepsDeterministicOrder) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    constexpr int n = 512;
    std::vector<TThread*> threads;
    threads.reserve(n);
    for (int i = 0; i < n; ++i) {
        threads.push_back(&api.SIM_CreateThread("t" + std::to_string(i),
                                                ThreadKind::task, 1 + (i % 7), [] {}));
    }
    for (auto* t : threads) {
        s.make_ready(*t);
    }
    for (int i = 0; i < n; i += 3) {
        s.remove(*threads[static_cast<std::size_t>(i)]);
    }
    // Expected: ascending priority, FIFO (creation order) within a level,
    // skipping the removed ones.
    std::vector<TThread*> expected;
    for (int p = 1; p <= 7; ++p) {
        for (int i = 0; i < n; ++i) {
            if (1 + (i % 7) == p && i % 3 != 0) {
                expected.push_back(threads[static_cast<std::size_t>(i)]);
            }
        }
    }
    std::vector<TThread*> got;
    while (TThread* t = s.pick()) {
        got.push_back(t);
    }
    EXPECT_EQ(got, expected);
}

// Seed-pinned ready-pick regression at the BENCH_scheduler_scaling peak
// size. 4096 tasks with xorshift-assigned priorities go ready, a fifth
// of them are removed again and the most crowded level is rotated; the
// dense ReadyTable must then reproduce the exact (priority, FIFO within
// priority) pick sequence of a reference model computed independently.
TEST_F(SchedulerPolicyTest, ReadyPickOrderPinnedAt4096Tasks) {
    PriorityPreemptiveScheduler s;
    SimApi api{k, s};
    constexpr int n = 4096;
    std::uint32_t rng = 0x5eed0007u;  // pinned seed
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        return rng;
    };

    std::vector<TThread*> threads;
    std::vector<Priority> prio;
    threads.reserve(n);
    prio.reserve(n);
    for (int i = 0; i < n; ++i) {
        const Priority p = static_cast<Priority>(1 + next() % 140);
        prio.push_back(p);
        threads.push_back(&api.SIM_CreateThread("t" + std::to_string(i),
                                                ThreadKind::task, p, [] {}));
    }
    for (auto* t : threads) {
        s.make_ready(*t);
    }
    // Deterministic churn: every fifth thread leaves the ready set again.
    std::vector<bool> gone(n, false);
    for (int i = 0; i < n; i += 5) {
        s.remove(*threads[static_cast<std::size_t>(i)]);
        gone[static_cast<std::size_t>(i)] = true;
    }
    // Rotate one surviving level (thread 1 is never removed: 1 % 5 != 0).
    const Priority rotated = prio[1];
    s.rotate(rotated);

    // Reference model: per-priority FIFO in creation order, rotation as
    // head-to-tail on the named level, concatenated by ascending priority.
    std::vector<std::vector<TThread*>> levels(141);
    for (int i = 0; i < n; ++i) {
        if (!gone[static_cast<std::size_t>(i)]) {
            levels[static_cast<std::size_t>(prio[static_cast<std::size_t>(i)])]
                .push_back(threads[static_cast<std::size_t>(i)]);
        }
    }
    auto& rot_level = levels[static_cast<std::size_t>(rotated)];
    if (rot_level.size() > 1) {
        rot_level.push_back(rot_level.front());
        rot_level.erase(rot_level.begin());
    }
    std::vector<TThread*> expected;
    for (const auto& level : levels) {
        expected.insert(expected.end(), level.begin(), level.end());
    }

    ASSERT_EQ(s.ready_count(), expected.size());
    std::vector<TThread*> got;
    got.reserve(expected.size());
    while (TThread* t = s.pick()) {
        got.push_back(t);
    }
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "pick diverged at position " << i << " ('" << got[i]->name()
            << "' vs expected '" << expected[i]->name() << "')";
    }
}

}  // namespace
}  // namespace rtk::sim
