// The error-path matrix through the facade, parametrized per object
// kind: E_ID on null handles, facade-level E_NOEXS on stale
// generation-counted handles, E_CTX for blocking calls from handler
// context, E_PAR on bad creation packets.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "api/system.hpp"
#include "harness/simulation.hpp"

using namespace rtk;
using namespace rtk::tkernel;

namespace {

/// One row per object kind. Each callback drives the matrix through the
/// kind's typed handle; a null callback means the cell does not apply
/// (e.g. tasks have no blocking facade call).
struct KindCase {
    const char* name;
    api::Kind kind;
    /// Create with an invalid packet; returns the creation error.
    std::function<ER(api::System&)> create_bad;
    /// Create a good instance, adopt the same ID (staling the original),
    /// then run one op on the stale handle; returns its error.
    std::function<ER(api::System&)> stale_op;
    /// A blocking wait (TMO_FEVR) through the facade; run from handler
    /// context it must fail E_CTX. Returns the op's error.
    std::function<ER(api::System&)> blocking_op;
};

// Helper shape shared by the stale cells: create, re-adopt, op on stale.
template <typename CreateFn, typename AdoptFn, typename OpFn>
ER stale(api::System& sys, CreateFn&& create, AdoptFn&& adopt, OpFn&& op) {
    auto original = create(sys);
    if (!original.ok()) {
        return original.er();
    }
    auto rebound = adopt(sys, original->id());  // stales `original`
    if (!rebound.ok()) {
        return rebound.er();
    }
    rebound->release();
    const ER er = op(*original);
    original->release();  // stale anyway; no RAII effect
    return er;
}

const KindCase kCases[] = {
    {"task", api::Kind::task,
     [](api::System& s) {
         return s.create_task({.name = "bad"}).er();  // no entry and no body
     },
     [](api::System& s) {
         return stale(
             s,
             [](api::System& sys) {
                 return sys.create_task({.name = "t", .body = [] {}});
             },
             [](api::System& sys, ID id) { return sys.adopt_task(id); },
             [](api::Task& t) { return t.start().er(); });
     },
     nullptr},
    {"semaphore", api::Kind::semaphore,
     [](api::System& s) { return s.create_semaphore({.initial = -1}).er(); },
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_semaphore({}); },
             [](api::System& sys, ID id) { return sys.adopt_semaphore(id); },
             [](api::Semaphore& h) { return h.signal().er(); });
     },
     [](api::System& s) {
         api::Semaphore h = s.create_semaphore({}).expect("sem");
         return h.wait(1, TMO_FEVR).er();
     }},
    {"eventflag", api::Kind::eventflag,
     nullptr,  // every T_CFLG packet is structurally valid
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_eventflag({}); },
             [](api::System& sys, ID id) { return sys.adopt_eventflag(id); },
             [](api::EventFlag& h) { return h.set(1).er(); });
     },
     [](api::System& s) {
         api::EventFlag h = s.create_eventflag({}).expect("flg");
         return h.wait(0x1, TWF_ORW, TMO_FEVR).er();
     }},
    {"mutex", api::Kind::mutex,
     [](api::System& s) {
         return s
             .create_mutex({.protocol = api::MutexDef::Protocol::ceiling,
                            .ceiling = max_priority + 1})
             .er();
     },
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_mutex({}); },
             [](api::System& sys, ID id) { return sys.adopt_mutex(id); },
             [](api::Mutex& h) { return h.unlock().er(); });
     },
     [](api::System& s) {
         api::Mutex h = s.create_mutex({}).expect("mtx");
         return h.lock(TMO_FEVR).er();
     }},
    {"mailbox", api::Kind::mailbox,
     nullptr,
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_mailbox({}); },
             [](api::System& sys, ID id) { return sys.adopt_mailbox(id); },
             [](api::Mailbox& h) { return h.receive(TMO_POL).er(); });
     },
     [](api::System& s) {
         api::Mailbox h = s.create_mailbox({}).expect("mbx");
         return h.receive(TMO_FEVR).er();
     }},
    {"msgbuf", api::Kind::msgbuf,
     [](api::System& s) { return s.create_msgbuf({.max_message = 0}).er(); },
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_msgbuf({}); },
             [](api::System& sys, ID id) { return sys.adopt_msgbuf(id); },
             [](api::MsgBuf& h) {
                 char c = 0;
                 return h.send(&c, 1, TMO_POL).er();
             });
     },
     [](api::System& s) {
         api::MsgBuf h = s.create_msgbuf({}).expect("mbf");
         char buf[16];
         return h.receive(buf, TMO_FEVR).er();
     }},
    {"fixed_pool", api::Kind::fixed_pool,
     [](api::System& s) { return s.create_fixed_pool({.blocks = 0}).er(); },
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_fixed_pool({}); },
             [](api::System& sys, ID id) { return sys.adopt_fixed_pool(id); },
             [](api::FixedPool& h) { return h.get(TMO_POL).er(); });
     },
     [](api::System& s) {
         api::FixedPool h = s.create_fixed_pool({.blocks = 1}).expect("mpf");
         void* blk = h.get(TMO_POL).expect("drain the single block");
         const ER er = h.get(TMO_FEVR).er();
         h.put(blk).expect("return block");
         return er;
     }},
    {"var_pool", api::Kind::var_pool,
     [](api::System& s) { return s.create_var_pool({.size = -8}).er(); },
     [](api::System& s) {
         return stale(
             s, [](api::System& sys) { return sys.create_var_pool({}); },
             [](api::System& sys, ID id) { return sys.adopt_var_pool(id); },
             [](api::VarPool& h) { return h.get(16, TMO_POL).er(); });
     },
     [](api::System& s) {
         api::VarPool h = s.create_var_pool({.size = 64}).expect("mpl");
         void* held = h.get(40, TMO_POL).expect("drain the pool");
         const ER er = h.get(40, TMO_FEVR).er();  // no space left: must wait
         h.put(held).expect("return extent");
         return er;
     }},
    {"cyclic", api::Kind::cyclic,
     [](api::System& s) {
         return s.create_cyclic({.name = "c", .handler = nullptr}).er();
     },
     [](api::System& s) {
         return stale(
             s,
             [](api::System& sys) {
                 return sys.create_cyclic(
                     {.name = "c", .handler = [](void*) {}, .autostart = false});
             },
             [](api::System& sys, ID id) { return sys.adopt_cyclic(id); },
             [](api::Cyclic& h) { return h.start().er(); });
     },
     nullptr},
    {"alarm", api::Kind::alarm,
     [](api::System& s) {
         return s.create_alarm({.name = "a", .handler = nullptr}).er();
     },
     [](api::System& s) {
         return stale(
             s,
             [](api::System& sys) {
                 return sys.create_alarm({.name = "a", .handler = [](void*) {}});
             },
             [](api::System& sys, ID id) { return sys.adopt_alarm(id); },
             [](api::Alarm& h) { return h.start(5).er(); });
     },
     nullptr},
};

// Print the kind's name, not a byte dump: gtest puts the printed
// parameter in the test's listed name, and the dump holds pointers.
void PrintTo(const KindCase& c, std::ostream* os) {
    *os << c.name;
}

class ErrorMatrixTest : public ::testing::TestWithParam<KindCase> {};

}  // namespace

TEST_P(ErrorMatrixTest, BadCreatePacketIsEpar) {
    const KindCase& c = GetParam();
    if (!c.create_bad) {
        GTEST_SKIP() << c.name << " has no structurally invalid packet";
    }
    Simulation sim;
    api::System sys(sim.os());
    EXPECT_EQ(c.create_bad(sys), E_PAR);
    // Nothing leaked into the registry or the facade tables.
    EXPECT_EQ(sys.live_count(c.kind), 0u);
}

TEST_P(ErrorMatrixTest, StaleGenerationIsCaughtAtTheFacade) {
    const KindCase& c = GetParam();
    Simulation sim;
    api::System sys(sim.os());
    // The kernel object is alive the whole time; only the facade's
    // generation check can produce this E_NOEXS.
    EXPECT_EQ(c.stale_op(sys), E_NOEXS);
    EXPECT_EQ(sys.live_count(c.kind), 1u);
}

TEST_P(ErrorMatrixTest, BlockingFromHandlerContextIsEctx) {
    const KindCase& c = GetParam();
    if (!c.blocking_op) {
        GTEST_SKIP() << c.name << " has no blocking facade call";
    }
    Simulation sim;
    api::System sys(sim.os());
    ER got = E_OK;
    bool ran = false;
    sim.set_user_main([&] {
        // A cyclic handler runs in task-independent context: the wait
        // service must refuse to block it.
        api::Cyclic cyc = sys.create_cyclic({.name = "probe",
                                             .handler =
                                                 [&](void*) {
                                                     if (!ran) {
                                                         ran = true;
                                                         got = c.blocking_op(sys);
                                                     }
                                                 },
                                             .period_ms = 2})
                              .expect("probe cyclic");
        cyc.release();
    });
    sim.power_on();
    sim.run_for(sysc::Time::ms(20));
    ASSERT_TRUE(ran) << c.name;
    EXPECT_EQ(got, E_CTX) << c.name << ": " << rtk::er_to_string(got);
}

INSTANTIATE_TEST_SUITE_P(PerKind, ErrorMatrixTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<KindCase>& param) {
                             return std::string(param.param.name);
                         });
