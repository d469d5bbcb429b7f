#include "harness/fuzz_spec.hpp"

#include <array>
#include <utility>

#include "corpus/rng.hpp"

namespace rtk::harness::fuzz {

using api::Json;

// ---- JSON round trip --------------------------------------------------------

std::string FuzzSpec::scenario_name() const {
    return "fuzz/" + std::to_string(seed) + "/" +
           (round_robin ? "round_robin" : "priority");
}

Json FuzzSpec::to_json() const {
    Json j = Json::object();
    j.set("seed", Json::number(seed));
    j.set("duration_ms", Json::number(duration_ms));
    j.set("tick_us", Json::number(tick_us));
    j.set("round_robin", Json::boolean(round_robin));
    j.set("iter_units", Json::number_signed(iter_units));

    Json jt = Json::array();
    for (const TaskSpec& t : tasks) {
        Json o = Json::object();
        o.set("pri", Json::number_signed(t.pri));
        o.set("tex", Json::boolean(t.tex));
        o.set("ops", corpus::program_to_json(t.ops));
        jt.push(std::move(o));
    }
    j.set("tasks", std::move(jt));

    Json js = Json::array();
    for (const SemSpec& s : sems) {
        Json o = Json::object();
        o.set("init", Json::number_signed(s.init));
        o.set("max", Json::number_signed(s.max));
        o.set("tpri", Json::boolean(s.tpri));
        o.set("cnt_order", Json::boolean(s.cnt_order));
        js.push(std::move(o));
    }
    j.set("sems", std::move(js));

    Json jf = Json::array();
    for (const FlgSpec& f : flgs) {
        Json o = Json::object();
        o.set("init", Json::number(f.init));
        o.set("tpri", Json::boolean(f.tpri));
        o.set("wmul", Json::boolean(f.wmul));
        jf.push(std::move(o));
    }
    j.set("flgs", std::move(jf));

    Json jm = Json::array();
    for (const MtxSpec& m : mtxs) {
        Json o = Json::object();
        o.set("proto", Json::number_signed(m.proto));
        o.set("ceil", Json::number_signed(m.ceil));
        jm.push(std::move(o));
    }
    j.set("mtxs", std::move(jm));

    Json jb = Json::array();
    for (const MbxSpec& m : mbxs) {
        Json o = Json::object();
        o.set("tpri", Json::boolean(m.tpri));
        o.set("mpri", Json::boolean(m.mpri));
        o.set("nodes", Json::number_signed(m.nodes));
        jb.push(std::move(o));
    }
    j.set("mbxs", std::move(jb));

    Json jmb = Json::array();
    for (const MbfSpec& m : mbfs) {
        Json o = Json::object();
        o.set("bufsz", Json::number_signed(m.bufsz));
        o.set("maxmsz", Json::number_signed(m.maxmsz));
        o.set("tpri", Json::boolean(m.tpri));
        jmb.push(std::move(o));
    }
    j.set("mbfs", std::move(jmb));

    Json jpf = Json::array();
    for (const MpfSpec& m : mpfs) {
        Json o = Json::object();
        o.set("cnt", Json::number_signed(m.cnt));
        o.set("blksz", Json::number_signed(m.blksz));
        o.set("tpri", Json::boolean(m.tpri));
        jpf.push(std::move(o));
    }
    j.set("mpfs", std::move(jpf));

    Json jpl = Json::array();
    for (const MplSpec& m : mpls) {
        Json o = Json::object();
        o.set("size", Json::number_signed(m.size));
        o.set("tpri", Json::boolean(m.tpri));
        jpl.push(std::move(o));
    }
    j.set("mpls", std::move(jpl));

    Json jc = Json::array();
    for (const CycSpec& c : cycs) {
        Json o = Json::object();
        o.set("period_ms", Json::number_signed(c.period_ms));
        o.set("phase_ms", Json::number_signed(c.phase_ms));
        o.set("autostart", Json::boolean(c.autostart));
        o.set("phs", Json::boolean(c.phs));
        o.set("ops", corpus::program_to_json(c.ops));
        jc.push(std::move(o));
    }
    j.set("cycs", std::move(jc));

    Json ja = Json::array();
    for (const AlmSpec& a : alms) {
        Json o = Json::object();
        o.set("start_ms", Json::number_signed(a.start_ms));
        o.set("ops", corpus::program_to_json(a.ops));
        ja.push(std::move(o));
    }
    j.set("alms", std::move(ja));

    Json ji = Json::array();
    for (const IntSpec& i : ints) {
        Json o = Json::object();
        o.set("pri", Json::number_signed(i.pri));
        o.set("ops", corpus::program_to_json(i.ops));
        ji.push(std::move(o));
    }
    j.set("ints", std::move(ji));
    return j;
}

bool FuzzSpec::from_json(const Json& j, FuzzSpec& out, std::string* error) {
    out = FuzzSpec{};
    if (!j.is_object()) {
        if (error != nullptr) {
            *error = "spec is not an object";
        }
        return false;
    }
    out.seed = j.at("seed").as_u64();
    out.duration_ms = static_cast<std::uint32_t>(j.at("duration_ms").as_u64(50));
    out.tick_us = static_cast<std::uint32_t>(j.at("tick_us").as_u64(1000));
    out.round_robin = j.at("round_robin").as_bool();
    out.iter_units = static_cast<std::int32_t>(j.at("iter_units").as_i64(10));
    if (out.duration_ms == 0 || out.tick_us == 0) {
        if (error != nullptr) {
            *error = "duration_ms/tick_us must be positive";
        }
        return false;
    }

    for (const Json& o : j.at("tasks").items()) {
        TaskSpec t;
        t.pri = static_cast<std::int32_t>(o.at("pri").as_i64(1));
        t.tex = o.at("tex").as_bool();
        if (!corpus::program_from_json(o.at("ops"), t.ops, error)) {
            return false;
        }
        out.tasks.push_back(std::move(t));
    }
    for (const Json& o : j.at("sems").items()) {
        SemSpec s;
        s.init = static_cast<std::int32_t>(o.at("init").as_i64());
        s.max = static_cast<std::int32_t>(o.at("max").as_i64(1));
        s.tpri = o.at("tpri").as_bool();
        s.cnt_order = o.at("cnt_order").as_bool();
        out.sems.push_back(s);
    }
    for (const Json& o : j.at("flgs").items()) {
        FlgSpec f;
        f.init = static_cast<std::uint32_t>(o.at("init").as_u64());
        f.tpri = o.at("tpri").as_bool();
        f.wmul = o.at("wmul").as_bool(true);
        out.flgs.push_back(f);
    }
    for (const Json& o : j.at("mtxs").items()) {
        MtxSpec m;
        m.proto = static_cast<std::int32_t>(o.at("proto").as_i64());
        m.ceil = static_cast<std::int32_t>(o.at("ceil").as_i64(1));
        out.mtxs.push_back(m);
    }
    for (const Json& o : j.at("mbxs").items()) {
        MbxSpec m;
        m.tpri = o.at("tpri").as_bool();
        m.mpri = o.at("mpri").as_bool();
        m.nodes = static_cast<std::int32_t>(o.at("nodes").as_i64(4));
        out.mbxs.push_back(m);
    }
    for (const Json& o : j.at("mbfs").items()) {
        MbfSpec m;
        m.bufsz = static_cast<std::int32_t>(o.at("bufsz").as_i64(64));
        m.maxmsz = static_cast<std::int32_t>(o.at("maxmsz").as_i64(16));
        m.tpri = o.at("tpri").as_bool();
        out.mbfs.push_back(m);
    }
    for (const Json& o : j.at("mpfs").items()) {
        MpfSpec m;
        m.cnt = static_cast<std::int32_t>(o.at("cnt").as_i64(2));
        m.blksz = static_cast<std::int32_t>(o.at("blksz").as_i64(16));
        m.tpri = o.at("tpri").as_bool();
        out.mpfs.push_back(m);
    }
    for (const Json& o : j.at("mpls").items()) {
        MplSpec m;
        m.size = static_cast<std::int32_t>(o.at("size").as_i64(256));
        m.tpri = o.at("tpri").as_bool();
        out.mpls.push_back(m);
    }
    for (const Json& o : j.at("cycs").items()) {
        CycSpec c;
        c.period_ms = static_cast<std::int32_t>(o.at("period_ms").as_i64(5));
        c.phase_ms = static_cast<std::int32_t>(o.at("phase_ms").as_i64());
        c.autostart = o.at("autostart").as_bool(true);
        c.phs = o.at("phs").as_bool();
        if (!corpus::program_from_json(o.at("ops"), c.ops, error)) {
            return false;
        }
        out.cycs.push_back(std::move(c));
    }
    for (const Json& o : j.at("alms").items()) {
        AlmSpec a;
        a.start_ms = static_cast<std::int32_t>(o.at("start_ms").as_i64());
        if (!corpus::program_from_json(o.at("ops"), a.ops, error)) {
            return false;
        }
        out.alms.push_back(std::move(a));
    }
    for (const Json& o : j.at("ints").items()) {
        IntSpec i;
        i.pri = static_cast<std::int32_t>(o.at("pri").as_i64(1));
        if (!corpus::program_from_json(o.at("ops"), i.ops, error)) {
            return false;
        }
        out.ints.push_back(std::move(i));
    }
    return true;
}

// ---- generator --------------------------------------------------------------

namespace {

SpecTmo gen_tmo(corpus::Rng& rng) {
    const std::uint64_t r = rng.below(100);
    if (r < 20) {
        return -1;  // TMO_FEVR
    }
    if (r < 35) {
        return 0;  // TMO_POL
    }
    return static_cast<SpecTmo>(1 + rng.below(12));
}

/// One op aimed at task-level code. Only object classes that exist in
/// the spec are drawn.
corpus::Op gen_task_op(corpus::Rng& rng, const FuzzSpec& spec,
                       const GenParams& params) {
    const int ntasks = static_cast<int>(spec.tasks.size());
    for (;;) {
        // Draw an op family, then reject families without instances.
        switch (rng.below(20)) {
            case 0:
                return {OpKind::compute, rng.irange(5, 120), 0, 0, 0};
            case 1:
                return {OpKind::delay, rng.irange(1, 8), 0, 0, 0};
            case 2:
                if (rng.chance(50)) {
                    return {OpKind::sleep, gen_tmo(rng), 0, 0, 0};
                }
                return {OpKind::wakeup, rng.irange(0, ntasks - 1), 0, 0, 0};
            case 3: {
                const int sel = rng.irange(0, 4);
                const int tgt = rng.irange(0, ntasks - 1);
                if (sel == 0) {
                    return {OpKind::can_wup, tgt, 0, 0, 0};
                }
                if (sel == 1) {
                    return {OpKind::rel_wai, tgt, 0, 0, 0};
                }
                if (sel == 2) {
                    return {OpKind::suspend, tgt, 0, 0, 0};
                }
                if (sel == 3) {
                    return {OpKind::resume, tgt, 0, 0, 0};
                }
                return {OpKind::frsm, tgt, 0, 0, 0};
            }
            case 4:
                return {OpKind::chg_pri, rng.irange(0, ntasks - 1),
                        rng.chance(10) ? 0 : rng.irange(1, params.max_pri), 0, 0};
            case 5:
                return {OpKind::rot_rdq,
                        rng.chance(30) ? 0 : rng.irange(1, params.max_pri), 0, 0, 0};
            case 6:
                if (rng.chance(60)) {
                    return {OpKind::sta_tsk, rng.irange(0, ntasks - 1), 0, 0, 0};
                }
                if (rng.chance(30)) {
                    return {OpKind::ext_tsk, 0, 0, 0, 0};
                }
                return {OpKind::ter_tsk, rng.irange(0, ntasks - 1), 0, 0, 0};
            case 7:
            case 8:
                if (!spec.sems.empty()) {
                    const int s = rng.irange(0, static_cast<int>(spec.sems.size()) - 1);
                    const int smax = spec.sems[static_cast<std::size_t>(s)].max;
                    if (rng.chance(55)) {
                        return {OpKind::sem_wait, s, rng.irange(1, smax < 3 ? smax : 3),
                                gen_tmo(rng), 0};
                    }
                    return {OpKind::sem_signal, s, rng.irange(1, 2), 0, 0};
                }
                break;
            case 9:
            case 10:
                if (!spec.flgs.empty()) {
                    const int f = rng.irange(0, static_cast<int>(spec.flgs.size()) - 1);
                    const std::uint64_t r = rng.below(100);
                    if (r < 40) {
                        return {OpKind::flg_wait, f, rng.irange(1, 0xF),
                                rng.irange(0, 5), gen_tmo(rng)};
                    }
                    if (r < 85) {
                        return {OpKind::flg_set, f, rng.irange(1, 0xF), 0, 0};
                    }
                    return {OpKind::flg_clr, f, rng.irange(0, 0xF), 0, 0};
                }
                break;
            case 11:
            case 12:
                if (!spec.mtxs.empty()) {
                    const int m = rng.irange(0, static_cast<int>(spec.mtxs.size()) - 1);
                    if (rng.chance(60)) {
                        return {OpKind::mtx_lock, m, gen_tmo(rng), 0, 0};
                    }
                    return {OpKind::mtx_unlock, m, 0, 0, 0};
                }
                break;
            case 13:
                if (!spec.mbxs.empty()) {
                    const int m = rng.irange(0, static_cast<int>(spec.mbxs.size()) - 1);
                    if (rng.chance(50)) {
                        return {OpKind::mbx_send, m, rng.irange(1, 8), 0, 0};
                    }
                    return {OpKind::mbx_recv, m, gen_tmo(rng), 0, 0};
                }
                break;
            case 14:
                if (!spec.mbfs.empty()) {
                    const int m = rng.irange(0, static_cast<int>(spec.mbfs.size()) - 1);
                    if (rng.chance(50)) {
                        return {OpKind::mbf_send, m,
                                rng.irange(1, spec.mbfs[static_cast<std::size_t>(m)].maxmsz),
                                gen_tmo(rng), 0};
                    }
                    return {OpKind::mbf_recv, m, gen_tmo(rng), 0, 0};
                }
                break;
            case 15:
                if (!spec.mpfs.empty()) {
                    const int m = rng.irange(0, static_cast<int>(spec.mpfs.size()) - 1);
                    if (rng.chance(55)) {
                        return {OpKind::mpf_get, m, gen_tmo(rng), 0, 0};
                    }
                    return {OpKind::mpf_rel, m, 0, 0, 0};
                }
                if (!spec.mpls.empty()) {
                    const int m = rng.irange(0, static_cast<int>(spec.mpls.size()) - 1);
                    if (rng.chance(55)) {
                        return {OpKind::mpl_get, m, rng.irange(1, 96), gen_tmo(rng), 0};
                    }
                    return {OpKind::mpl_rel, m, 0, 0, 0};
                }
                break;
            case 16:
                if (!spec.cycs.empty() && rng.chance(50)) {
                    const int c = rng.irange(0, static_cast<int>(spec.cycs.size()) - 1);
                    return {rng.chance(50) ? OpKind::cyc_start : OpKind::cyc_stop, c,
                            0, 0, 0};
                }
                if (!spec.alms.empty()) {
                    const int a = rng.irange(0, static_cast<int>(spec.alms.size()) - 1);
                    if (rng.chance(70)) {
                        return {OpKind::alm_start, a, rng.irange(1, 20), 0, 0};
                    }
                    return {OpKind::alm_stop, a, 0, 0, 0};
                }
                break;
            case 17:
                if (!spec.ints.empty()) {
                    return {OpKind::raise_int,
                            rng.irange(0, static_cast<int>(spec.ints.size()) - 1), 0,
                            0, 0};
                }
                break;
            case 18:
                if (rng.chance(50)) {
                    return {OpKind::dsp_block, rng.irange(10, 80), 0, 0, 0};
                }
                return {OpKind::ras_tex, rng.irange(0, ntasks - 1),
                        rng.irange(1, 0xF), 0, 0};
            case 19:
                return {OpKind::ref_poll, rng.irange(0, 7), 0, 0, 0};
        }
    }
}

/// Handler-context op: non-blocking signalling / control only.
corpus::Op gen_handler_op(corpus::Rng& rng, const FuzzSpec& spec,
                          const GenParams& params) {
    const int ntasks = static_cast<int>(spec.tasks.size());
    for (;;) {
        switch (rng.below(10)) {
            case 0:
            case 1:
                return {OpKind::compute, rng.irange(3, 40), 0, 0, 0};
            case 2:
                return {OpKind::wakeup, rng.irange(0, ntasks - 1), 0, 0, 0};
            case 3:
                if (!spec.sems.empty()) {
                    return {OpKind::sem_signal,
                            rng.irange(0, static_cast<int>(spec.sems.size()) - 1),
                            rng.irange(1, 2), 0, 0};
                }
                break;
            case 4:
                if (!spec.flgs.empty()) {
                    return {OpKind::flg_set,
                            rng.irange(0, static_cast<int>(spec.flgs.size()) - 1),
                            rng.irange(1, 0xF), 0, 0};
                }
                break;
            case 5:
                return {OpKind::chg_pri, rng.irange(0, ntasks - 1),
                        rng.irange(1, params.max_pri), 0, 0};
            case 6: {
                const int tgt = rng.irange(0, ntasks - 1);
                if (rng.chance(50)) {
                    return {OpKind::suspend, tgt, 0, 0, 0};
                }
                return {OpKind::resume, tgt, 0, 0, 0};
            }
            case 7:
                if (!spec.ints.empty() && rng.chance(40)) {
                    return {OpKind::raise_int,
                            rng.irange(0, static_cast<int>(spec.ints.size()) - 1), 0,
                            0, 0};
                }
                return {OpKind::rel_wai, rng.irange(0, ntasks - 1), 0, 0, 0};
            case 8:
                if (!spec.alms.empty()) {
                    return {OpKind::alm_start,
                            rng.irange(0, static_cast<int>(spec.alms.size()) - 1),
                            rng.irange(1, 15), 0, 0};
                }
                break;
            case 9:
                return {OpKind::ref_poll, rng.irange(0, 7), 0, 0, 0};
        }
    }
}

std::vector<corpus::Op> gen_ops(corpus::Rng& rng, const FuzzSpec& spec,
                                const GenParams& params, int count,
                                bool handler) {
    std::vector<corpus::Op> ops;
    ops.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        ops.push_back(handler ? gen_handler_op(rng, spec, params)
                              : gen_task_op(rng, spec, params));
    }
    return ops;
}

}  // namespace

FuzzSpec generate_spec(std::uint64_t seed, const GenParams& params) {
    corpus::Rng rng(seed);
    FuzzSpec spec;
    spec.seed = seed;
    spec.round_robin = (rng.next_u64() & 1) != 0;
    spec.duration_ms = static_cast<std::uint32_t>(
        rng.range(params.min_duration_ms, params.max_duration_ms));
    switch (rng.below(8)) {
        case 0: spec.tick_us = 500; break;
        case 1: spec.tick_us = 2000; break;
        default: spec.tick_us = 1000; break;
    }
    spec.iter_units = rng.irange(5, 40);

    // ---- object population (before programs, so ops can reference it) ----
    const int ntasks = rng.irange(params.min_tasks, params.max_tasks);
    const int nsems = rng.irange(0, params.max_sems);
    for (int i = 0; i < nsems; ++i) {
        SemSpec s;
        s.max = rng.irange(1, 8);
        s.init = rng.irange(0, s.max);
        s.tpri = rng.chance(50);
        s.cnt_order = rng.chance(35);
        spec.sems.push_back(s);
    }
    const int nflgs = rng.irange(0, params.max_flgs);
    for (int i = 0; i < nflgs; ++i) {
        FlgSpec f;
        f.init = static_cast<std::uint32_t>(rng.below(0x10));
        f.tpri = rng.chance(50);
        f.wmul = rng.chance(80);
        spec.flgs.push_back(f);
    }
    const int nmtxs = rng.irange(0, params.max_mtxs);
    for (int i = 0; i < nmtxs; ++i) {
        MtxSpec m;
        m.proto = rng.irange(0, 3);
        m.ceil = rng.irange(1, 6);
        spec.mtxs.push_back(m);
    }
    const int nmbxs = rng.irange(0, params.max_mbxs);
    for (int i = 0; i < nmbxs; ++i) {
        MbxSpec m;
        m.tpri = rng.chance(50);
        m.mpri = rng.chance(50);
        m.nodes = rng.irange(2, 6);
        spec.mbxs.push_back(m);
    }
    const int nmbfs = rng.irange(0, params.max_mbfs);
    for (int i = 0; i < nmbfs; ++i) {
        MbfSpec m;
        m.maxmsz = rng.irange(4, 32);
        m.bufsz = rng.chance(12) ? 0 : rng.irange(16, 128);
        m.tpri = rng.chance(50);
        spec.mbfs.push_back(m);
    }
    const int nmpfs = rng.irange(0, params.max_mpfs);
    for (int i = 0; i < nmpfs; ++i) {
        MpfSpec m;
        m.cnt = rng.irange(1, 4);
        m.blksz = rng.irange(8, 64);
        m.tpri = rng.chance(50);
        spec.mpfs.push_back(m);
    }
    const int nmpls = rng.irange(0, params.max_mpls);
    for (int i = 0; i < nmpls; ++i) {
        MplSpec m;
        m.size = rng.irange(64, 512);
        m.tpri = rng.chance(50);
        spec.mpls.push_back(m);
    }

    // Tasks first as placeholders: handler/task programs index them.
    for (int i = 0; i < ntasks; ++i) {
        TaskSpec t;
        t.pri = rng.irange(1, params.max_pri);
        t.tex = rng.chance(25);
        spec.tasks.push_back(std::move(t));
    }

    const int ncycs = rng.irange(0, params.max_cycs);
    for (int i = 0; i < ncycs; ++i) {
        CycSpec c;
        c.period_ms = rng.irange(1, 10);
        c.phase_ms = rng.irange(0, 5);
        c.autostart = rng.chance(80);
        c.phs = rng.chance(30);
        spec.cycs.push_back(std::move(c));
    }
    const int nalms = rng.irange(0, params.max_alms);
    for (int i = 0; i < nalms; ++i) {
        AlmSpec a;
        a.start_ms = rng.chance(75) ? rng.irange(1, 30) : 0;
        spec.alms.push_back(std::move(a));
    }
    const int nints = rng.irange(0, params.max_ints);
    for (int i = 0; i < nints; ++i) {
        IntSpec v;
        v.pri = rng.irange(1, 8);
        spec.ints.push_back(std::move(v));
    }

    // ---- programs ----
    for (TaskSpec& t : spec.tasks) {
        t.ops = gen_ops(rng, spec, params, rng.irange(3, params.max_ops_per_task),
                        /*handler=*/false);
    }
    for (CycSpec& c : spec.cycs) {
        c.ops = gen_ops(rng, spec, params, rng.irange(1, 3), /*handler=*/true);
    }
    for (AlmSpec& a : spec.alms) {
        a.ops = gen_ops(rng, spec, params, rng.irange(1, 3), /*handler=*/true);
    }
    for (IntSpec& v : spec.ints) {
        v.ops = gen_ops(rng, spec, params, rng.irange(1, 3), /*handler=*/true);
    }
    return spec;
}

}  // namespace rtk::harness::fuzz
