#include "core/config_gen.hpp"

#include <initializer_list>

#include "common/snapshot.hpp"
#include "cpu/consistency.hpp"

namespace dbsim::core {

namespace {

/** Uniform pick from a small literal choice set. */
std::uint64_t
pick(Rng &rng, std::initializer_list<std::uint64_t> xs)
{
    const std::uint64_t *it = xs.begin();
    return it[rng.below(xs.size())];
}

double
pickd(Rng &rng, std::initializer_list<double> xs)
{
    const double *it = xs.begin();
    return it[rng.below(xs.size())];
}

} // namespace

SimConfig
randomSimConfig(Rng &rng, const FuzzSpace &space)
{
    // Node count: powers of two up to the space bound (the fabric
    // supports any 1..32, but the paper's machines and the scheduler
    // tests live on power-of-two meshes).
    std::uint32_t nodes = 1;
    {
        std::uint32_t choices = 0;
        for (std::uint32_t n = 1; n <= space.max_nodes; n *= 2)
            ++choices;
        const std::uint32_t idx =
            static_cast<std::uint32_t>(rng.below(choices ? choices : 1));
        nodes = 1u << idx;
    }
    const WorkloadKind kind =
        rng.chance(0.5) ? WorkloadKind::Oltp : WorkloadKind::Dss;
    SimConfig cfg = makeScaledConfig(kind, nodes);

    // ----- cache hierarchy -------------------------------------------
    const std::uint32_t line =
        static_cast<std::uint32_t>(pick(rng, {32, 64}));
    cfg.system.node.l1i.size_bytes = pick(rng, {8 * 1024, 16 * 1024, 32 * 1024});
    cfg.system.node.l1i.assoc = static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.node.l1i.line_bytes = line;
    cfg.system.node.l1i.mshrs = static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
    cfg.system.node.l1d.size_bytes = pick(rng, {8 * 1024, 16 * 1024, 32 * 1024});
    cfg.system.node.l1d.assoc = static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.node.l1d.line_bytes = line;
    cfg.system.node.l1d.mshrs =
        static_cast<std::uint32_t>(pick(rng, {1, 2, 4, 8, 16}));
    cfg.system.node.l1d.ports = static_cast<std::uint32_t>(pick(rng, {1, 2}));
    cfg.system.node.l2.size_bytes =
        pick(rng, {128 * 1024, 256 * 1024, 512 * 1024});
    cfg.system.node.l2.assoc = static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
    cfg.system.node.l2.line_bytes = line;
    cfg.system.node.l2.hit_time = pick(rng, {12, 20});
    cfg.system.node.l2.mshrs = static_cast<std::uint32_t>(pick(rng, {4, 8, 16}));
    cfg.system.node.l2_port_hold = pick(rng, {2, 4});

    cfg.system.node.page_bytes =
        static_cast<std::uint32_t>(pick(rng, {4096, 8192}));
    cfg.system.node.itlb_entries =
        static_cast<std::uint32_t>(pick(rng, {16, 64, 128}));
    cfg.system.node.dtlb_entries =
        static_cast<std::uint32_t>(pick(rng, {16, 64, 128}));
    cfg.system.node.tlb_miss_penalty = pick(rng, {20, 40});
    cfg.system.node.perfect_icache = rng.chance(0.1);
    cfg.system.node.perfect_itlb = rng.chance(0.1);
    cfg.system.node.perfect_dtlb = rng.chance(0.1);
    cfg.system.node.stream_buffer_entries =
        static_cast<std::uint32_t>(pick(rng, {0, 0, 4, 8}));
    cfg.system.page_bins = static_cast<std::uint32_t>(pick(rng, {8, 16, 32}));

    // ----- core ------------------------------------------------------
    cfg.system.core.out_of_order = rng.chance(0.7);
    cfg.system.core.issue_width =
        static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
    cfg.system.core.window_size =
        static_cast<std::uint32_t>(pick(rng, {16, 32, 64}));
    cfg.system.core.mem_queue_size =
        static_cast<std::uint32_t>(pick(rng, {8, 16, 32}));
    cfg.system.core.write_buffer_size =
        static_cast<std::uint32_t>(pick(rng, {4, 8, 16}));
    cfg.system.core.max_spec_branches =
        static_cast<std::uint32_t>(pick(rng, {4, 8}));
    cfg.system.core.fetch_line_bytes = line;
    switch (pick(rng, {0, 1, 2})) {
    case 0: cfg.system.core.model = cpu::ConsistencyModel::SC; break;
    case 1: cfg.system.core.model = cpu::ConsistencyModel::PC; break;
    default: cfg.system.core.model = cpu::ConsistencyModel::RC; break;
    }
    cfg.system.core.cons.hw_prefetch = rng.chance(0.5);
    cfg.system.core.cons.spec_loads = rng.chance(0.5);

    // ----- fabric / interconnect -------------------------------------
    cfg.system.fabric.adaptive_migratory = rng.chance(0.5);
    cfg.system.fabric.flush_invalidates = rng.chance(0.25);
    cfg.system.fabric.migratory_read_factor = rng.chance(0.25) ? 0.6 : 1.0;
    cfg.system.mesh.router_delay =
        static_cast<std::uint32_t>(pick(rng, {2, 4}));
    cfg.system.mesh.wire_delay = static_cast<std::uint32_t>(pick(rng, {1, 2}));
    cfg.system.sched_quantum = pick(rng, {50'000, 200'000});

    // ----- workload --------------------------------------------------
    if (kind == WorkloadKind::Oltp) {
        const std::uint32_t ppc =
            static_cast<std::uint32_t>(pick(rng, {2, 4, 8}));
        cfg.oltp.num_procs = ppc * nodes;
        cfg.oltp.branches = static_cast<std::uint32_t>(pick(rng, {8, 40}));
        cfg.oltp.local_branch_prob = pickd(rng, {0.5, 0.85, 1.0});
        cfg.oltp.commits_per_group =
            static_cast<std::uint32_t>(pick(rng, {1, 8}));
        cfg.oltp.buffer_zipf_skew = pickd(rng, {0.0, 0.5, 1.0});
        cfg.oltp.sga.code_bytes = pick(rng, {24 * 1024, 70 * 1024});
        cfg.oltp.seed = rng.range(1, 1u << 20);
        cfg.hint_prefetch = rng.chance(0.3);
        cfg.hint_flush = rng.chance(0.3);
        cfg.hints_hot_locks_only = rng.chance(0.5);
    } else {
        const std::uint32_t ppc =
            static_cast<std::uint32_t>(pick(rng, {1, 2, 4}));
        cfg.dss.num_procs = ppc * nodes;
        cfg.dss.selectivity = pickd(rng, {0.0, 0.02, 0.5, 1.0});
        // Stays within the default 64 MB block buffer.
        cfg.dss.table_bytes = pick(rng, {8ull << 20, 16ull << 20, 48ull << 20});
        cfg.dss.seed = rng.range(1, 1u << 20);
    }

    // ----- run budgets / observation ---------------------------------
    // Budgets are total across CPUs; round to 1k for readable repros.
    const std::uint64_t span =
        space.max_instructions > space.min_instructions
            ? space.max_instructions - space.min_instructions
            : 0;
    cfg.total_instructions =
        ((space.min_instructions + (span ? rng.below(span + 1) : 0)) / 1000) *
        1000;
    if (cfg.total_instructions == 0)
        cfg.total_instructions = 1000;
    cfg.warmup_instructions =
        rng.chance(0.5) ? cfg.total_instructions / 8 : 0;
    cfg.system.state_hash_interval = pick(rng, {2000, 4000, 8000});

    // Generator contract: every generated config is valid.
    cfg.validate();
    return cfg;
}

std::uint64_t
simConfigSignature(const SimConfig &cfg)
{
    snap::Writer w;
    w.u32(cfg.system.num_nodes);
    sim::signMachineParams(w, cfg.system);
    w.u64(cfg.system.sched_quantum);
    w.u32(cfg.system.page_bins);

    w.u8(cfg.workload == WorkloadKind::Oltp ? 0 : 1);
    if (cfg.workload == WorkloadKind::Oltp) {
        const workload::OltpParams &o = cfg.oltp;
        w.u32(o.num_procs);
        w.u32(o.branches);
        w.u32(o.tellers_per_branch);
        w.u32(o.accounts_per_branch);
        w.u32(o.hash_buckets);
        w.f64(o.local_branch_prob);
        w.u64(o.log_io_latency);
        w.u32(o.commits_per_group);
        w.u32(o.parse_routine_calls);
        w.u32(o.compute_per_routine);
        w.u32(o.private_refs_per_routine);
        w.f64(o.buffer_zipf_skew);
        w.u32(o.redo_copy_latches);
        w.u64(o.seed);
        w.u64(o.sga.code_bytes);
        w.u32(o.sga.block_bytes);
        w.u32(o.sga.buffer_blocks);
        w.u64(o.sga.metadata_bytes);
        w.u64(o.sga.log_buffer_bytes);
        w.u64(o.sga.private_bytes);
    } else {
        const workload::DssParams &d = cfg.dss;
        w.u32(d.num_procs);
        w.u64(d.table_bytes);
        w.u32(d.row_bytes);
        w.f64(d.selectivity);
        w.u32(d.table_refs_per_row);
        w.u32(d.private_refs_per_row);
        w.f64(d.workarea_chance);
        w.u64(d.workarea_bytes);
        w.u32(d.compute_per_row);
        w.u32(d.block_epilogue_compute);
        w.u64(d.seed);
        w.u64(d.sga.code_bytes);
        w.u32(d.sga.block_bytes);
        w.u32(d.sga.buffer_blocks);
        w.u64(d.sga.metadata_bytes);
        w.u64(d.sga.log_buffer_bytes);
        w.u64(d.sga.private_bytes);
    }

    w.boolean(cfg.hint_prefetch);
    w.boolean(cfg.hint_flush);
    w.boolean(cfg.hints_hot_locks_only);
    w.u64(cfg.total_instructions);
    w.u64(cfg.warmup_instructions);
    return w.hash();
}

bool
applyConfigOverride(SimConfig &cfg, const std::string &key,
                    std::uint64_t value)
{
    const std::uint32_t v32 = static_cast<std::uint32_t>(value);
    if (key == "num_nodes") {
        if (value == 0)
            return false;
        const std::uint32_t ppc = cfg.procsPerCpu();
        cfg.system.num_nodes = v32;
        if (cfg.workload == WorkloadKind::Oltp)
            cfg.oltp.num_procs = ppc * v32;
        else
            cfg.dss.num_procs = ppc * v32;
        return true;
    }
    if (key == "procs_per_cpu") {
        if (value == 0)
            return false;
        if (cfg.workload == WorkloadKind::Oltp)
            cfg.oltp.num_procs = v32 * cfg.system.num_nodes;
        else
            cfg.dss.num_procs = v32 * cfg.system.num_nodes;
        return true;
    }
    if (key == "total_instructions") {
        cfg.total_instructions = value;
        if (cfg.warmup_instructions >= value)
            cfg.warmup_instructions = value / 8;
        return true;
    }
    if (key == "warmup_instructions") {
        cfg.warmup_instructions = value;
        return true;
    }
    if (key == "stream_buffer_entries") {
        cfg.system.node.stream_buffer_entries = v32;
        return true;
    }
    if (key == "hint_prefetch") {
        cfg.hint_prefetch = value != 0;
        return true;
    }
    if (key == "hint_flush") {
        cfg.hint_flush = value != 0;
        return true;
    }
    if (key == "spec_loads") {
        cfg.system.core.cons.spec_loads = value != 0;
        return true;
    }
    if (key == "hw_prefetch") {
        cfg.system.core.cons.hw_prefetch = value != 0;
        return true;
    }
    if (key == "adaptive_migratory") {
        cfg.system.fabric.adaptive_migratory = value != 0;
        return true;
    }
    if (key == "flush_invalidates") {
        cfg.system.fabric.flush_invalidates = value != 0;
        return true;
    }
    if (key == "out_of_order") {
        cfg.system.core.out_of_order = value != 0;
        return true;
    }
    if (key == "model") {
        if (value > 2)
            return false;
        cfg.system.core.model = static_cast<cpu::ConsistencyModel>(value);
        return true;
    }
    if (key == "issue_width") {
        if (value == 0)
            return false;
        cfg.system.core.issue_width = v32;
        if (cfg.system.core.window_size < v32)
            cfg.system.core.window_size = v32;
        return true;
    }
    if (key == "l1d_mshrs") {
        if (value == 0)
            return false;
        cfg.system.node.l1d.mshrs = v32;
        return true;
    }
    if (key == "state_hash_interval") {
        cfg.system.state_hash_interval = value;
        return true;
    }
    if (key == "migratory_read_factor_x100") {
        if (value == 0)
            return false;
        cfg.system.fabric.migratory_read_factor =
            static_cast<double>(value) / 100.0;
        return true;
    }
    return false;
}

const std::vector<std::string> &
configOverrideKeys()
{
    // Shrink order: structural reductions first (node count, run
    // length), then feature knock-outs from most to least exotic.
    static const std::vector<std::string> kKeys = {
        "num_nodes",
        "total_instructions",
        "warmup_instructions",
        "procs_per_cpu",
        "stream_buffer_entries",
        "hint_prefetch",
        "hint_flush",
        "adaptive_migratory",
        "flush_invalidates",
        "migratory_read_factor_x100",
        "spec_loads",
        "hw_prefetch",
        "out_of_order",
        "model",
        "issue_width",
        "l1d_mshrs",
        "state_hash_interval",
    };
    return kKeys;
}

} // namespace dbsim::core
