#include "sim/scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dbsim::sim {

using cpu::ProcessContext;
using cpu::ProcState;

Scheduler::Scheduler(std::uint32_t num_cpus) : queues_(num_cpus)
{
    if (num_cpus == 0)
        DBSIM_FATAL("scheduler needs at least one CPU");
}

void
Scheduler::addProcess(ProcessContext *proc, CpuId cpu)
{
    DBSIM_ASSERT(cpu < queues_.size(), "bad affinity");
    if (affinity_.size() <= proc->id())
        affinity_.resize(proc->id() + 1, kNoAffinity);
    affinity_[proc->id()] = cpu;
    proc->state = ProcState::Ready;
    queues_[cpu].ready.push_back(proc);
    queues_[cpu].all.push_back(proc);
}

CpuId
Scheduler::affinityOf(const ProcessContext *proc) const
{
    DBSIM_ASSERT(proc->id() < affinity_.size() &&
                     affinity_[proc->id()] != kNoAffinity,
                 "process ", proc->id(),
                 " was never registered with addProcess");
    return affinity_[proc->id()];
}

void
Scheduler::wake(CpuQueue &q, Cycles now)
{
    while (!q.blocked.empty() && q.blocked.front().wake_at <= now) {
        ProcessContext *p = q.blocked.front().proc;
        std::pop_heap(q.blocked.begin(), q.blocked.end(), WakesLater{});
        q.blocked.pop_back();
        p->state = ProcState::Ready;
        q.ready.push_back(p);
    }
}

ProcessContext *
Scheduler::pickNext(CpuId cpu, Cycles now)
{
    CpuQueue &q = queues_[cpu];
    wake(q, now);
    if (q.ready.empty())
        return nullptr;
    ProcessContext *p = q.ready.front();
    q.ready.pop_front();
    return p;
}

void
Scheduler::makeReady(ProcessContext *proc)
{
    proc->state = ProcState::Ready;
    queues_[affinityOf(proc)].ready.push_back(proc);
}

void
Scheduler::block(ProcessContext *proc, Cycles wake_at)
{
    CpuQueue &q = queues_[affinityOf(proc)];
    proc->state = ProcState::Blocked;
    proc->wake_at = wake_at;
    q.blocked.push_back(BlockedEntry{wake_at, block_seq_++, proc});
    std::push_heap(q.blocked.begin(), q.blocked.end(), WakesLater{});
}

void
Scheduler::finish(ProcessContext *proc)
{
    proc->state = ProcState::Done;
}

bool
Scheduler::anyIncomplete(CpuId cpu) const
{
    const CpuQueue &q = queues_[cpu];
    return std::any_of(q.all.begin(), q.all.end(),
                       [](const ProcessContext *p) {
                           return p->state != ProcState::Done;
                       });
}

bool
Scheduler::anyIncomplete() const
{
    for (CpuId c = 0; c < queues_.size(); ++c)
        if (anyIncomplete(c))
            return true;
    return false;
}

Cycles
Scheduler::nextWake(CpuId cpu) const
{
    const CpuQueue &q = queues_[cpu];
    return q.blocked.empty() ? kNever : q.blocked.front().wake_at;
}

template <class Ar, class Self, class ProcField>
void
Scheduler::stateFields(Ar &ar, Self &s, ProcField &&proc)
{
    ar.u64(s.block_seq_);
    ar.fixed(s.queues_, 16, "CPU count", [&](auto &q) {
        ar.seq(q.ready, 4, proc);
        ar.seq(q.blocked, 20, [&](auto &e) {
            ar.u64(e.wake_at);
            ar.u64(e.seq);
            proc(e.proc);
        });
    });
}

void
Scheduler::saveState(snap::Writer &w) const
{
    stateFields(w, *this,
                [&w](const cpu::ProcessContext *p) { w.u32(p->id()); });
}

void
Scheduler::restoreState(
    snap::Reader &r,
    const std::function<cpu::ProcessContext *(ProcId)> &resolve)
{
    stateFields(r, *this, [&](cpu::ProcessContext *&p) {
        p = resolve(r.u32());
        if (p == nullptr)
            throw snap::SnapshotError("snapshot: unresolvable scheduled "
                                      "process");
    });
}

} // namespace dbsim::sim
