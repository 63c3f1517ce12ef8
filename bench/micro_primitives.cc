/**
 * Google-benchmark microbenchmarks for the library primitives: hash
 * functions, cache/TLB/mesh/DRAM models, the event kernel, and one
 * end-to-end accelerated query. These measure *host* performance of
 * the simulator itself (useful when scaling experiments up), not
 * simulated time.
 */

#include <benchmark/benchmark.h>

#include "common/thread_pool.hh"
#include "ds/bst.hh"
#include "ds/chained_hash.hh"
#include "ds/trie.hh"
#include "mem/hierarchy.hh"
#include "qei/line_stage.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

void
BM_Crc32c(benchmark::State& state)
{
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crc32c(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(16)->Arg(100)->Arg(1024);

void
BM_Jhash(benchmark::State& state)
{
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state)
        benchmark::DoNotOptimize(jhash(buf.data(), buf.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Jhash)->Arg(16)->Arg(100)->Arg(1024);

void
BM_CacheAccess(benchmark::State& state)
{
    Cache cache(CacheParams{"bm", 1 << 20, 16, 14});
    Rng rng(1);
    for (auto _ : state) {
        const Addr a = rng.below(1 << 22) * kCacheLineBytes;
        if (!cache.access(a, false))
            cache.fill(a);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_LlcAccess(benchmark::State& state)
{
    // Random lines over twice the Tab. II LLC (33 MB over 24 11-way
    // slices): about half miss to DRAM, and each lookup lands in a
    // random set of all 24 slices' tags (MBs, unlike BM_CacheAccess's
    // one 1 MB L2), as in a warmed World.
    MemoryHierarchy hierarchy;
    const std::uint64_t llcLines =
        hierarchy.params().llcSlice.sizeBytes / kCacheLineBytes *
        static_cast<std::uint64_t>(hierarchy.cores());
    Rng rng(2);
    Cycles now = 0;
    for (auto _ : state) {
        const Addr a = rng.below(2 * llcLines) * kCacheLineBytes;
        const int tile = static_cast<int>(rng.below(24));
        benchmark::DoNotOptimize(hierarchy.chaAccess(tile, a, false, now));
        now += 10;
    }
}
BENCHMARK(BM_LlcAccess);

void
BM_FlushAllCaches(benchmark::State& state)
{
    // Every cache of a Tab. II chip: 24 x (L1D, L2, LLC slice).
    MemoryHierarchy hierarchy;
    for (auto _ : state)
        hierarchy.flushAllCaches();
}
BENCHMARK(BM_FlushAllCaches);

void
BM_VmReadBytes(benchmark::State& state)
{
    // A written 1 MB heap on scattered frames; each read translates one
    // random address and copies range(0) bytes (64: a staged line, 8: a
    // node field). The heap fits the host's L2, so this times the
    // translation and copy rather than host memory misses.
    constexpr std::uint64_t kHeapBytes = 1ULL << 20;
    SimMemory memory;
    VirtualMemory vm(memory);
    const Addr heap = vm.alloc(kHeapBytes, kPageBytes);
    const std::vector<std::uint8_t> page(kPageBytes, 0x5A);
    for (Addr a = heap; a < heap + kHeapBytes; a += kPageBytes)
        vm.writeBytes(a, page.data(), page.size());
    const auto len = static_cast<std::size_t>(state.range(0));
    const std::uint64_t slots = kHeapBytes / len;
    std::uint8_t buf[kCacheLineBytes] = {};
    std::uint8_t* out = buf;
    benchmark::DoNotOptimize(out);
    Rng rng(5);
    for (auto _ : state) {
        vm.readBytes(heap + rng.below(slots) * len, out, len);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_VmReadBytes)->Arg(64)->Arg(8);

/**
 * Host cost of one structure build into a fresh address space, the
 * set-up a paper workload pays once per World. @p build gets the
 * address space; its construction and teardown are not timed.
 */
template <typename Build>
void
timeBuild(benchmark::State& state, Build build)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto memory = std::make_unique<SimMemory>();
        auto vm = std::make_unique<VirtualMemory>(*memory);
        state.ResumeTiming();
        build(*vm);
        state.PauseTiming();
        vm.reset();
        memory.reset();
        state.ResumeTiming();
    }
}

void
BM_SimTrieBuild(benchmark::State& state)
{
    // Snort's dictionary: 40 K keywords of 4..12 lowercase letters.
    Rng rng(3);
    std::vector<std::string> words(40 * 1000);
    for (auto& word : words) {
        word.resize(4 + rng.below(9));
        for (char& c : word)
            c = static_cast<char>('a' + rng.below(26));
    }
    timeBuild(state, [&](VirtualMemory& vm) {
        SimTrie trie(vm, words);
        benchmark::DoNotOptimize(trie.rootAddr());
    });
}
BENCHMARK(BM_SimTrieBuild)->Unit(benchmark::kMillisecond);

void
BM_SimBstBuild(benchmark::State& state)
{
    // The JVM object tree: 150 K random 8-byte ids in random order.
    Rng rng(3);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (std::uint64_t i = 0; i < 150 * 1000; ++i)
        items.emplace_back(randomKey(rng, 8), i);
    timeBuild(state, [&](VirtualMemory& vm) {
        SimBst tree(vm, items);
        benchmark::DoNotOptimize(tree.rootAddr());
    });
}
BENCHMARK(BM_SimBstBuild)->Unit(benchmark::kMillisecond);

void
BM_ChainedHashBuild(benchmark::State& state)
{
    // One FLANN LSH table: 30 K 20-byte projected keys, 8192 buckets.
    Rng rng(3);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (std::uint64_t i = 0; i < 30 * 1000; ++i)
        items.emplace_back(randomKey(rng, 20), i);
    timeBuild(state, [&](VirtualMemory& vm) {
        SimChainedHash table(vm, items, 8192, HashFunction::Fnv1a);
        benchmark::DoNotOptimize(table.headerAddr());
    });
}
BENCHMARK(BM_ChainedHashBuild)->Unit(benchmark::kMillisecond);

void
BM_TlbLookup(benchmark::State& state)
{
    Tlb tlb(1536, 9);
    for (Addr v = 0; v < 1536; ++v)
        tlb.fill(v);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(rng.below(2048)));
}
BENCHMARK(BM_TlbLookup);

void
BM_TlbChurn(benchmark::State& state)
{
    // A full L2-TLB under a working set of twice its size: about half
    // the lookups miss, and each miss fills and evicts the LRU entry.
    Tlb tlb(1536, 9);
    for (Addr v = 0; v < 1536; ++v)
        tlb.fill(v);
    Rng rng(5);
    for (auto _ : state) {
        const Addr vpn = rng.below(3072);
        if (!tlb.lookup(vpn))
            tlb.fill(vpn);
    }
}
BENCHMARK(BM_TlbChurn);

void
BM_MeshTraverse(benchmark::State& state)
{
    Mesh mesh;
    Rng rng(3);
    Cycles now = 0;
    for (auto _ : state) {
        const int from = static_cast<int>(rng.below(24));
        const int to = static_cast<int>(rng.below(24));
        benchmark::DoNotOptimize(mesh.traverse(from, to, 64, now));
        ++now;
    }
}
BENCHMARK(BM_MeshTraverse);

void
BM_DramAccess(benchmark::State& state)
{
    Dram dram;
    Rng rng(4);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.below(1 << 30), now));
        now += 10;
    }
}
BENCHMARK(BM_DramAccess);

void
BM_EventQueueChurn(benchmark::State& state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(static_cast<Cycles>(i % 97), [&] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void
BM_EventQueueSchedule(benchmark::State& state)
{
    // Scheduling cost without a drain: each iteration pushes
    // range(0) events, building each small-capture EventFn in its
    // slab slot and sifting its key up the heap, then reset()
    // destroys them all (no per-event heap allocation).
    EventQueue q;
    q.reserve(static_cast<std::size_t>(state.range(0)));
    int sink = 0;
    for (auto _ : state) {
        q.reset();
        for (std::int64_t i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<Cycles>(i % 97),
                       [&sink] { ++sink; });
        }
        benchmark::DoNotOptimize(q.pending());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_EventQueueSchedule)->Arg(1000)->Arg(10000);

void
BM_EventQueueRunDrain(benchmark::State& state)
{
    // Schedule + drain, including events that reschedule themselves
    // once (the simulator's dominant pattern in the issue loops).
    EventQueue q;
    q.reserve(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        q.reset();
        int sink = 0;
        for (std::int64_t i = 0; i < state.range(0); ++i) {
            q.schedule(static_cast<Cycles>(i % 97), [&q, &sink] {
                q.schedule(5, [&sink] { ++sink; });
            });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 2);
}
BENCHMARK(BM_EventQueueRunDrain)->Arg(1000)->Arg(10000);

void
BM_EventQueueRunDrainDeep(benchmark::State& state)
{
    // RunDrain on a deep heap: range(0) events pending at once, spread
    // over 64 K cycles at all four priorities (an open-loop run's
    // pre-scheduled arrivals), each rescheduling once as it fires.
    static constexpr EventPriority kPrios[] = {
        EventPriority::MemoryResponse, EventPriority::Default,
        EventPriority::CfaTick, EventPriority::Stats};
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<Cycles> delays(n);
    Rng rng(3);
    for (Cycles& d : delays)
        d = rng.below(1 << 16);
    EventQueue q;
    q.reserve(n);
    for (auto _ : state) {
        q.reset();
        int sink = 0;
        for (std::size_t i = 0; i < n; ++i) {
            q.schedule(delays[i], [&q, &sink, i] {
                q.schedule(static_cast<Cycles>(i % 7),
                           [&sink] { ++sink; }, kPrios[(i + 1) % 4]);
            }, kPrios[i % 4]);
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 2);
}
BENCHMARK(BM_EventQueueRunDrainDeep)->Arg(100000);

void
BM_LineStageProbe(benchmark::State& state)
{
    // A batch's line-staging buffer as fetchSpan drives it: probe each
    // fetched line, stage it on a miss (dropping all 256 when full).
    // Lines come from 1024 distinct addresses, so it both hits and
    // overflows.
    std::vector<Addr> lines(4096);
    Rng rng(4);
    for (Addr& line : lines)
        line = rng.below(1024) * kCacheLineBytes;
    LineStage stage;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        for (const Addr line : lines) {
            if (stage.find(line) != nullptr)
                ++hits;
            else
                stage.stage(line, line);
        }
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_LineStageProbe);

void
BM_ThreadPoolDispatch(benchmark::State& state)
{
    // Submit/complete round-trip cost for trivial tasks: the fixed
    // overhead a (workload x scheme) cell pays to ride the pool.
    ThreadPool pool(static_cast<int>(state.range(0)));
    std::vector<std::future<int>> futures;
    futures.reserve(256);
    for (auto _ : state) {
        futures.clear();
        for (int i = 0; i < 256; ++i)
            futures.push_back(pool.submit([i] { return i; }));
        int sink = 0;
        for (auto& f : futures)
            sink += f.get();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4)->Arg(8);

void
BM_AcceleratedQuery(benchmark::State& state)
{
    // End-to-end: one blocking query per iteration through the
    // Core-integrated accelerator (host-time cost of the simulation).
    World world(5);
    Rng rng(6);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 2000; ++i)
        items.emplace_back(randomKey(rng, 16), i);
    SimChainedHash table(world.vm, items, 512);

    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 10;
    for (int i = 0; i < 64; ++i) {
        const Key& key = items[rng.below(items.size())].first;
        QueryTrace t = table.query(key);
        QueryJob job;
        job.headerAddr = table.headerAddr();
        job.keyAddr = table.stageKey(key);
        job.resultAddr = world.vm.alloc(16, 16);
        job.expectFound = t.found;
        job.expectValue = t.resultValue;
        prep.jobs.push_back(job);
        prep.traces.push_back(std::move(t));
    }

    for (auto _ : state) {
        const QeiRunStats stats =
            runQei(world, prep, DriverConfig(SchemeConfig::coreIntegrated()));
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AcceleratedQuery);

void
BM_TraceEmit(benchmark::State& state)
{
    // Hot-path cost of one guarded emit into an enabled sink — the
    // per-event budget is < 20 ns. With QEI_TRACING=OFF,
    // trace::active() folds to constant false, the loop body
    // dead-codes away, and this reports ~0 ns/event.
    trace::TraceSink sink;
    sink.enable(1 << 12);
    const std::uint16_t comp = sink.internComponent("bm.accel0");
    const std::uint32_t name = sink.internName("uop");
    Cycles tick = 0;
    for (auto _ : state) {
        if (trace::active(&sink))
            sink.record(trace::Category::Microcode, comp, name,
                        /*query_id=*/7, tick, /*duration=*/3);
        ++tick;
        benchmark::DoNotOptimize(tick);
    }
    state.SetLabel(trace::kCompiledIn ? "tracing=on" : "tracing=off");
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmit);

void
BM_TraceEmitDisabled(benchmark::State& state)
{
    // Same guarded emit against a disabled sink: the cost every
    // always-instrumented component pays on un-traced runs (one
    // predictable branch).
    trace::TraceSink sink;
    const std::uint16_t comp = sink.internComponent("bm.accel0");
    const std::uint32_t name = sink.internName("uop");
    Cycles tick = 0;
    for (auto _ : state) {
        if (trace::active(&sink))
            sink.record(trace::Category::Microcode, comp, name,
                        /*query_id=*/7, tick, /*duration=*/3);
        ++tick;
        benchmark::DoNotOptimize(tick);
    }
    state.SetLabel(trace::kCompiledIn ? "tracing=on" : "tracing=off");
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmitDisabled);

} // namespace

BENCHMARK_MAIN();
