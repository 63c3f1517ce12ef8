// Edge cases and cross-cutting invariants that do not fit a single
// module suite: scheme presets, table rendering, trie/skip-list
// corner inputs, event-queue stress ordering, and figure-level
// directional claims.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/table_printer.hh"
#include "ds/chained_hash.hh"
#include "ds/skip_list.hh"
#include "ds/trie.hh"
#include "qei/scheme.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

using namespace qei;

TEST(SchemePresets, MatchPaperConfiguration)
{
    const auto all = SchemeConfig::allSchemes();
    ASSERT_EQ(all.size(), 5u);

    const SchemeConfig& chaTlb = all[0];
    EXPECT_EQ(chaTlb.translate, TranslatePath::DedicatedTlb);
    EXPECT_EQ(chaTlb.qstEntries, 10);
    EXPECT_EQ(chaTlb.accelerators, 24);
    EXPECT_EQ(kDedicatedTlbEntries, 1024u);

    const SchemeConfig& noTlb = all[1];
    EXPECT_EQ(noTlb.translate, TranslatePath::CoreMmuRemote);

    const SchemeConfig& direct = all[2];
    EXPECT_EQ(direct.qstEntries, 240); // 10 x 24 cores
    EXPECT_EQ(direct.accelerators, 1);
    EXPECT_GE(direct.submitLatency, 100u); // Tab. I: 100~500

    const SchemeConfig& indirect = all[3];
    EXPECT_GE(indirect.dataOverhead, 100u);

    const SchemeConfig& coreInt = all[4];
    EXPECT_TRUE(coreInt.perCore);
    EXPECT_TRUE(coreInt.remoteComparators);
    EXPECT_EQ(coreInt.translate, TranslatePath::CoreL2Tlb);
}

TEST(SchemePresets, NamesAreDistinct)
{
    std::vector<std::string> names;
    for (const auto& s : SchemeConfig::allSchemes())
        names.push_back(s.name());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TablePrinter, AlignsColumnsAndRules)
{
    TablePrinter t("title");
    t.header({"a", "long-header", "c"});
    t.row({"1", "2", "3"});
    t.row({"wide-cell", "x", "y"});
    const std::string out = t.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    // Every rendered line between rules has equal width.
    std::size_t firstLen = std::string::npos;
    std::size_t pos = out.find('\n') + 1; // skip title
    while (pos < out.size()) {
        const std::size_t end = out.find('\n', pos);
        const std::size_t len = end - pos;
        if (firstLen == std::string::npos)
            firstLen = len;
        EXPECT_EQ(len, firstLen);
        pos = end + 1;
    }
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 3), "3.142");
    EXPECT_EQ(TablePrinter::speedup(2.0), "2.00x");
    EXPECT_EQ(TablePrinter::percent(0.125), "12.5%");
}

TEST(TablePrinterDeath, MismatchedRowDies)
{
    TablePrinter t;
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "cells");
}

TEST(TrieEdges, EmptyInputMatchesNothing)
{
    World world(1);
    SimTrie trie(world.vm, {"abc"});
    EXPECT_EQ(trie.match({}).resultValue, 0u);
}

TEST(TrieEdges, RepeatedPatternOverlaps)
{
    World world(1);
    SimTrie trie(world.vm, {"aa"});
    std::vector<std::uint8_t> input(6, 'a'); // "aaaaaa": 5 overlaps
    EXPECT_EQ(trie.match(input).resultValue, 5u);
}

TEST(TrieEdges, DuplicateKeywordCountsTwice)
{
    World world(1);
    SimTrie trie(world.vm, {"ab", "ab"});
    std::vector<std::uint8_t> input{'a', 'b'};
    EXPECT_EQ(trie.match(input).resultValue, 2u);
}

TEST(TrieEdges, KeywordIsPrefixOfAnother)
{
    World world(1);
    SimTrie trie(world.vm, {"ab", "abc"});
    std::vector<std::uint8_t> input{'x', 'a', 'b', 'c', 'x'};
    EXPECT_EQ(trie.match(input).resultValue, 2u);
}

TEST(SkipListInvariants, LeafChainIsSorted)
{
    World world(2);
    Rng rng(3);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 300; ++i)
        items.emplace_back(randomKey(rng, 16), i);
    SimSkipList sl(world.vm, items);

    // Walk level 0 from the head: keys must be strictly increasing.
    Addr node = sl.headAddr();
    Key prev;
    int count = 0;
    while (true) {
        const Addr next = world.vm.read<std::uint64_t>(
            node + sl.forwardBase());
        if (next == kNullAddr)
            break;
        const Key k = loadKey(world.vm, next + 16, sl.keyLen());
        if (count > 0) {
            EXPECT_LT(compareKeys(prev, k), 0);
        }
        prev = k;
        node = next;
        ++count;
    }
    EXPECT_EQ(static_cast<std::size_t>(count), items.size());
}

TEST(EventQueueStress, ThousandsOfRandomEventsRunInOrder)
{
    EventQueue q;
    Rng rng(9);
    std::vector<Cycles> fired;
    for (int i = 0; i < 5000; ++i) {
        const Cycles when = rng.below(10000);
        q.scheduleAt(when, [&fired, &q] { fired.push_back(q.now()); });
    }
    q.run();
    EXPECT_EQ(fired.size(), 5000u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(FigureInvariants, DeviceIndirectWorstBlockingScheme)
{
    World world(50);
    Rng rng(5);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 300; ++i)
        items.emplace_back(randomKey(rng, 16), i);
    SimChainedHash table(world.vm, items, 128);
    Prepared prep;
    prep.profile.nonQueryInstrPerOp = 15;
    for (int qn = 0; qn < 50; ++qn) {
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

    Cycles worst = 0;
    std::string worstName;
    for (const auto& scheme : SchemeConfig::allSchemes()) {
        const QeiRunStats stats = runQei(world, prep, DriverConfig(scheme));
        if (stats.cycles > worst) {
            worst = stats.cycles;
            worstName = scheme.name();
        }
    }
    EXPECT_EQ(worstName, "Device-indirect");
}

TEST(FigureInvariants, EndToEndGainBelowRoiSpeedup)
{
    // Amdahl sanity used by fig09: end-to-end gain must be below the
    // ROI speedup for any roiFraction < 1.
    auto gain = [](double f, double s) {
        return 1.0 / ((1.0 - f) + f / s) - 1.0;
    };
    EXPECT_LT(gain(0.44, 8.0) + 1.0, 8.0);
    EXPECT_NEAR(gain(1.0, 8.0) + 1.0, 8.0, 1e-9);
    EXPECT_NEAR(gain(0.0, 8.0), 0.0, 1e-9);
}
