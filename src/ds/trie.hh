/**
 * @file
 * Byte trie with Aho-Corasick failure links in simulated memory — the
 * Snort literal-matching workload. A "query" streams an input buffer
 * through the automaton and counts keyword matches.
 *
 * Node layout:
 *   [childCount 2][outputCount 2][pad 4][fail 8]
 *   [entries childCount x 8: child | byte << 56], entries sorted.
 *
 * The builder works on the host: it inserts the keywords in sorted
 * order into flat per-node arrays (children grouped by parent, already
 * in byte order), links failures breadth first, lays the nodes out in
 * BFS order and writes the whole automaton with one writeBytes.
 */

#ifndef QEI_DS_TRIE_HH
#define QEI_DS_TRIE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "ds/keys.hh"
#include "qei/struct_header.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/** Builder + reference matcher for the in-sim-memory AC automaton. */
class SimTrie
{
  public:
    /**
     * Build the automaton for @p keywords (fail links via BFS). Panics
     * when a node's output count, its own keywords plus those reached
     * through its fail chain, exceeds the 16-bit field.
     */
    SimTrie(VirtualMemory& vm,
            const std::vector<std::string>& keywords);

    Addr rootAddr() const { return root_; }
    std::size_t nodeCount() const { return nodeCount_; }
    std::size_t keywordCount() const { return keywordCount_; }

    /**
     * Build a Fig. 4 header for matching a @p input_len-byte stream.
     * The trie header depends on the input length (it is the CFA's
     * key length), so each stream length gets its own header.
     */
    Addr makeHeader(std::uint32_t input_len);

    /**
     * Software reference AC scan of @p input with baseline trace;
     * trace.resultValue = number of keyword occurrences matched.
     */
    QueryTrace match(const std::vector<std::uint8_t>& input) const;

    /** Stage an input buffer in sim memory. */
    Addr stageInput(const std::vector<std::uint8_t>& input);

  private:
    VirtualMemory& vm_;
    Addr root_ = kNullAddr;
    std::size_t nodeCount_ = 0;
    std::size_t keywordCount_ = 0;
};

} // namespace qei

#endif // QEI_DS_TRIE_HH
