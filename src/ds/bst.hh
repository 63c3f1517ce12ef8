/**
 * @file
 * Binary search tree / object tree in simulated memory — the tree
 * workload of the paper (JVM garbage-collection object tree).
 *
 * Node layout: [left 8][right 8][value 8][key keyLen].
 *
 * The builder shapes the tree on the host: the BST that inserting
 * the items in order builds is the Cartesian tree of the distinct keys
 * (search order on the key, heap order on first insertion), so it
 * sorts the items and links them with a stack. Nodes are allocated in
 * first-insertion order, as one-by-one inserts allocate them, and each
 * is written once.
 */

#ifndef QEI_DS_BST_HH
#define QEI_DS_BST_HH

#include <cstdint>
#include <vector>

#include "core/trace.hh"
#include "ds/keys.hh"
#include "qei/struct_header.hh"
#include "vm/virtual_memory.hh"

namespace qei {

/** Builder + reference query for an in-sim-memory BST. */
class SimBst
{
  public:
    /**
     * Insert @p items in the given order (no rebalancing); a repeated
     * key overwrites its node's value.
     */
    SimBst(VirtualMemory& vm,
           const std::vector<std::pair<Key, std::uint64_t>>& items);

    Addr headerAddr() const { return headerAddr_; }
    Addr rootAddr() const { return root_; }
    std::uint32_t keyLen() const { return keyLen_; }
    /** Number of distinct keys (nodes). */
    std::size_t size() const { return size_; }

    /** Software reference search with baseline trace. */
    QueryTrace query(const Key& key) const;

    Addr stageKey(const Key& key);

    /** Average node depth (memory accesses per query, Sec. VII-A). */
    double averageDepth() const;

  private:
    void accumulateDepth(Addr node, std::uint64_t depth,
                         std::uint64_t& total,
                         std::uint64_t& count) const;

    VirtualMemory& vm_;
    Addr headerAddr_ = kNullAddr;
    Addr root_ = kNullAddr;
    std::uint32_t keyLen_ = 0;
    std::size_t size_ = 0;
};

} // namespace qei

#endif // QEI_DS_BST_HH
