/**
 * @file
 * Locality-Sensitive-Hashing table set — the FLANN similarity-search
 * workload. L chained hash tables, each keyed by a different random
 * projection of the item key; querying probes every table and gathers
 * candidate matches.
 */

#ifndef QEI_DS_LSH_HH
#define QEI_DS_LSH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/trace.hh"
#include "ds/chained_hash.hh"
#include "ds/keys.hh"

namespace qei {

/** FLANN-style multi-table LSH index over binary keys. */
class SimLsh
{
  public:
    /**
     * @param tables number of hash tables (FLANN LSH default: 12)
     * @param items  dataset (key, id) pairs; keys of equal length
     */
    SimLsh(VirtualMemory& vm, int tables,
           const std::vector<std::pair<Key, std::uint64_t>>& items,
           Rng& rng);

    int tableCount() const { return static_cast<int>(tables_.size()); }
    SimChainedHash& table(int i)
    {
        return *tables_[static_cast<std::size_t>(i)];
    }
    std::uint32_t keyLen() const { return keyLen_; }

    /**
     * The bucket key table @p t uses for @p key: the key XOR-ed with
     * the table's random projection mask (keeps key length constant so
     * the same CFA program serves every table).
     */
    Key project(const Key& key, int t) const;

    /** Software reference probe of all tables (candidate gathering). */
    std::vector<QueryTrace> probeAll(const Key& key) const;

  private:
    /** project() into @p out, a key of keyLen() bytes. */
    void projectInto(const Key& key, int t, Key& out) const;

    VirtualMemory& vm_;
    std::uint32_t keyLen_ = 0;
    std::vector<std::unique_ptr<SimChainedHash>> tables_;
    std::vector<Key> projections_;
};

} // namespace qei

#endif // QEI_DS_LSH_HH
