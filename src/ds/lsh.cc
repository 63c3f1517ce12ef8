#include "lsh.hh"

namespace qei {

SimLsh::SimLsh(VirtualMemory& vm, int tables,
               const std::vector<std::pair<Key, std::uint64_t>>& items,
               Rng& rng)
    : vm_(vm)
{
    simAssert(tables > 0, "need at least one LSH table");
    simAssert(!items.empty(), "empty LSH dataset");
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());

    std::size_t buckets = 64;
    while (buckets * 4 < items.size())
        buckets *= 2;

    // One working copy of the dataset; each table overwrites its key
    // bytes with that table's projection.
    std::vector<std::pair<Key, std::uint64_t>> projected = items;
    for (int t = 0; t < tables; ++t) {
        projections_.push_back(randomKey(rng, keyLen_));
        for (std::size_t k = 0; k < items.size(); ++k)
            projectInto(items[k].first, t, projected[k].first);
        tables_.push_back(std::make_unique<SimChainedHash>(
            vm_, projected, buckets, HashFunction::Fnv1a));
    }
}

Key
SimLsh::project(const Key& key, int t) const
{
    Key out(keyLen_);
    projectInto(key, t, out);
    return out;
}

void
SimLsh::projectInto(const Key& key, int t, Key& out) const
{
    simAssert(key.size() == keyLen_ && out.size() == keyLen_,
              "bad key length");
    const Key& mask = projections_[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < keyLen_; ++i)
        out[i] = key[i] ^ mask[i];
}

std::vector<QueryTrace>
SimLsh::probeAll(const Key& key) const
{
    std::vector<QueryTrace> traces;
    traces.reserve(tables_.size());
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        traces.push_back(tables_[t]->query(
            project(key, static_cast<int>(t))));
    }
    return traces;
}

} // namespace qei
