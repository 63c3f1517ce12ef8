#include "trie.hh"

#include <algorithm>
#include <cstring>
#include <string_view>

namespace qei {

namespace {

/** Copy @p value's bytes to @p out (the node image is unaligned). */
template <typename T>
void
put(std::uint8_t* out, T value)
{
    std::memcpy(out, &value, sizeof(T));
}

} // namespace

SimTrie::SimTrie(VirtualMemory& vm,
                 const std::vector<std::string>& keywords)
    : vm_(vm), keywordCount_(keywords.size())
{
    // Phase 1: trie of keywords, node 0 the root. Inserting in sorted
    // order (std::string order is unsigned-byte order) creates every
    // node after its siblings, so each node's children come out in
    // byte order. path[d] is the previous keyword's node at depth d.
    std::vector<std::string_view> sorted(keywords.begin(),
                                         keywords.end());
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> parent{0};
    std::vector<std::uint8_t> byte{0};
    std::vector<std::uint32_t> own{0}; // keywords ending at the node
    std::vector<std::uint32_t> path{0};
    std::string_view prev;
    for (const std::string_view word : sorted) {
        simAssert(!word.empty(), "empty keyword");
        const std::size_t shared = static_cast<std::size_t>(
            std::mismatch(word.begin(), word.end(), prev.begin(),
                          prev.end())
                .first -
            word.begin());
        path.resize(shared + 1);
        for (std::size_t d = shared; d < word.size(); ++d) {
            path.push_back(static_cast<std::uint32_t>(parent.size()));
            parent.push_back(path[d]);
            byte.push_back(static_cast<std::uint8_t>(word[d]));
            own.push_back(0);
        }
        ++own[path.back()];
        prev = word;
    }
    const std::size_t n = parent.size();

    // Edges grouped by parent (a stable count sort keeps each group in
    // creation order, which is byte order): node v's children are
    // child[first[v] .. first[v + 1]).
    std::vector<std::uint32_t> first(n + 1, 0);
    for (std::size_t v = 1; v < n; ++v)
        ++first[parent[v] + 1];
    for (std::size_t v = 0; v < n; ++v)
        first[v + 1] += first[v];
    std::vector<std::uint32_t> child(first[n]);
    std::vector<std::uint8_t> edgeByte(first[n]);
    {
        std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
        for (std::size_t v = 1; v < n; ++v) {
            const std::uint32_t e = next[parent[v]]++;
            child[e] = static_cast<std::uint32_t>(v);
            edgeByte[e] = byte[v];
        }
    }
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    auto childOf = [&](std::uint32_t v, std::uint8_t b) {
        const auto begin = edgeByte.begin() + first[v];
        const auto end = edgeByte.begin() + first[v + 1];
        const auto it = std::lower_bound(begin, end, b);
        return it != end && *it == b
                   ? child[static_cast<std::size_t>(
                         it - edgeByte.begin())]
                   : kNone;
    };

    // Phase 2: BFS failure links; accumulate output counts through the
    // fail chain so matching only reads the landing node.
    std::vector<std::uint32_t> order{0}; // BFS order, the layout's
    order.reserve(n);
    std::vector<std::uint32_t> fail(n, 0);
    std::vector<std::uint16_t> outputs(n, 0);
    for (std::size_t head = 0; head < order.size(); ++head) {
        const std::uint32_t v = order[head];
        if (v != 0) {
            const std::uint32_t total = own[v] + outputs[fail[v]];
            simAssert(total <= 0xFFFF,
                      "{} keywords end at one trie node, over the "
                      "16-bit output count",
                      total);
            outputs[v] = static_cast<std::uint16_t>(total);
        }
        for (std::uint32_t e = first[v]; e < first[v + 1]; ++e) {
            std::uint32_t f = fail[v];
            std::uint32_t target = kNone;
            if (v != 0) {
                while ((target = childOf(f, edgeByte[e])) == kNone &&
                       f != 0)
                    f = fail[f];
            }
            fail[child[e]] = target == kNone ? 0 : target;
            order.push_back(child[e]);
        }
    }

    // Phase 3: lay the nodes out in BFS order. Every node is a
    // multiple of 8 bytes, so one 8-aligned allocation hands out the
    // addresses per-node allocations would; fill one image and write
    // it once.
    std::vector<Addr> offset(n);
    std::uint64_t bytes = 0;
    for (const std::uint32_t v : order) {
        offset[v] = bytes;
        bytes += 16 + 8ULL * (first[v + 1] - first[v]);
    }
    const Addr base = vm_.alloc(bytes, 8);
    // Bit 55 flags "child has outputs": the CFA then reads the output
    // count only on flagged descents instead of touching every child's
    // header.
    simAssert(base + bytes <= (1ULL << 55),
              "node address overflows the entry encoding");
    std::vector<std::uint8_t> image(bytes);
    for (const std::uint32_t v : order) {
        std::uint8_t* out = image.data() + offset[v];
        put<std::uint16_t>(out + 0, static_cast<std::uint16_t>(
                                        first[v + 1] - first[v]));
        put<std::uint16_t>(out + 2, outputs[v]);
        put<std::uint64_t>(out + 8, base + offset[fail[v]]);
        out += 16;
        for (std::uint32_t e = first[v]; e < first[v + 1]; ++e) {
            const std::uint32_t c = child[e];
            std::uint64_t entry =
                (base + offset[c]) |
                (static_cast<std::uint64_t>(edgeByte[e]) << 56);
            if (outputs[c] > 0)
                entry |= 1ULL << 55;
            put<std::uint64_t>(out, entry);
            out += 8;
        }
    }
    vm_.writeBytes(base, image.data(), bytes);
    root_ = base;
    nodeCount_ = n;
}

Addr
SimTrie::makeHeader(std::uint32_t input_len)
{
    const Addr headerAddr = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::Trie;
    h.keyLen = static_cast<std::uint16_t>(input_len);
    h.flags = kFlagInlineKey;
    h.size = nodeCount_;
    h.aux0 = root_; // dispatch: R7 = root for the fail-link check
    h.aux1 = 0;     // dispatch: R4 = input index
    h.writeTo(vm_, headerAddr);
    return headerAddr;
}

QueryTrace
SimTrie::match(const std::vector<std::uint8_t>& input) const
{
    QueryTrace trace;
    std::uint64_t matches = 0;

    // Software AC inner loop per byte: table lookup in the node's
    // sorted child array (binary-search-ish), fail-link chasing, and
    // match bookkeeping. Branches on the search are data dependent.
    Addr node = root_;
    bool first = true;

    std::vector<std::uint8_t> scratch;
    auto childOf = [&](Addr n, std::uint8_t byte,
                       std::uint32_t& scanned) -> Addr {
        const auto count = vm_.read<std::uint16_t>(n);
        const std::uint8_t* entries =
            vm_.spanOrCopy(n + 16, count * 8ULL, scratch);
        for (std::uint16_t i = 0; i < count; ++i) {
            std::uint64_t e;
            std::memcpy(&e, entries + i * 8ULL, sizeof(e));
            ++scanned;
            if (static_cast<std::uint8_t>(e >> 56) == byte)
                return e & ((1ULL << 55) - 1); // strip the output bit
        }
        return kNullAddr;
    };

    for (std::uint8_t byte : input) {
        while (true) {
            std::uint32_t scanned = 0;

            MemTouch touch;
            touch.vaddr = node;
            touch.dependsOnPrev = !first;
            first = false;
            trace.touches.push_back(touch);

            const Addr child = childOf(node, byte, scanned);
            // ~4 instructions per scanned entry + loop control.
            trace.touches.back().instrBefore = 8 + 4 * scanned;
            trace.touches.back().branchesBefore = 2 + scanned;
            trace.touches.back().mispredictsBefore = 1;

            if (child != kNullAddr) {
                node = child;
                matches += vm_.read<std::uint16_t>(node + 2);
                break;
            }
            if (node == root_)
                break; // skip this input byte
            node = vm_.read<std::uint64_t>(node + 8); // fail link
        }
    }

    trace.instrAfter = 4;
    trace.found = true;
    trace.resultValue = matches;
    return trace;
}

Addr
SimTrie::stageInput(const std::vector<std::uint8_t>& input)
{
    const Addr addr = vm_.alloc(pad8(input.size()), 8);
    vm_.writeBytes(addr, input.data(), input.size());
    return addr;
}

} // namespace qei
