#include "trie.hh"

#include <cstring>
#include <deque>

namespace qei {

SimTrie::SimTrie(VirtualMemory& vm,
                 const std::vector<std::string>& keywords)
    : vm_(vm), keywordCount_(keywords.size())
{
    auto root = std::make_unique<BuildNode>();

    // Phase 1: trie of keywords.
    for (const auto& word : keywords) {
        simAssert(!word.empty(), "empty keyword");
        BuildNode* node = root.get();
        for (char ch : word) {
            const auto byte = static_cast<std::uint8_t>(ch);
            auto& child = node->children[byte];
            if (!child)
                child = std::make_unique<BuildNode>();
            node = child.get();
        }
        ++node->outputs;
    }

    // Phase 2: BFS failure links; accumulate output counts through the
    // fail chain so matching only reads the landing node.
    std::deque<BuildNode*> queue;
    root->fail = root.get();
    for (auto& [byte, child] : root->children) {
        (void)byte;
        child->fail = root.get();
        queue.push_back(child.get());
    }
    while (!queue.empty()) {
        BuildNode* node = queue.front();
        queue.pop_front();
        node->outputs = static_cast<std::uint16_t>(
            node->outputs + node->fail->outputs);
        for (auto& [byte, child] : node->children) {
            BuildNode* f = node->fail;
            while (f != root.get() && !f->children.contains(byte))
                f = f->fail;
            auto it = f->children.find(byte);
            child->fail = (it != f->children.end() &&
                           it->second.get() != child.get())
                              ? it->second.get()
                              : root.get();
            queue.push_back(child.get());
        }
    }

    // Phase 3: allocate every node, then fill (fail links may point
    // forward in BFS order).
    std::deque<BuildNode*> order;
    std::deque<BuildNode*> walk{root.get()};
    while (!walk.empty()) {
        BuildNode* node = walk.front();
        walk.pop_front();
        order.push_back(node);
        const std::uint64_t bytes =
            16 + node->children.size() * 8ULL;
        node->addr = vm_.alloc(bytes, 8);
        ++nodeCount_;
        for (auto& [byte, child] : node->children) {
            (void)byte;
            walk.push_back(child.get());
        }
    }
    for (BuildNode* node : order)
        serialise(*node);
    root_ = root->addr;
}

Addr
SimTrie::serialise(BuildNode& node)
{
    vm_.write<std::uint16_t>(
        node.addr + 0,
        static_cast<std::uint16_t>(node.children.size()));
    vm_.write<std::uint16_t>(node.addr + 2, node.outputs);
    vm_.write<std::uint32_t>(node.addr + 4, 0);
    vm_.write<std::uint64_t>(node.addr + 8, node.fail->addr);
    std::size_t i = 0;
    for (const auto& [byte, child] : node.children) {
        // Bit 55 flags "child has outputs": the CFA then reads the
        // output count only on flagged descents instead of touching
        // every child's header.
        simAssert(child->addr < (1ULL << 55),
                  "node address overflows the entry encoding");
        std::uint64_t entry =
            child->addr | (static_cast<std::uint64_t>(byte) << 56);
        if (child->outputs > 0)
            entry |= 1ULL << 55;
        vm_.write<std::uint64_t>(node.addr + 16 + i * 8, entry);
        ++i;
    }
    return node.addr;
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
