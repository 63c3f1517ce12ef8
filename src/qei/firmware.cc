#include "firmware.hh"

namespace qei {

namespace firmware {

namespace {

/** Shorthand constructors keeping the programs readable. */

MicroInst
aluImm(std::uint8_t dst, AluFn fn, std::uint8_t src, std::uint64_t imm,
       const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::Alu;
    mi.dst = dst;
    mi.srcA = src;
    mi.useImm = true;
    mi.imm = imm;
    mi.aluFn = fn;
    mi.label = label;
    return mi;
}

MicroInst
aluReg(std::uint8_t dst, AluFn fn, std::uint8_t a, std::uint8_t b,
       const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::Alu;
    mi.dst = dst;
    mi.srcA = a;
    mi.srcB = b;
    mi.useImm = false;
    mi.aluFn = fn;
    mi.label = label;
    return mi;
}

MicroInst
memField(std::uint8_t dst, std::uint8_t addr_reg, std::uint64_t off,
         std::uint8_t width = 8, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::MemReadField;
    mi.dst = dst;
    mi.srcA = addr_reg;
    mi.imm = off;
    mi.width = width;
    mi.label = label;
    return mi;
}

MicroInst
memLine(std::uint8_t addr_reg, std::uint64_t off, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::MemReadLine;
    mi.srcA = addr_reg;
    mi.imm = off;
    mi.label = label;
    return mi;
}

MicroInst
loadField(std::uint8_t dst, std::uint64_t line_off,
          std::uint8_t width = 8, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::LoadField;
    mi.dst = dst;
    mi.imm = line_off;
    mi.width = width;
    mi.label = label;
    return mi;
}

MicroInst
cmpKey(std::uint8_t addr_reg, std::uint64_t off, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::CompareKey;
    mi.srcA = addr_reg;
    mi.imm = off;
    mi.label = label;
    return mi;
}

MicroInst
cmpRegImm(std::uint8_t reg, std::uint64_t imm, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::CompareReg;
    mi.srcA = reg;
    mi.useImm = true;
    mi.imm = imm;
    mi.label = label;
    return mi;
}

MicroInst
cmpRegReg(std::uint8_t a, std::uint8_t b, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::CompareReg;
    mi.srcA = a;
    mi.srcB = b;
    mi.useImm = false;
    mi.label = label;
    return mi;
}

MicroInst
hashKey(std::uint8_t dst, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::HashKey;
    mi.dst = dst;
    mi.label = label;
    return mi;
}

MicroInst
ret(bool success, const char* label = "")
{
    MicroInst mi;
    mi.op = MicroOpcode::Return;
    mi.imm = success ? 1 : 0;
    mi.label = label;
    return mi;
}

} // namespace

CfaProgram
buildLinkedList()
{
    // Fig. 3: MEM.N -> COMP -> (match: DONE | mismatch: MEM.N).
    // Each node line is staged once; next pointer, value and (for
    // node-resident keys) the comparison are all served from the line
    // buffer — one memory access per node.
    ProgramBuilder b("linked-list");
    const std::uint8_t sCheck = 0, sLine = 1, sCmp = 2, sFound = 3,
                       sNext = 4, sFail = 5, sOk = 6;

    MicroInst check = cmpRegImm(kRegNode, 0, "node == NULL?");
    check.onEq = sFail;
    check.onLt = sLine;
    check.onGt = sLine;
    b.add(check);

    MicroInst line = memLine(kRegNode, 0, "stage node");
    line.next = sCmp;
    b.add(line);

    MicroInst cmp = cmpKey(kRegNode, 16, "key ? node.key");
    cmp.onEq = sFound;
    cmp.onLt = sNext;
    cmp.onGt = sNext;
    b.add(cmp);

    MicroInst found = memField(kRegResult, kRegNode, 8, 8, "value");
    found.next = sOk;
    b.add(found);

    MicroInst next = memField(kRegNode, kRegNode, 0, 8, "node = next");
    next.next = sCheck;
    b.add(next);

    b.add(ret(false, "not found"));
    b.add(ret(true, "found"));
    b.batchLevelReuse(); // chains share their head lines across keys
    return b.finish();
}

CfaProgram
buildBinaryTree()
{
    ProgramBuilder b("binary-tree");
    const std::uint8_t sCheck = 0, sLine = 1, sCmp = 2, sFound = 3,
                       sRight = 4, sLeft = 5, sFail = 6, sOk = 7;

    MicroInst check = cmpRegImm(kRegNode, 0, "node == NULL?");
    check.onEq = sFail;
    check.onLt = sLine;
    check.onGt = sLine;
    b.add(check);

    MicroInst line = memLine(kRegNode, 0, "stage node");
    line.next = sCmp;
    b.add(line);

    // threeWay(node.key, query): Lt => stored < query => go right.
    MicroInst cmp = cmpKey(kRegNode, 24, "key ? node.key");
    cmp.onEq = sFound;
    cmp.onLt = sRight;
    cmp.onGt = sLeft;
    b.add(cmp);

    MicroInst found = memField(kRegResult, kRegNode, 16, 8, "value");
    found.next = sOk;
    b.add(found);

    MicroInst right = memField(kRegNode, kRegNode, 8, 8, "go right");
    right.next = sCheck;
    b.add(right);

    MicroInst left = memField(kRegNode, kRegNode, 0, 8, "go left");
    left.next = sCheck;
    b.add(left);

    b.add(ret(false, "not found"));
    b.add(ret(true, "found"));
    b.batchLevelReuse(); // all lookups descend from the same root
    return b.finish();
}

CfaProgram
buildSkipList()
{
    // Dispatch: R7 = aux0 = forward-array base offset,
    //           R4 = aux1 = top level (maxHeight - 1), R1 = head node.
    ProgramBuilder b("skip-list");
    const std::uint8_t sOff0 = 0, sOff1 = 1, sOff2 = 2, sLoad = 3,
                       sNull = 4, sCmp = 5, sFound = 6, sAdv = 7,
                       sDesc = 8, sDown = 9, sFail = 10, sOk = 11;

    MicroInst o0 = aluImm(kRegT6, AluFn::Shl, kRegT4, 3, "lvl*8");
    o0.next = sOff1;
    b.add(o0);

    MicroInst o1 = aluReg(kRegT6, AluFn::Add, kRegT6, kRegT7,
                          "+fwd base");
    o1.next = sOff2;
    b.add(o1);

    MicroInst o2 = aluReg(kRegT6, AluFn::Add, kRegT6, kRegNode,
                          "+node");
    o2.next = sLoad;
    b.add(o2);

    MicroInst load = memField(kRegT5, kRegT6, 0, 8, "next@level");
    load.next = sNull;
    b.add(load);

    MicroInst null = cmpRegImm(kRegT5, 0, "next == NULL?");
    null.onEq = sDesc;
    null.onLt = sCmp;
    null.onGt = sCmp;
    b.add(null);

    MicroInst cmp = cmpKey(kRegT5, 16, "key ? next.key");
    cmp.onEq = sFound;
    cmp.onLt = sAdv;  // stored < query: advance
    cmp.onGt = sDesc; // stored > query: descend
    b.add(cmp);

    MicroInst found = memField(kRegResult, kRegT5, 8, 8, "value");
    found.next = sOk;
    b.add(found);

    MicroInst adv = aluReg(kRegNode, AluFn::Mov, 0, kRegT5, "advance");
    adv.next = sOff0;
    b.add(adv);

    MicroInst desc = cmpRegImm(kRegT4, 0, "level == 0?");
    desc.onEq = sFail;
    desc.onLt = sDown;
    desc.onGt = sDown;
    b.add(desc);

    MicroInst down = aluImm(kRegT4, AluFn::Sub, kRegT4, 1, "level--");
    down.next = sOff0;
    b.add(down);

    b.add(ret(false, "not found"));
    b.add(ret(true, "found"));
    b.batchLevelReuse(); // head tower + upper levels shared by all keys
    return b.finish();
}

namespace {

/** Shared body of the chained-hash and hash-of-lists programs. */
CfaProgram
buildChainedHashNamed(const char* name)
{
    // Dispatch: R7 = aux0 = bucket mask, R1 = bucket-head array base.
    ProgramBuilder b(name);
    // State 0 hashes the key.
    const std::uint8_t sMask = 1, sShl = 2, sAdd = 3, sHead = 4,
                       sCheck = 5, sLine = 6, sCmp = 7, sFound = 8,
                       sNext = 9, sFail = 10, sOk = 11;

    MicroInst h = hashKey(kRegT4, "h = hash(key)");
    h.next = sMask;
    b.add(h);

    MicroInst mask = aluReg(kRegT4, AluFn::And, kRegT4, kRegT7,
                            "h &= mask");
    mask.next = sShl;
    b.add(mask);

    MicroInst shl = aluImm(kRegT4, AluFn::Shl, kRegT4, 3, "h *= 8");
    shl.next = sAdd;
    b.add(shl);

    MicroInst add = aluReg(kRegT4, AluFn::Add, kRegT4, kRegNode,
                           "+base");
    add.next = sHead;
    b.add(add);

    MicroInst head = memField(kRegNode, kRegT4, 0, 8, "bucket head");
    head.next = sCheck;
    b.add(head);

    MicroInst check = cmpRegImm(kRegNode, 0, "node == NULL?");
    check.onEq = sFail;
    check.onLt = sLine;
    check.onGt = sLine;
    b.add(check);

    MicroInst line = memLine(kRegNode, 0, "stage node");
    line.next = sCmp;
    b.add(line);

    MicroInst cmp = cmpKey(kRegNode, 16, "key ? node.key");
    cmp.onEq = sFound;
    cmp.onLt = sNext;
    cmp.onGt = sNext;
    b.add(cmp);

    MicroInst found = memField(kRegResult, kRegNode, 8, 8, "value");
    found.next = sOk;
    b.add(found);

    MicroInst next = memField(kRegNode, kRegNode, 0, 8, "node = next");
    next.next = sCheck;
    b.add(next);

    b.add(ret(false, "not found"));
    b.add(ret(true, "found"));
    // Hot buckets repeat across a batch (Zipf-skewed keys), so the
    // head-array and bucket lines coalesce even though the hash
    // scatters cold keys.
    b.batchLevelReuse();
    return b.finish();
}

} // namespace

CfaProgram
buildChainedHash()
{
    return buildChainedHashNamed("chained-hash");
}

CfaProgram
buildHashOfLists()
{
    return buildChainedHashNamed("hash-of-lists");
}

CfaProgram
buildCuckooHash()
{
    // Dispatch: R7 = aux0 = bucket mask, R1 = bucket array base.
    // Bucket: 8 entries x 16 B = 128 B = two cachelines. Entry:
    // [sig 8][kv-record ptr 8]; kv record: [value 8][key ...].
    // R4 = full 64-bit hash; primary index = R4 & mask; secondary
    // index = (R4 >> 32) & mask; signature = full hash.
    ProgramBuilder b("cuckoo-hash");

    // The program is generated into a local vector ("body", states
    // numbered from 4) behind a 4-state prologue; tail states (FAIL /
    // FOUND / OK) are appended last and patched in.
    std::vector<MicroInst> body;
    auto bodyIdx = [&]() {
        return static_cast<std::uint8_t>(4 + body.size());
    };
    std::vector<std::size_t> foundPatches; // CompareKey hits -> FOUND
    std::vector<std::size_t> failPatches;  // jumps -> FAIL

    // One bucket scan: 2 cachelines x 4 entries, signature check in
    // the staged line, full key compare only on a signature hit.
    // Falling past the last entry lands on the state generated next.
    auto scanBucket = [&](std::uint8_t bucket_reg) {
        for (int line = 0; line < 2; ++line) {
            MicroInst ml = memLine(bucket_reg,
                                   static_cast<std::uint64_t>(line) * 64,
                                   line == 0 ? "bucket line 0"
                                             : "bucket line 1");
            ml.next = static_cast<std::uint8_t>(bodyIdx() + 1);
            body.push_back(ml);
            for (int e = 0; e < 4; ++e) {
                const std::uint64_t off =
                    static_cast<std::uint64_t>(e) * 16;
                MicroInst sig = loadField(kRegResult, off, 8, "sig");
                sig.next = static_cast<std::uint8_t>(bodyIdx() + 1);
                body.push_back(sig);

                MicroInst sc = cmpRegReg(kRegResult, kRegT4, "sig ? h");
                sc.onEq = static_cast<std::uint8_t>(bodyIdx() + 1);
                sc.onLt = static_cast<std::uint8_t>(bodyIdx() + 3);
                sc.onGt = static_cast<std::uint8_t>(bodyIdx() + 3);
                body.push_back(sc);

                MicroInst kv = loadField(kRegResult, off + 8, 8, "kv");
                kv.next = static_cast<std::uint8_t>(bodyIdx() + 1);
                body.push_back(kv);

                MicroInst ck = cmpKey(kRegResult, 8, "key ? kv.key");
                ck.onLt = static_cast<std::uint8_t>(bodyIdx() + 1);
                ck.onGt = static_cast<std::uint8_t>(bodyIdx() + 1);
                foundPatches.push_back(body.size());
                body.push_back(ck);
            }
        }
    };

    scanBucket(kRegT6); // primary bucket

    // Secondary bucket index: (h >> 32) & mask, skip if identical.
    MicroInst s0 = aluImm(kRegT5, AluFn::Shr, kRegT4, 32, "h>>32");
    s0.next = static_cast<std::uint8_t>(bodyIdx() + 1);
    body.push_back(s0);
    MicroInst s1 = aluReg(kRegT5, AluFn::And, kRegT5, kRegT7, "& mask");
    s1.next = static_cast<std::uint8_t>(bodyIdx() + 1);
    body.push_back(s1);
    MicroInst s2 = aluImm(kRegT5, AluFn::Shl, kRegT5, 7, "*128");
    s2.next = static_cast<std::uint8_t>(bodyIdx() + 1);
    body.push_back(s2);
    MicroInst s3 = aluReg(kRegT5, AluFn::Add, kRegT5, kRegNode, "+base");
    s3.next = static_cast<std::uint8_t>(bodyIdx() + 1);
    body.push_back(s3);

    MicroInst same = cmpRegReg(kRegT5, kRegT6, "sec == prim?");
    same.onLt = static_cast<std::uint8_t>(bodyIdx() + 1);
    same.onGt = static_cast<std::uint8_t>(bodyIdx() + 1);
    failPatches.push_back(body.size()); // onEq -> FAIL
    body.push_back(same);

    MicroInst mv = aluReg(kRegT6, AluFn::Mov, 0, kRegT5, "bucket=sec");
    mv.next = static_cast<std::uint8_t>(bodyIdx() + 1);
    body.push_back(mv);

    scanBucket(kRegT6); // secondary bucket

    // Tail states: falling off the last entry lands on FAIL.
    const std::uint8_t sFail =
        static_cast<std::uint8_t>(4 + body.size());
    const std::uint8_t sFound = static_cast<std::uint8_t>(sFail + 1);
    const std::uint8_t sOk = static_cast<std::uint8_t>(sFail + 2);

    for (std::size_t i : foundPatches)
        body[i].onEq = sFound;
    for (std::size_t i : failPatches)
        body[i].onEq = sFail;

    // Prologue (states 0..3): hash and primary bucket address.
    MicroInst p0 = hashKey(kRegT4, "h = hash(key)");
    p0.next = 1;
    b.add(p0);
    MicroInst p1 = aluReg(kRegT6, AluFn::And, kRegT4, kRegT7, "& mask");
    p1.next = 2;
    b.add(p1);
    MicroInst p2 = aluImm(kRegT6, AluFn::Shl, kRegT6, 7, "*128");
    p2.next = 3;
    b.add(p2);
    MicroInst p3 = aluReg(kRegT6, AluFn::Add, kRegT6, kRegNode, "+base");
    p3.next = 4;
    b.add(p3);

    for (auto& mi : body)
        b.add(mi);

    b.add(ret(false, "not found")); // sFail
    MicroInst found =
        memField(kRegResult, kRegResult, 0, 8, "value = kv.value");
    found.next = sOk;
    b.add(found); // sFound
    b.add(ret(true, "found")); // sOk

    return b.finish();
}

CfaProgram
buildTrie()
{
    // Dispatch: R7 = aux0 = root node address, R4 = aux1 = 0 (input
    // index), R1 = root, R2 = input length. Result R3 = match count.
    ProgramBuilder b("trie-aho-corasick");
    const std::uint8_t sEnd = 0, sAddr = 1, sStage = 2, sByte = 3,
                       sSearch = 4, sAdv = 5, sFlag = 6, sTest = 7,
                       sHit = 8, sCnt = 9, sStep = 10, sRootChk = 11,
                       sSkip = 12, sFail = 13, sDone = 14;

    MicroInst end = cmpRegReg(kRegT4, kRegKeyLen, "i == len?");
    end.onEq = sDone;
    end.onLt = sAddr;
    end.onGt = sAddr;
    b.add(end);

    MicroInst addr = aluReg(kRegT6, AluFn::Add, kRegKeyAddr, kRegT4,
                            "&input[i]");
    addr.next = sStage;
    b.add(addr);

    // Stage the input line; 63 of 64 byte reads then hit the buffer.
    MicroInst stage = memLine(kRegT6, 0, "stage input line");
    stage.next = sByte;
    b.add(stage);

    MicroInst byte = memField(kRegT5, kRegT6, 0, 1, "input[i]");
    byte.next = sSearch;
    b.add(byte);

    MicroInst search;
    search.op = MicroOpcode::IndexSearch;
    search.dst = kRegT6;
    search.srcA = kRegNode;
    search.srcB = kRegT5;
    search.onEq = sAdv;   // child found
    search.next = sRootChk;
    search.onLt = sRootChk;
    search.onGt = sRootChk;
    search.label = "child[byte]?";
    b.add(search);

    // Entries carry an output flag in bit 55, so the common no-match
    // descent never touches the child's header line.
    MicroInst adv = aluImm(kRegNode, AluFn::And, kRegT6,
                           (1ULL << 55) - 1, "descend (strip flag)");
    adv.next = sFlag;
    b.add(adv);

    MicroInst flag = aluImm(kRegT6, AluFn::Shr, kRegT6, 55,
                            "output flag");
    flag.next = sTest;
    b.add(flag);

    MicroInst test = cmpRegImm(kRegT6, 0, "output?");
    test.onEq = sStep;
    test.onGt = sHit;
    test.onLt = sStep;
    b.add(test);

    MicroInst hit = memField(kRegT6, kRegNode, 2, 2, "output count");
    hit.next = sCnt;
    b.add(hit);

    MicroInst cnt = aluReg(kRegResult, AluFn::Add, kRegResult, kRegT6,
                           "matches += outputs");
    cnt.next = sStep;
    b.add(cnt);

    MicroInst step = aluImm(kRegT4, AluFn::Add, kRegT4, 1, "i++");
    step.next = sEnd;
    b.add(step);

    MicroInst rootChk = cmpRegReg(kRegNode, kRegT7, "at root?");
    rootChk.onEq = sSkip;
    rootChk.onLt = sFail;
    rootChk.onGt = sFail;
    b.add(rootChk);

    MicroInst skip = aluImm(kRegT4, AluFn::Add, kRegT4, 1,
                            "skip byte");
    skip.next = sEnd;
    b.add(skip);

    MicroInst fail = memField(kRegNode, kRegNode, 8, 8, "fail link");
    fail.next = sSearch;
    b.add(fail);

    b.add(ret(true, "done; R3 = matches"));
    b.batchLevelReuse(); // automaton upper states shared by all inputs
    return b.finish();
}

} // namespace firmware

FirmwareStore
FirmwareStore::factory()
{
    FirmwareStore store;
    store.installProgram(StructType::LinkedList,
                         firmware::buildLinkedList());
    store.installProgram(StructType::SkipList,
                         firmware::buildSkipList());
    store.installProgram(StructType::BinaryTree,
                         firmware::buildBinaryTree());
    store.installProgram(StructType::ChainedHash,
                         firmware::buildChainedHash());
    store.installProgram(StructType::CuckooHash,
                         firmware::buildCuckooHash());
    store.installProgram(StructType::Trie, firmware::buildTrie());
    store.installProgram(StructType::HashOfLists,
                         firmware::buildHashOfLists());
    return store;
}

void
FirmwareStore::installProgram(StructType type, CfaProgram program)
{
    const auto slot = static_cast<std::size_t>(type);
    simAssert(slot < kSlots, "bad StructType {}", slot);
    program.validate();
    programs_[slot] = std::move(program);
}

const CfaProgram*
FirmwareStore::program(StructType type) const
{
    const auto slot = static_cast<std::size_t>(type);
    if (slot >= kSlots || !programs_[slot])
        return nullptr;
    return &*programs_[slot];
}

std::size_t
FirmwareStore::installed() const
{
    std::size_t n = 0;
    for (const auto& p : programs_)
        n += p.has_value() ? 1 : 0;
    return n;
}

} // namespace qei
