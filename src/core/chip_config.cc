#include "chip_config.hh"

#include "common/format.hh"

namespace qei {

std::string
ChipConfig::describe() const
{
    std::string out;
    out += qei::fmt("Cores             : {} OoO cores, {:.1f} GHz\n",
                       memory.cores, core.frequencyGhz);
    out += qei::fmt(
        "Caches            : {}-way {} KB L1D, {}-way {} MB L2, "
        "{}-way {} MB shared LLC ({} slices)\n",
        memory.l1d.ways, memory.l1d.sizeBytes / 1024, memory.l2.ways,
        memory.l2.sizeBytes / (1024 * 1024), memory.llcSlice.ways,
        memory.llcSlice.sizeBytes * memory.cores / (1024 * 1024),
        memory.cores);
    out += qei::fmt("LQ/SQ/ROB entries : {}/{}/{}\n",
                       core.loadQueueEntries, core.storeQueueEntries,
                       core.robEntries);
    out += qei::fmt(
        "Memory controllers: {} DDR4 channels, {:.1f} GB/s per channel\n",
        memory.dram.channels,
        memory.dram.bytesPerCycle * core.frequencyGhz);
    out += qei::fmt(
        "QEI accelerator   : {} ALUs per DPU, {} comparators per CHA, "
        "{} comparators per device DPU\n",
        qei.alusPerDpu, qei.comparatorsPerCha, qei.comparatorsPerDpu);
    out += qei::fmt("NoC               : {}x{} mesh\n",
                       memory.mesh.cols, memory.mesh.rows);
    out += qei::fmt("Process           : {} nm\n", processNm);
    return out;
}

} // namespace qei
