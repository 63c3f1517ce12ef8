/**
 * @file
 * The simulated CPU configuration of Tab. II, gathered in one place so
 * every experiment runs against the same machine description.
 */

#ifndef QEI_CORE_CHIP_CONFIG_HH
#define QEI_CORE_CHIP_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "fault/fault_config.hh"
#include "mem/hierarchy.hh"
#include "vm/tlb.hh"

namespace qei {

/** Per-core OoO pipeline parameters (Tab. II). */
struct CoreParams
{
    double frequencyGhz = 2.5;
    int issueWidth = 4;
    int robEntries = 224;
    int loadQueueEntries = 72;
    int storeQueueEntries = 56;
    Cycles branchMispredictPenalty = 15;
};

/** QEI accelerator sizing (Tab. II, bottom rows). */
struct QeiSizing
{
    int alusPerDpu = 5;
    int comparatorsPerCha = 2;   ///< CHA-based / Core-integrated
    int comparatorsPerDpu = 10;  ///< Device-based
    int qstEntriesPerAccel = 10; ///< Core/CHA schemes
    int qstEntriesDevice = 240;  ///< 10 x 24 cores, Device schemes
};

/** The full simulated machine. */
struct ChipConfig
{
    CoreParams core;
    HierarchyParams memory;
    MmuParams mmu;
    QeiSizing qei;
    /** Fault-injection mix + watchdog knobs; default injects nothing.
     *  The harnesses set it from `--faults`. */
    FaultConfig faults;
    int processNm = 22;

    /** Human-readable rendition of Tab. II. */
    std::string describe() const;
};

} // namespace qei

#endif // QEI_CORE_CHIP_CONFIG_HH
