/**
 * @file
 * Integration schemes of Sec. V / Fig. 6: where the accelerator sits,
 * how its memory accesses are translated, and what every hop costs.
 */

#ifndef QEI_QEI_SCHEME_HH
#define QEI_QEI_SCHEME_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace qei {

/** The five evaluated integration schemes (Sec. VI-A). */
enum class IntegrationScheme : std::uint8_t {
    /** HALO-style: accelerator + dedicated 1024-entry TLB per CHA. */
    ChaTlb = 0,
    /** Accelerator per CHA, translation via the core's MMU. */
    ChaNoTlb = 1,
    /** Dedicated accelerator on its own NoC stop (DASX-style). */
    DeviceDirect = 2,
    /** Accelerator behind a standard device interface (CXL/OpenCAPI). */
    DeviceIndirect = 3,
    /** This paper: control by the L2/L2-TLB, comparators in CHAs. */
    CoreIntegrated = 4,
};

/** How the accelerator translates virtual addresses. */
enum class TranslatePath : std::uint8_t {
    /** Borrow the adjacent core's L2-TLB (Core-integrated). */
    CoreL2Tlb,
    /** Dedicated per-accelerator TLB; walks on miss (CHA-TLB). */
    DedicatedTlb,
    /** NoC round trip to the owning core's MMU (CHA-noTLB). */
    CoreMmuRemote,
    /** Device-side IOMMU-style TLB (Device schemes). */
    DeviceTlb,
};

/** How the accelerator reaches data. */
enum class DataPath : std::uint8_t {
    /** Start at the adjacent core's L2 (Core-integrated). */
    L2Path,
    /** Start at the local LLC slice / CHA (CHA-based). */
    ChaPath,
    /** Cross the NoC from a dedicated stop (Device schemes). */
    DevicePath,
};

/**
 * How a deployment splits QST slots between tenants (the multi-tenant
 * fairness knob; see src/qei/admission.hh for the serving-side layer
 * that enforces it).
 */
enum class TenantShare : std::uint8_t {
    None = 0, ///< no per-tenant cap; first come, first served
    Hard,     ///< strict partition: a tenant never exceeds its share
    Weighted, ///< guaranteed share + work-conserving borrowing
};

/** Per-tenant QST slot quota configuration. */
struct TenantQuota
{
    TenantShare share = TenantShare::None;
    /**
     * Relative slot weights per tenant; empty means equal shares.
     * Tenants beyond the vector reuse the last weight.
     */
    std::vector<int> weights;

    bool active() const { return share != TenantShare::None; }
};

/** Dedicated TLB size (DedicatedTlb / DeviceTlb paths). */
inline constexpr std::size_t kDedicatedTlbEntries = 1024;
/** Dedicated TLB hit latency. */
inline constexpr Cycles kDedicatedTlbHitLatency = 2;
/** Keys at or below this many bytes compare locally in the DPU; with
 *  remoteComparators, longer ones go to the home CHA's comparators. */
inline constexpr std::uint32_t kLocalCompareMaxBytes = 8;

/** Full parameterisation of one integration scheme. */
struct SchemeConfig
{
    IntegrationScheme scheme = IntegrationScheme::CoreIntegrated;
    TranslatePath translate = TranslatePath::CoreL2Tlb;
    DataPath data = DataPath::L2Path;

    /** QST entries per accelerator instance. */
    int qstEntries = 10;
    /** Accelerator instances (24 = per core/CHA, 1 = device). */
    int accelerators = 24;
    /** True: requests go to the issuing core's own accelerator. */
    bool perCore = true;
    /** Tile hosting the single device accelerator. */
    int deviceTile = 0;

    /** Fixed core<->accelerator latency added outside the NoC. */
    Cycles submitLatency = 0;
    /** Device-interface overhead per core<->accelerator message
     *  (Device-indirect only). */
    Cycles deviceIfLatency = 0;
    /** Per-data-access overhead of the device's request pipeline:
     *  ~15 cycles for a NoC-native device (DASX-style), hundreds
     *  through a standard device interface — the Fig. 8 sweep
     *  variable. */
    Cycles dataOverhead = 0;

    /** Use remote CHA comparators for long keys (Core-integrated). */
    bool remoteComparators = false;

    /**
     * Per-tenant QST slot quotas, enforced by the Driver's serving
     * path. Default None keeps every historical deployment (and its
     * artifacts) untouched.
     */
    TenantQuota tenantQuota;

    std::string name() const;

    /** The five paper configurations. */
    static SchemeConfig chaTlb();
    static SchemeConfig chaNoTlb();
    static SchemeConfig deviceDirect();
    static SchemeConfig deviceIndirect(Cycles if_latency = 300);
    static SchemeConfig coreIntegrated();

    /** All five, in the paper's presentation order. */
    static std::vector<SchemeConfig> allSchemes();
};

} // namespace qei

#endif // QEI_QEI_SCHEME_HH
