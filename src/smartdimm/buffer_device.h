/**
 * @file
 * The SmartDIMM buffer device: the Arbiter of Fig. 5/6 wired between
 * the DDR PHY (the memory controller's command stream) and the DRAM
 * chips (the backing store). It decodes every CAS, regenerates the
 * physical address through the Bank Table + Addr Remap, consults the
 * cuckoo Translation Table, and either behaves as a plain DIMM or
 * performs near-memory computation:
 *
 *  - rdCAS in an sbuf range: DRAM data goes to the host unchanged
 *    while a tap feeds the DSA; results stage in the Scratchpad.
 *  - wrCAS in a dbuf range: the burst's data is *replaced* by the
 *    staged result on its way to DRAM and the Scratchpad line is
 *    invalidated (Self-Recycle). If the DSA has not finished the
 *    line, the write is ignored (S7).
 *  - rdCAS in a dbuf range: served from the Scratchpad when staged
 *    (S10); ALERT_N retry when computation is pending (S13).
 *  - A dbuf line past the page's result extent (smartdimm/extent.h)
 *    is never staged and behaves as plain DRAM for reads and writes.
 *  - CAS in the MMIO window: config-space access (registration,
 *    freePages, pending list).
 */

#ifndef SD_SMARTDIMM_BUFFER_DEVICE_H
#define SD_SMARTDIMM_BUFFER_DEVICE_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "compress/hw_deflate.h"
#include "fault/fault.h"
#include "mem/backing_store.h"
#include "mem/dram_command.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "smartdimm/bank_table.h"
#include "smartdimm/config.h"
#include "smartdimm/config_memory.h"
#include "smartdimm/cuckoo_table.h"
#include "smartdimm/dsa.h"
#include "smartdimm/scratchpad.h"
#include "smartdimm/tls_dsa.h"
#include "trace/trace.h"

namespace sd::smartdimm {

/** Arbiter decision counters, one per Fig. 6 state of interest. */
struct ArbiterStats
{
    std::uint64_t plain_reads = 0;       ///< non-acceleration rdCAS
    std::uint64_t plain_writes = 0;      ///< non-acceleration wrCAS
    std::uint64_t mmio_reads = 0;
    std::uint64_t mmio_writes = 0;
    std::uint64_t sbuf_reads = 0;        ///< S6: DSA fed
    std::uint64_t dbuf_recycles = 0;     ///< S8/S9: self-recycle drains
    std::uint64_t dbuf_write_ignored = 0; ///< S7: compute pending
    std::uint64_t dbuf_scratch_reads = 0; ///< S10
    std::uint64_t alert_n = 0;            ///< S13
    std::uint64_t registrations = 0;      ///< S17
    std::uint64_t rejected_registrations = 0; ///< resources exhausted
    std::uint64_t freepages_lies = 0;     ///< injected kFreePages lies
    std::uint64_t addr_remap_checks = 0;
    std::uint64_t doorbell_rings = 0;     ///< kQueueDoorbell writes
    std::uint64_t completion_acks = 0;    ///< kQueueComplete writes
};

/** Device-side view of one host work queue (kQueueStatus contents). */
struct DeviceQueueState
{
    std::uint32_t submitted = 0; ///< doorbells rung
    std::uint32_t completed = 0; ///< completion acks
};

/** The buffer device, slotted behind a channel's memory controller. */
class BufferDevice : public mem::DimmDevice
{
  public:
    /**
     * @param events simulation clock for DSA-latency modelling
     * @param map the channel's address map (the Addr Remap contents)
     * @param store DRAM chips behind the MIG PHY
     */
    BufferDevice(EventQueue &events, const mem::AddressMap &map,
                 mem::BackingStore &store,
                 const SmartDimmConfig &config = {});

    // ----- DimmDevice --------------------------------------------------------

    void onCommand(const mem::DdrCommand &cmd) override;
    mem::ReadResponse onRead(const mem::DdrCommand &cmd,
                             std::uint8_t *data) override;
    void onWrite(const mem::DdrCommand &cmd,
                 const std::uint8_t *data) override;

    // ----- observability -----------------------------------------------------

    const ArbiterStats &stats() const { return stats_; }
    const DsaStats &dsaStats() const { return dsa_stats_; }
    const Scratchpad &scratchpad() const { return scratchpad_; }

    /** kQueueStatus contents for queue @p id (zeroes when untracked). */
    DeviceQueueState
    queueState(std::size_t id) const
    {
        return id < kMaxDeviceQueues ? queues_[id] : DeviceQueueState{};
    }

    /** Contribute arbiter + DSA + scratchpad counters to a dump. */
    void reportStats(trace::StatsBlock &block) const;
    const ConfigMemory &configMemory() const { return config_memory_; }
    const CuckooTable &translationTable() const { return translation_; }
    CuckooTable &translationTable() { return translation_; }
    const SmartDimmConfig &config() const { return config_; }

    /** Hardware deflate pipeline geometry used for new jobs. */
    compress::HwDeflateConfig &deflateConfig() { return deflate_config_; }

    /**
     * Attach a fault plan (not owned; may be null). Device-side sites:
     * kFreePagesLie (the freePages register reports zero, pushing the
     * software into Alg. 1's Force-Recycle), kScratchpadExhaust and
     * kConfigMemExhaust (a registration's allocation fails and the
     * registration is rejected), plus the cuckoo-table sites, which
     * are forwarded to the Translation Table.
     */
    void
    setFaultPlan(fault::FaultPlan *plan)
    {
        fault_plan_ = plan;
        translation_.setFaultPlan(plan);
    }

    /**
     * Name this device's position in the topology so scoped fault
     * rules (`smartdimm[ch][dimm]/...`) can target it. The scope is
     * forwarded to the Translation Table for the cuckoo sites.
     */
    void
    setFaultScope(const fault::FaultScope &scope)
    {
        fault_scope_ = scope;
        translation_.setFaultScope(scope);
    }

    /** @return true when @p addr falls in the MMIO window. */
    bool
    isMmio(Addr addr) const
    {
        return addr >= config_.mmio_base &&
               addr < config_.mmio_base + config_.mmio_bytes;
    }

  private:
    struct SourceEntry
    {
        std::shared_ptr<DsaJob> job;
        std::uint64_t dbuf_page = 0;   ///< physical page number
        std::uint32_t config_slot = 0;
        /** The page's TLS record (message id); none for Deflate. */
        std::optional<std::uint64_t> tls_message;
        std::uint64_t fed_lines = 0;   ///< bitmap: lines already tapped
    };

    struct DestEntry
    {
        std::shared_ptr<DsaJob> job;
        std::uint64_t sbuf_page = 0;
        std::uint32_t scratch_page = 0;
        /** Lines already copied into the Scratchpad (mirrors the
         *  scratch page's computed bits while the mapping lives). */
        std::uint64_t staged = 0;
    };

    void handleMmioWrite(Addr addr, const std::uint8_t *data);
    void handleMmioRead(Addr addr, std::uint8_t *data);
    void registerTls(const std::uint8_t *data);
    void registerDeflate(const std::uint8_t *data);
    /** Consult the fault plan for @p site (false with no plan). */
    bool injectFault(fault::Site site);
    /** Count + trace a rejected registration of @p dbuf_page. */
    void rejectRegistration(std::uint64_t dbuf_page);
    void feedDsa(std::uint64_t sbuf_page, unsigned line,
                 const std::uint8_t *data);
    /** Stage every currently-available extent line of @p dbuf_page. */
    void materializeResults(std::uint64_t dbuf_page);
    /** Tear down the mappings once @p dbuf_page's extent drained. */
    void retirePage(std::uint64_t dbuf_page);

    EventQueue &events_;
    const mem::AddressMap &map_;
    mem::BackingStore &store_;
    SmartDimmConfig config_;
    compress::HwDeflateConfig deflate_config_;

    BankTable bank_table_;
    CuckooTable translation_;
    Scratchpad scratchpad_;
    ConfigMemory config_memory_;
    ClockDomain buffer_clock_{2500}; // 400 MHz

    std::unordered_map<std::uint64_t, SourceEntry> sources_;
    std::unordered_map<std::uint64_t, DestEntry> dests_;
    /** Per-TLS-record shared DSA state, keyed by software message id. */
    std::unordered_map<std::uint64_t, std::shared_ptr<TlsMessageState>>
        message_states_;
    /** Destination pages registered for each TLS record, so trailer
     *  (tag-only) pages materialise when the record completes. */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        message_pages_;

    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
    ArbiterStats stats_;
    DsaStats dsa_stats_;
    /** Per-queue doorbell/ack counters surfaced via kQueueStatus. */
    std::array<DeviceQueueState, kMaxDeviceQueues> queues_{};
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_BUFFER_DEVICE_H
