/**
 * @file
 * Result extents: the lines of a destination page that an offload's
 * result can occupy. The host zero-fills the extent lines its copy
 * loop does not write, and the buffer device stages and Self-Recycles
 * exactly these lines, so a scratchpad page frees once its extent
 * drains. Lines past the extent behave as plain DRAM.
 */

#ifndef SD_SMARTDIMM_EXTENT_H
#define SD_SMARTDIMM_EXTENT_H

#include <algorithm>
#include <cstddef>

#include "common/types.h"
#include "crypto/tls_record.h"

namespace sd::smartdimm {

/**
 * Deflate frame overhead: the 2-byte length header plus the
 * worst-case 5-byte stored-block expansion of an incompressible page.
 */
inline constexpr std::size_t kDeflateFrameOverhead = 2 + 5;

/**
 * Extent of destination page @p page_index of a @p message_len-byte
 * TLS record: the ciphertext and the 16-byte tag that follows it.
 */
inline std::size_t
tlsExtentLines(std::size_t message_len, std::size_t page_index)
{
    const std::size_t record = message_len + crypto::kTlsTagSize;
    const std::size_t page_start = page_index * kPageSize;
    return page_start < record
               ? divCeil(std::min(kPageSize, record - page_start),
                         kCacheLineSize)
               : 0;
}

/**
 * Extent of the single destination page of a @p payload-byte Deflate
 * offload: the largest frame the payload can compress to.
 */
inline std::size_t
deflateExtentLines(std::size_t payload)
{
    return divCeil(std::min(kPageSize, payload + kDeflateFrameOverhead),
                   kCacheLineSize);
}

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_EXTENT_H
